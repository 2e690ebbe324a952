/**
 * @file
 * The edit phase: the paper's edit → recompile → hot-swap loop.
 *
 * Set-up compiles every Rosetta app at -O1 through an in-process
 * compile daemon (CompileService behind a DaemonServer, reached by
 * one Client over a real AF_UNIX socket) and loads each build on its
 * own SystemSim. The loop is closed, with one client: each edit sends
 * Client::swap, decodes the SwapBlob, hot-swaps the page with
 * SystemSim::swapPage, reruns the batch and checks every output word.
 *
 * An edit adds a debug Print to one operator: the semantics stay the
 * same (the HW flows drop prints) but the printed text, and so the
 * request, changes. A seeded share of edits revisits an earlier
 * version of an operator, so those requests take the store-hit read
 * path while new versions take the compile-and-put write path.
 */

#include <filesystem>
#include <map>
#include <tuple>

#include "bench.h"
#include "ir/stmt.h"
#include "pld/compiler.h"
#include "rvgen/codegen.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "svc/store.h"
#include "svc/wire.h"
#include "sys/system.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace pld;

constexpr uint64_t kMaxCycles = 2000000000ull;
/** Edits a focal run makes at least (ten samples above p90). */
constexpr size_t kFocalMinEdits = 100;
/** Edits of the reference slice (three rounds over five apps). */
constexpr size_t kSliceEdits = 15;
/** The slice leaves out this app, whose batch rerun alone takes
 * 0.3-0.5 s; the focal phase edits it. */
const char *const kSliceSkippedApp = "Binary NN";
/**
 * Share of edits that go back to an earlier version. No measured edit
 * trace exists to derive it from, so it is a chosen value: about one
 * edit in three undoes or redoes an earlier change, enough revisits
 * that the store-hit path is timed on every run while most edits still
 * take the compile-and-put path the paper's loop is about. The hit and
 * miss latencies are reported apart (traced run), so a change that only
 * shifts the mix shows.
 */
constexpr double kRevisitShare = 0.3;
/** Edits the traced run replays against the layers below svc. */
constexpr size_t kReplayEdits = 48;
/** Sessions every edit is applied to (see EditPhase). */
constexpr int kFocalReplicas = 2;
constexpr int kSliceReplicas = 6;
constexpr double kEffort = 1.0;

/** The compile daemon, in process, with one connected client. */
struct Daemon
{
    svc::CompileService service;
    svc::DaemonServer server;
    svc::Client client;

    Daemon(const fabric::Device &dev, svc::ServiceConfig cfg,
           const std::string &sock)
        : service(dev, std::move(cfg)), server(service, sock),
          client(sock)
    {
        server.start();
    }
};

/** One app compiled by the daemon and running on its own sim. */
struct LiveApp
{
    uint64_t buildId = 0;
    std::unique_ptr<sys::SystemSim> sim;
    /** Ops an edit may target: fn names unique in the graph (a swap
     * names its operator by fn name). */
    std::vector<int> victims;
    /** Per op: versions sent so far. */
    std::vector<std::vector<int>> sent;
};

struct EditKey
{
    int app = 0;
    int op = 0;
    int version = 0;
    bool operator<(const EditKey &o) const
    {
        return std::tie(app, op, version) <
               std::tie(o.app, o.op, o.version);
    }
};

/** An edit as sent, kept for the traced replay. */
struct SentEdit
{
    EditKey key;
    /** Swap request key (the daemon stores the blob under it). */
    uint64_t reqKey = 0;
    std::vector<uint8_t> blob;
};

svc::RequestOptions
requestOptions(const Env &env, uint64_t compile_seed)
{
    svc::RequestOptions o;
    o.level = static_cast<uint8_t>(flow::OptLevel::O1);
    o.seed = compile_seed;
    o.effort = kEffort;
    o.parallelJobs = env.jobs;
    o.softcoreTier = static_cast<uint8_t>(rvgen::Tier::Os);
    return o;
}

/** The base graph with a debug print appended to op @p op. */
ir::Graph
editedGraph(const ir::Graph &base, int op, int version)
{
    ir::Graph g = base;
    ir::StmtPtr s = ir::makeStmt(ir::StmtKind::Print);
    s->text = "perfbench edit " + std::to_string(version);
    g.ops[op].fn.body.push_back(std::move(s));
    return g;
}

bool
runAndVerify(Env &env, sys::SystemSim &sim, const rosetta::Benchmark &bm)
{
    sim.loadInput(0, bm.input);
    sys::RunStats rs;
    {
        auto s = env.spans.span("sys.run");
        rs = sim.run(kMaxCycles);
    }
    auto s = env.spans.span("verify");
    return rs.completed && sim.takeOutput(0) == bm.expected;
}

struct Session
{
    std::unique_ptr<Daemon> daemon;
    std::vector<LiveApp> apps;
};

/** Start a cold daemon, compile every app through it and run each
 * build once. */
void
startSession(Env &env, const std::string &dir, uint64_t compile_seed,
             Session &ses)
{
    ses = Session{};
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir);
    svc::ServiceConfig cfg;
    cfg.storeDir = dir + "/store";
    cfg.maxExecuting = static_cast<int>(env.jobs);
    ses.daemon = std::make_unique<Daemon>(env.dev, cfg, dir + "/d.sock");
    svc::Client &client = ses.daemon->client;
    if (!env.check(client.connect(), "edit: connect to the daemon"))
        return;
    client.setDeadlineMs(120000);

    for (const rosetta::Benchmark &bm : env.apps) {
        LiveApp app;
        svc::CompileRequest req;
        req.opts = requestOptions(env, compile_seed);
        req.graphText = svc::encodeGraphText(bm.graph);
        svc::CompileResponse resp = client.compile(req);
        bool ok = env.check(resp.status == svc::RespStatus::Ok,
                            "edit: compile " + bm.name + ": " +
                                resp.diags.render());
        if (ok) {
            svc::BuildArtifact ba = svc::BuildArtifact::decode(resp.blob);
            flow::AppBuild skel = ba.toSkeletonAppBuild();
            app.buildId = resp.key;
            app.sim = std::make_unique<sys::SystemSim>(
                bm.graph, ba.bindings, skel.sysCfg);
            env.check(runAndVerify(env, *app.sim, bm),
                      "edit: first run of " + bm.name);
        }
        const ir::Graph &g = bm.graph;
        for (size_t i = 0; i < g.ops.size(); ++i) {
            int same = 0;
            for (const auto &o : g.ops)
                same += o.fn.name == g.ops[i].fn.name;
            bool external = false;
            for (const ir::Link &l : g.links)
                external |= (l.src.op == int(i) && l.dst.isExternal()) ||
                            (l.dst.op == int(i) && l.src.isExternal());
            if (same == 1 && !external)
                app.victims.push_back(static_cast<int>(i));
        }
        app.sent.assign(g.ops.size(), {});
        ses.apps.push_back(std::move(app));
    }
}

/**
 * Re-drive the layers below svc on the first edits of the loop:
 * ArtifactStore put/get on the returned blobs, buildSwapArtifact on a
 * library PldCompiler with the daemon's options, and rvgen on each
 * edited operator. Every replayed artifact must equal what the daemon
 * returned.
 */
void
replayLayers(Env &env, const std::string &dir, uint64_t compile_seed,
             const std::vector<SentEdit> &edits,
             std::map<EditKey, ir::Graph> &graphs)
{
    {
        svc::ArtifactStore store(dir + "/replay-store", 256ull << 20);
        std::map<uint64_t, const std::vector<uint8_t> *> blobs;
        for (const SentEdit &e : edits)
            blobs.emplace(e.reqKey, &e.blob);
        for (const auto &[key, blobp] : blobs) {
            const std::vector<uint8_t> &blob = *blobp;
            bool put;
            {
                auto s = env.spans.span("svc.store_put");
                put = store.put(key, blob);
            }
            std::optional<std::vector<uint8_t>> got;
            {
                auto s = env.spans.span("svc.store_get");
                got = store.get(key);
            }
            env.check(put && got && *got == blob,
                      "edit replay: store round trip");
        }
    }

    flow::CompileOptions co;
    co.effort = kEffort;
    co.parallelJobs = env.jobs;
    co.seed = compile_seed;
    co.softcoreTier = rvgen::Tier::Os;
    flow::PldCompiler pc(env.dev, co);
    std::map<int, flow::AppBuild> bases;
    std::map<EditKey, bool> compiled;
    uint64_t instructions = 0;
    for (const SentEdit &e : edits) {
        const rosetta::Benchmark &bm = env.apps[e.key.app];
        auto it = bases.find(e.key.app);
        if (it == bases.end())
            it = bases.emplace(e.key.app,
                               pc.build(bm.graph, flow::OptLevel::O1))
                     .first;
        const ir::Graph &g = graphs.at(e.key);
        const ir::OperatorFn &fn = g.ops[e.key.op].fn;
        flow::SwapArtifact sa;
        {
            auto s = env.spans.span("pld.swap_artifact");
            sa = pc.buildSwapArtifact(g, fn.name, it->second);
        }
        svc::SwapBlob sb;
        sb.op = sa.op;
        sb.fnChanged = sa.fnChanged;
        sb.binding = sa.binding;
        env.check(sb.encode() == e.blob,
                  "edit replay: library swap artifact of " + fn.name +
                      " differs from the daemon's");

        if (!compiled.emplace(e.key, true).second)
            continue;
        rvgen::RvOptions ro;
        ro.tier = rvgen::Tier::Os;
        rvgen::RvResult rv;
        {
            auto s = env.spans.span("rvgen.compile");
            try {
                rv = rvgen::compileToRiscv(fn, ro);
            } catch (const std::runtime_error &) {
                ro.tier = rvgen::Tier::O0; // -Os capacity fallback
                rv = rvgen::compileToRiscv(fn, ro);
            }
        }
        instructions += static_cast<uint64_t>(rv.instructions);
        rv.elf.pageNum = sb.binding.pageId;
        env.check(sb.binding.hasFallback &&
                      rv.elf.pack() == sb.binding.fallbackElf.pack(),
                  "edit replay: rvgen image of " + fn.name +
                      " differs from the swap fallback");
    }
    env.counter("rvgen.instructions", instructions, "count");
    const flow::CacheStats &cs = pc.cacheStats();
    env.cacheHits += cs.hits.load();
    env.cacheLookups += cs.hits.load() + cs.misses.load();
}

/**
 * One edit on one session: swap request → decode → swapPage → rerun →
 * verify. Returns the latency in ms, or a negative value on failure.
 */
double
applyEdit(Env &env, Session &ses, int ai, const ir::Graph &g, int op,
          const svc::SwapRequest &req, svc::CompileResponse *resp,
          sys::SwapResult *sr)
{
    LiveApp &app = ses.apps[ai];
    const rosetta::Benchmark &bm = env.apps[ai];
    const ir::OperatorFn &fn = g.ops[op].fn;
    bool ok = false;
    double t0 = nowSec();
    try {
        auto edit = env.spans.span("edit");
        {
            auto s = env.spans.span("svc.swap_rpc");
            *resp = ses.daemon->client.swap(req);
        }
        if (resp->status == svc::RespStatus::Ok) {
            svc::SwapBlob sb;
            {
                auto s = env.spans.span("svc.decode");
                sb = svc::SwapBlob::decode(resp->blob);
            }
            {
                auto s = env.spans.span("sys.swap_page");
                *sr = app.sim->swapPage(sb.binding.pageId, sb.binding,
                                        sb.fnChanged ? &fn : nullptr);
            }
            ok = sr->outcome == sys::SwapOutcome::Swapped &&
                 runAndVerify(env, *app.sim, bm);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "edit: %s\n", e.what());
    }
    double ms = (nowSec() - t0) * 1e3;
    return env.check(ok, "edit: swap " + fn.name + " of " + bm.name +
                             ": " + resp->diags.render())
               ? ms
               : -1;
}

/**
 * The first replica session draws the edits as it goes and records
 * them; each later replica repeats the recording on an identical
 * session, one edit per step. The p50 takes each edit's fastest
 * latency: this host's CPU speed changes by up to 2x for seconds at a
 * time, and repeating the same work on the same state later in the
 * run is the only way to see through that. The p90 pools every
 * replica's sample, so a stall that hits one replica still counts.
 */
class EditPhase : public Phase
{
  public:
    EditPhase(Env &env, const PhaseScale &scale)
        : env_(env), scale_(scale), rng_(scale.seed ^ 0x6564697431ull),
          compileSeed_(1 + rng_.below(1000000)),
          replicas_(scale.focal ? kFocalReplicas : kSliceReplicas),
          alternate_(env.trace && scale.focal)
    {
    }

    void
    setUp() override
    {
        // Set-ups beyond the replicas only feed setup_s.
        sessions_.resize(std::max(replicas_, scale_.setups));
        for (size_t r = 0; r < sessions_.size(); ++r) {
            double t0 = nowSec();
            startSession(env_, env_.outDir + "/edit" + std::to_string(r),
                         compileSeed_, sessions_[r]);
            if (scale_.focal)
                env_.setupSec.push_back(nowSec() - t0);
        }
        sessions_.resize(replicas_);
        for (const Session &ses : sessions_)
            ready_ = ready_ && ses.daemon && ses.daemon->client.connected();
        if (ready_) {
            const svc::ServiceStats &st = sessions_[0].daemon->service.stats();
            submitted0_ = st.submitted.load();
            hits0_ = st.storeHits.load();
        }
    }

    /** One edit: the first replica draws edits as it goes, then each
     * later replica repeats the recording. */
    bool
    step() override
    {
        if (!ready_)
            return false;
        if (replica_ == 0) {
            if (!drawOne())
                replica_ = 1;
        } else {
            repeatOne();
        }
        env_.spans.setEnabled(env_.trace);
        return replica_ < replicas_;
    }

    void finish() override;

  private:
    struct Planned
    {
        EditKey key;
        bool traced = false;
        /** The daemon served the swap from its store. */
        bool storeHit = false;
        /** Fastest latency over the replicas; negative once failed. */
        double ms = -1;
        /** Every replica's latency. */
        std::vector<double> samples;
    };

    svc::SwapRequest
    request(const EditKey &key, const Session &ses) const
    {
        const ir::Graph &g = graphs_.at(key);
        svc::SwapRequest req;
        req.opts = requestOptions(env_, compileSeed_);
        req.baseBuild = ses.apps[key.app].buildId;
        req.opName = g.ops[key.op].fn.name;
        req.graphText = svc::encodeGraphText(g);
        return req;
    }

    /**
     * Draw and apply the next edit on the first replica; false, with no
     * edit made, once enough were drawn. Edits go round by round, each
     * round over the apps in a seeded order. In a traced focal run
     * whole rounds alternate between traced and untraced, so both sets
     * see the same mix of apps.
     */
    bool
    drawOne()
    {
        Session &first = sessions_[0];
        if (tEnd_ == 0)
            tEnd_ = nowSec() + scale_.seconds;
        for (;;) {
            if (drawPos_ == order_.size()) {
                const size_t min_edits =
                    scale_.focal ? kFocalMinEdits : kSliceEdits;
                // Traced and untraced rounds stay equal in number.
                if (plan_.size() >= min_edits &&
                    (!scale_.focal || nowSec() >= tEnd_) &&
                    (!alternate_ || rounds_ % 2 == 0))
                    return false;
                order_.resize(env_.apps.size());
                for (size_t i = 0; i < order_.size(); ++i)
                    order_[i] = static_cast<int>(i);
                for (size_t i = order_.size(); i > 1; --i)
                    std::swap(order_[i - 1], order_[rng_.below(i)]);
                drawPos_ = 0;
                ++rounds_;
            }
            const int ai = order_[drawPos_++];
            LiveApp &app = first.apps[ai];
            if (app.victims.empty() ||
                (!scale_.focal && env_.apps[ai].name == kSliceSkippedApp))
                continue;
            const bool traced = alternate_ ? rounds_ % 2 == 0 : env_.trace;
            env_.spans.setEnabled(traced);
            EditKey key;
            key.app = ai;
            key.op = app.victims[rng_.below(app.victims.size())];
            std::vector<int> &versions = app.sent[key.op];
            if (!versions.empty() && rng_.unit() < kRevisitShare) {
                key.version = versions[rng_.below(versions.size())];
            } else {
                key.version = static_cast<int>(versions.size()) + 1;
                versions.push_back(key.version);
            }
            if (!graphs_.count(key))
                graphs_.emplace(key, editedGraph(env_.apps[ai].graph, key.op,
                                                 key.version));
            env_.spans.setGroup(++edits_);
            svc::CompileResponse resp;
            sys::SwapResult sr;
            Planned p;
            p.key = key;
            p.traced = traced;
            const svc::ServiceStats &st = first.daemon->service.stats();
            const uint64_t hits = st.storeHits.load();
            p.ms = applyEdit(env_, first, ai, graphs_.at(key), key.op,
                             request(key, first), &resp, &sr);
            p.storeHit = st.storeHits.load() > hits;
            p.samples.push_back(p.ms);
            plan_.push_back(p);
            if (p.ms < 0)
                return true;
            if (traced) {
                swapCycles_.push_back(static_cast<double>(sr.cycles));
                auto s = env_.spans.span("svc.ping");
                env_.check(first.daemon->client.ping(edits_), "edit: ping");
            }
            if (sent_.size() < kReplayEdits)
                sent_.push_back(SentEdit{key, resp.key, resp.blob});
            return true;
        }
    }

    /** Repeat the next recorded edit on the current later replica. */
    void
    repeatOne()
    {
        while (repeatPos_ < plan_.size() && plan_[repeatPos_].ms < 0)
            ++repeatPos_;
        if (repeatPos_ < plan_.size()) {
            Planned &p = plan_[repeatPos_++];
            Session &ses = sessions_[replica_];
            env_.spans.setEnabled(p.traced);
            env_.spans.setGroup(++edits_);
            svc::CompileResponse resp;
            sys::SwapResult sr;
            double ms = applyEdit(env_, ses, p.key.app, graphs_.at(p.key),
                                  p.key.op, request(p.key, ses), &resp, &sr);
            p.ms = ms < 0 ? -1 : std::min(p.ms, ms);
            p.samples.push_back(ms);
        }
        if (repeatPos_ >= plan_.size()) {
            ++replica_;
            repeatPos_ = 0;
        }
    }

    Env &env_;
    const PhaseScale scale_;
    Rng rng_;
    const uint64_t compileSeed_;
    const int replicas_;
    const bool alternate_;
    bool ready_ = true;
    std::vector<Session> sessions_;
    uint64_t submitted0_ = 0, hits0_ = 0;
    std::vector<Planned> plan_;
    std::vector<SentEdit> sent_;
    std::map<EditKey, ir::Graph> graphs_;
    std::vector<double> swapCycles_;
    uint64_t edits_ = 0;
    /** Replica taking the next step; 0 while edits are drawn. */
    int replica_ = 0;
    double tEnd_ = 0;
    /** Rounds started, this round's app order and the next app in it. */
    int rounds_ = 0;
    std::vector<int> order_;
    size_t drawPos_ = 0;
    /** Next recorded edit the current later replica repeats. */
    size_t repeatPos_ = 0;
};

void
EditPhase::finish()
{
    std::vector<double> best, pooled, plain, traced, hit, miss;
    for (const Planned &p : plan_) {
        if (p.ms < 0)
            continue;
        best.push_back(p.ms);
        pooled.insert(pooled.end(), p.samples.begin(), p.samples.end());
        (p.traced ? traced : plain).push_back(p.ms);
        (p.storeHit ? hit : miss).push_back(p.ms);
    }
    env_.setE2e("edit_latency_p50_ms", percentile(best, 50), "ms");
    env_.setE2e("edit_latency_p90_ms", percentile(pooled, 90), "ms");
    if (!ready_ || !env_.trace)
        return;
    env_.check(!hit.empty() && !miss.empty(),
               "edit: both store paths taken");
    env_.setLayer("edit.store_hit_latency_ms", median(hit), "ms");
    env_.setLayer("edit.store_miss_latency_ms", median(miss), "ms");
    const svc::ServiceStats &st = sessions_[0].daemon->service.stats();
    const uint64_t submitted = st.submitted.load() - submitted0_;
    env_.setLayer("svc.store_hit_ratio",
                  submitted ? double(st.storeHits.load() - hits0_) /
                                  double(submitted)
                            : 0.0,
                  "ratio");
    if (alternate_ && !plain.empty() && !traced.empty())
        env_.setLayer("trace_overhead_pct",
                      (median(traced) / median(plain) - 1) * 100, "%");

    replayLayers(env_, env_.outDir + "/edit0", compileSeed_, sent_, graphs_);

    auto stats = env_.spans.summarize();
    auto p50 = [&](const char *name, double scale_to) {
        auto it = stats.find(name);
        return it == stats.end() ? 0.0
                                 : median(it->second.seconds) * scale_to;
    };
    env_.setLayer("svc.swap_rpc_ms", p50("svc.swap_rpc", 1e3), "ms");
    env_.setLayer("svc.ping_us", p50("svc.ping", 1e6), "us");
    env_.setLayer("svc.store_put_ms", p50("svc.store_put", 1e3), "ms");
    env_.setLayer("svc.store_get_ms", p50("svc.store_get", 1e3), "ms");
    env_.setLayer("pld.swap_artifact_ms", p50("pld.swap_artifact", 1e3),
                  "ms");
    env_.setLayer("svc.overhead_ms",
                  p50("svc.swap_rpc", 1e3) - p50("pld.swap_artifact", 1e3),
                  "ms");
    env_.setLayer("rvgen.compile_ms", p50("rvgen.compile", 1e3), "ms");
    if (auto it = stats.find("edit"); it != stats.end())
        env_.setLayer("bench.edit_self_ms",
                      it->second.selfSeconds /
                          double(it->second.seconds.size()) * 1e3,
                      "ms");
    if (auto it = stats.find("sys.swap_page");
        it != stats.end() && !swapCycles_.empty()) {
        double cycles = 0;
        for (double c : swapCycles_)
            cycles += c;
        // Every traced swap of every replica over the first replica's
        // cycles, scaled by the replica count.
        env_.setLayer("sys.swap_ns_per_cycle",
                      it->second.totalSeconds * 1e9 /
                          (cycles * double(replicas_)),
                      "ns");
        env_.setLayer("sys.swap_cycles", median(swapCycles_), "cycles");
    }
}

} // namespace

std::unique_ptr<Phase>
makeEditPhase(Env &env, const PhaseScale &scale)
{
    return std::make_unique<EditPhase>(env, scale);
}

} // namespace perfbench
