#include "svc/service.h"

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/trace.h"

namespace pld {
namespace svc {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Mix the key-relevant request options (everything but
 * parallelJobs and traceFile — see the header). */
void
hashKeyOptions(Hasher &h, const RequestOptions &o)
{
    h.u64(o.level);
    h.u64(o.seed);
    uint64_t effort_bits = 0;
    static_assert(sizeof(effort_bits) == sizeof(o.effort), "f64");
    std::memcpy(&effort_bits, &o.effort, sizeof(effort_bits));
    h.u64(effort_bits);
    h.u64(o.softcoreTier);
    h.str(o.faultSpec);
}

} // namespace

// ---- Admission ---------------------------------------------------

bool
Admission::acquire()
{
    std::unique_lock<std::mutex> lk(mtx);
    if (executing_ < maxExecuting) {
        ++executing_;
        return true;
    }
    if (queued_ >= maxQueued)
        return false;
    ++queued_;
    obs::gauge("svc.queue.depth", queued_);
    cv.wait(lk, [&] { return executing_ < maxExecuting; });
    --queued_;
    obs::gauge("svc.queue.depth", queued_);
    ++executing_;
    return true;
}

void
Admission::release()
{
    std::lock_guard<std::mutex> lk(mtx);
    --executing_;
    cv.notify_one();
}

int
Admission::executing() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return executing_;
}

int
Admission::queued() const
{
    std::lock_guard<std::mutex> lk(mtx);
    return queued_;
}

// ---- CompileService ----------------------------------------------

CompileService::CompileService(const fabric::Device &dev,
                               ServiceConfig cfg)
    : dev_(dev), cfg_(std::move(cfg)),
      store_(cfg_.storeDir, cfg_.storeBudgetBytes, cfg_.vfs),
      admission_(cfg_.maxExecuting, cfg_.maxQueued)
{
}

uint64_t
CompileService::requestKey(const CompileRequest &req)
{
    Hasher h;
    h.str("pld.svc.compile");
    hashKeyOptions(h, req.opts);
    h.str(req.graphText);
    return h.digest();
}

uint64_t
CompileService::swapKey(const SwapRequest &req)
{
    Hasher h;
    h.str("pld.svc.swap");
    hashKeyOptions(h, req.opts);
    h.u64(req.baseBuild);
    h.str(req.opName);
    h.str(req.graphText);
    return h.digest();
}

void
CompileService::setExecuteHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lk(hookMtx_);
    executeHook_ = std::move(hook);
}

flow::PldCompiler &
CompileService::compilerFor(const RequestOptions &opts)
{
    // Constructor-time knobs only: per-request effort rides through
    // build()'s effort_override, but buildSwapArtifact reads the
    // configured effort, so effort is part of the pool key too.
    Hasher h;
    h.u64(opts.seed);
    h.u64(opts.parallelJobs);
    h.u64(opts.softcoreTier);
    uint64_t effort_bits = 0;
    std::memcpy(&effort_bits, &opts.effort, sizeof(effort_bits));
    h.u64(effort_bits);
    h.str(opts.faultSpec);
    uint64_t key = h.digest();

    std::lock_guard<std::mutex> lk(compilersMtx_);
    auto it = compilers_.find(key);
    if (it != compilers_.end())
        return *it->second;

    flow::CompileOptions co;
    co.effort = opts.effort > 0 ? opts.effort : 1.0;
    co.parallelJobs = opts.parallelJobs;
    co.seed = opts.seed;
    co.softcoreTier = static_cast<rvgen::Tier>(opts.softcoreTier);
    co.keepOldVersions = false;
    if (!opts.faultSpec.empty())
        co.faults = FaultPlan::parse(opts.faultSpec); // throws on bad
    auto pc = std::make_unique<flow::PldCompiler>(dev_, co);
    auto &ref = *pc;
    compilers_.emplace(key, std::move(pc));
    return ref;
}

CompileService::BackendCache
CompileService::backendCache()
{
    std::lock_guard<std::mutex> lk(compilersMtx_);
    BackendCache c;
    for (const auto &[key, pc] : compilers_) {
        c.held += pc->cachedArtifacts();
        c.compiles += pc->cacheStats().compiles.load();
    }
    return c;
}

void
CompileService::registerBuild(uint64_t key,
                              const std::vector<uint8_t> &blob)
{
    {
        std::lock_guard<std::mutex> lk(buildsMtx_);
        if (builds_.count(key))
            return;
    }
    // Decode outside the lock; a corrupt blob cannot reach here (the
    // store checksums entries, the backend just encoded it), but the
    // decoder still validates rather than trusting.
    auto skeleton = std::make_shared<flow::AppBuild>(
        BuildArtifact::decode(blob).toSkeletonAppBuild());
    std::lock_guard<std::mutex> lk(buildsMtx_);
    builds_.emplace(key, std::move(skeleton));
}

std::shared_ptr<const flow::AppBuild>
CompileService::findBuild(uint64_t id) const
{
    std::lock_guard<std::mutex> lk(buildsMtx_);
    auto it = builds_.find(id);
    return it == builds_.end() ? nullptr : it->second;
}

bool
CompileService::hasBuild(uint64_t id) const
{
    return findBuild(id) != nullptr;
}

CompileResponse
CompileService::serve(uint64_t key, const RequestOptions &opts,
                      const std::function<ServiceResult()> &execute)
{
    ++stats_.submitted;
    const auto t0 = std::chrono::steady_clock::now();
    {
        std::shared_lock<std::shared_mutex> lk(traceMtx_);
        obs::count("svc.request.submitted");
    }

    auto respond = [&](const ServiceResult &res, bool store_hit,
                       bool coalesced) {
        CompileResponse r;
        r.status = res.status;
        r.key = key;
        r.storeHit = store_hit;
        r.coalesced = coalesced;
        r.seconds = secondsSince(t0);
        r.diags = res.diags;
        r.blob = res.blob;
        obs::record("svc.request.seconds", r.seconds);
        return r;
    };

    // Coalesce first — and wait OUTSIDE the trace lock, so a traced
    // claimant (which needs the lock exclusively) can always finish
    // and wake its joiners. A claim that is never published (an
    // exception, a dead handler) wakes one joiner to re-claim.
    auto flight = inflight_.acquire(key);
    if (const auto &shared = flight.value()) {
        ++stats_.coalesced;
        std::shared_lock<std::shared_mutex> lk(traceMtx_);
        obs::count("svc.request.coalesced");
        return respond(*shared, false, true);
    }
    if (flight.waited()) {
        // The claimant died mid-compile; this request re-claimed.
        ++stats_.reclaimed;
    }

    auto claimant = [&]() -> CompileResponse {
        if (auto blob = store_.get(key)) {
            ++stats_.storeHits;
            auto res = std::make_shared<ServiceResult>();
            res->blob = std::move(*blob);
            flight.publish(res);
            return respond(*res, true, false);
        }

        if (!admission_.acquire()) {
            ++stats_.rejected;
            obs::count("svc.request.rejected");
            auto res = std::make_shared<ServiceResult>();
            res->status = RespStatus::Rejected;
            Diagnostic d;
            d.code = CompileCode::AdmissionRejected;
            d.stage = CompileStage::Tenancy;
            d.severity = DiagSeverity::Error;
            d.retriable = true;
            std::ostringstream os;
            os << "compile service admission queue full ("
               << cfg_.maxExecuting << " executing, "
               << cfg_.maxQueued << " queued); resubmit later";
            d.detail = os.str();
            res->diags.add(d);
            // Joiners share the rejection: they added no load, but
            // the request they joined was refused.
            flight.publish(res);
            return respond(*res, false, false);
        }
        struct Release
        {
            Admission &a;
            ~Release() { a.release(); }
        } release{admission_};

        std::function<void()> hook;
        {
            std::lock_guard<std::mutex> lk(hookMtx_);
            hook = executeHook_;
        }
        if (hook)
            hook();

        auto res = std::make_shared<ServiceResult>();
        try {
            *res = execute();
        } catch (const CompileError &e) {
            res->status = RespStatus::Failed;
            res->diags.add(e.diag());
        }
        ++stats_.storeMisses;
        obs::count("svc.request.compiled");
        if (res->status == RespStatus::Ok) {
            // A failed put is survivable: the result is still
            // published from memory (this response and all coalesced
            // joiners are correct), only warm-restart reuse is lost.
            if (!store_.put(key, res->blob))
                pld_warn("svc: artifact %016llx not durably stored; "
                         "serving from memory%s",
                         static_cast<unsigned long long>(key),
                         store_.degraded() ? " (store degraded)"
                                           : "");
        } else {
            ++stats_.failed;
            obs::count("svc.request.failed");
        }
        flight.publish(res);
        return respond(*res, false, false);
    };

    if (!opts.traceFile.empty()) {
        // Tracer::install demands quiescence: exclude every other
        // request for the traced one's duration.
        std::unique_lock<std::shared_mutex> lk(traceMtx_);
        obs::ScopedTracer st;
        CompileResponse resp = claimant();
        std::ofstream f(opts.traceFile, std::ios::trunc);
        if (f)
            st.tracer().writeChromeTrace(f);
        else
            pld_warn("svc: cannot write trace file %s",
                     opts.traceFile.c_str());
        return resp;
    }
    std::shared_lock<std::shared_mutex> lk(traceMtx_);
    return claimant();
}

CompileResponse
CompileService::compile(const CompileRequest &req)
{
    uint64_t key = requestKey(req);
    auto execute = [&]() -> ServiceResult {
        if (req.opts.level >
            static_cast<uint8_t>(flow::OptLevel::Vitis)) {
            Diagnostic d;
            d.code = CompileCode::CompileException;
            d.stage = CompileStage::Link;
            d.severity = DiagSeverity::Error;
            d.detail = "unknown opt level " +
                       std::to_string(int(req.opts.level));
            throw CompileError(d);
        }
        ir::Graph g = decodeGraphText(req.graphText);
        flow::PldCompiler &pc = compilerFor(req.opts);
        flow::AppBuild b =
            pc.build(g, static_cast<flow::OptLevel>(req.opts.level),
                     req.opts.effort);
        ServiceResult r;
        r.diags.merge(b.report.buildStatus);
        for (const auto &op : b.report.ops)
            if (op.failed || op.degraded)
                r.diags.merge(op.status);
        if (b.report.failedCount() > 0 ||
            !b.report.buildStatus.ok())
            r.status = RespStatus::Failed;
        else
            r.blob = BuildArtifact::fromAppBuild(b).encode();
        return r;
    };
    CompileResponse resp = serve(key, req.opts, execute);
    resp.msgType = static_cast<uint8_t>(MsgType::CompileResp);
    if (resp.status == RespStatus::Ok && !resp.blob.empty())
        registerBuild(key, resp.blob);
    return resp;
}

CompileResponse
CompileService::swap(const SwapRequest &req)
{
    uint64_t key = swapKey(req);
    auto execute = [&]() -> ServiceResult {
        auto fail = [&](CompileCode code, const std::string &why) {
            ServiceResult r;
            r.status = RespStatus::Failed;
            Diagnostic d;
            d.code = code;
            d.stage = CompileStage::Swap;
            d.severity = DiagSeverity::Error;
            d.op = req.opName;
            d.detail = why;
            r.diags.add(d);
            return r;
        };

        auto base = findBuild(req.baseBuild);
        if (!base)
            return fail(CompileCode::SwapRejected,
                        "unknown base build; compile the app "
                        "through this daemon first");

        ir::Graph g = decodeGraphText(req.graphText);
        // Pre-validate everything buildSwapArtifact asserts on — a
        // daemon answers bad requests with diagnostics, it does not
        // abort.
        bool has_op = false;
        for (const auto &op : g.ops)
            has_op = has_op || op.fn.name == req.opName;
        if (!has_op)
            return fail(CompileCode::SwapRejected,
                        "edited graph has no operator named " +
                            req.opName);
        if (base->bindings.size() != g.ops.size())
            return fail(CompileCode::SwapRejected,
                        "edited graph shape does not match the base "
                        "build (hot swap may not add or remove "
                        "operators)");
        if (!base->sysCfg.useNoc)
            return fail(CompileCode::SwapRejected,
                        "base build is monolithic; only paged builds "
                        "hot-swap");

        flow::PldCompiler &pc = compilerFor(req.opts);
        flow::SwapArtifact sa =
            pc.buildSwapArtifact(g, req.opName, *base);
        ServiceResult r;
        r.diags.merge(sa.outcome.status);
        if (sa.outcome.failed) {
            r.status = RespStatus::Failed;
            return r;
        }
        SwapBlob sb;
        sb.op = sa.op;
        sb.fnChanged = sa.fnChanged;
        sb.binding = sa.binding;
        r.blob = sb.encode();
        return r;
    };
    CompileResponse resp = serve(key, req.opts, execute);
    resp.msgType = static_cast<uint8_t>(MsgType::SwapResp);
    return resp;
}

std::string
CompileService::statsText() const
{
    const auto &st = store_.stats();
    std::ostringstream os;
    os << "svc.submitted " << stats_.submitted.load() << "\n"
       << "svc.rejected " << stats_.rejected.load() << "\n"
       << "svc.coalesced " << stats_.coalesced.load() << "\n"
       << "svc.store_hits " << stats_.storeHits.load() << "\n"
       << "svc.store_misses " << stats_.storeMisses.load() << "\n"
       << "svc.failed " << stats_.failed.load() << "\n"
       << "svc.reclaimed " << stats_.reclaimed.load() << "\n"
       << "store.hits " << st.hits.load() << "\n"
       << "store.misses " << st.misses.load() << "\n"
       << "store.puts " << st.puts.load() << "\n"
       << "store.corrupt " << st.corrupt.load() << "\n"
       << "store.evictions " << st.evictions.load() << "\n"
       << "store.oversize " << st.oversize.load() << "\n"
       << "store.io_errors " << st.ioErrors.load() << "\n"
       << "store.quarantined " << st.quarantined.load() << "\n"
       << "store.recency_rebuilt " << st.recencyRebuilt.load()
       << "\n"
       << "store.degraded " << (store_.degraded() ? 1 : 0) << "\n"
       << "store.bytes " << store_.bytesStored() << "\n"
       << "store.entries " << store_.entryCount() << "\n";
    return os.str();
}

} // namespace svc
} // namespace pld
