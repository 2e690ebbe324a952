/**
 * @file
 * The sim phase: replay of Table 3 / Fig 10 designs on SystemSim.
 *
 * Set-up builds, per app, the all-HW -O1 design, the all-softcore
 * design (-O0 mapping, default -Os tier), one mixed design with a
 * seeded single softcore victim (Fig 10's debug configuration) and
 * the -O3 direct-link design. Each round runs one re-armed batch of
 * every design on its own SystemSim and checks every output word.
 * The NoC, interpreter and ISS do all the work; the direct-link
 * designs use no NoC.
 *
 * The traced run also re-drives the interpreter (GraphRuntime) on
 * each app and the bare ISS on each app's source-operator image, and
 * checks their output words against the golden model and against
 * the interpreter.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "bench.h"
#include "dataflow/runtime.h"
#include "dataflow/stream.h"
#include "interp/exec.h"
#include "pld/compiler.h"
#include "rv32/iss.h"
#include "rvgen/codegen.h"
#include "sys/system.h"

namespace perfbench {

namespace {

using namespace pld;

constexpr uint64_t kMaxCycles = 20000000000ull;
constexpr double kEffort = 1.0;

enum Cat { kHw, kSoftcore, kDirect, kNumCats };
const char *const kCatName[kNumCats] = {"hw", "softcore", "direct"};

/** Rounds at least (the best batch of each design is kept). */
constexpr int kFocalRounds = 3;
/** Rounds of the slice. */
constexpr int kSliceRounds = 10;
/**
 * Within a round a design reruns until its batches have taken this
 * long (at most kMaxBatches): the fastest of many short batches spread
 * over the run is steady on this host where the fastest of three is
 * not.
 */
constexpr double kRoundFloorSec = 0.05;
constexpr int kMaxBatches = 5;
/** After its first round the slice keeps designs up to this long. */
constexpr uint64_t kSliceMaxCycles = 150000;
/**
 * Apps whose all-softcore design takes 4-9 s per batch here. Three
 * rounds of each would triple a run, so they are left out; the other
 * four all-softcore designs and every mixed design still time the ISS.
 */
const std::set<std::string> kSlowSoftcoreApps = {"3D Rendering",
                                                 "Binary NN"};
/** The slice also leaves out this app, whose every design is long. */
const char *const kSliceSkippedApp = "Binary NN";

struct Design
{
    Cat cat = kHw;
    bool allSoftcore = false;
    size_t app = 0;
    std::string label;
    ir::Graph graph;
    std::vector<sys::PageBinding> bindings;
    sys::SystemConfig cfg;
};

/** Copy of @p g with every operator's pragma set to HW, except
 * @p victim (if >= 0), which goes to the softcore. */
ir::Graph
retarget(const ir::Graph &g, int victim)
{
    ir::Graph out = g;
    for (size_t i = 0; i < out.ops.size(); ++i)
        out.ops[i].fn.pragma.target = static_cast<int>(i) == victim
                                          ? ir::Target::RISCV
                                          : ir::Target::HW;
    return out;
}

bool
runBatch(Env &env, sys::SystemSim &sim, const rosetta::Benchmark &bm,
         sys::RunStats *rs, double *seconds)
{
    sim.loadInput(0, bm.input);
    double t0 = nowSec();
    {
        auto s = env.spans.span("sys.run");
        *rs = sim.run(kMaxCycles);
    }
    *seconds = nowSec() - t0;
    auto s = env.spans.span("verify");
    return rs->completed && sim.takeOutput(0) == bm.expected;
}

/** Index of the first op whose inputs all come from external
 * inputs, or -1. */
int
sourceOp(const ir::Graph &g)
{
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const ir::OperatorFn &fn = g.ops[oi].fn;
        bool all_ext = true, any_in = false;
        for (size_t p = 0; p < fn.ports.size(); ++p) {
            if (fn.ports[p].dir != ir::PortDir::In)
                continue;
            any_in = true;
            int li = g.linkInto(ir::Endpoint{static_cast<int>(oi),
                                             static_cast<int>(p)});
            all_ext = all_ext && li >= 0 && g.links[li].src.isExternal();
        }
        if (any_in && all_ext)
            return static_cast<int>(oi);
    }
    return -1;
}

/** Build every design. @p source_images gets, per app, the
 * all-softcore build's image of the source operator. */
void
buildDesigns(Env &env, Rng &rng, const flow::CompileOptions &co,
             std::vector<Design> &designs,
             std::vector<rv32::PldElf> &source_images)
{
    designs.clear();
    source_images.assign(env.apps.size(), rv32::PldElf{});
    flow::PldCompiler pc(env.dev, co);
    for (size_t ai = 0; ai < env.apps.size(); ++ai) {
        const rosetta::Benchmark &bm = env.apps[ai];
        const int victim = static_cast<int>(rng.below(bm.graph.ops.size()));
        auto add = [&](Cat cat, std::string label, ir::Graph g,
                       flow::OptLevel level) {
            Design d;
            d.cat = cat;
            d.app = ai;
            d.label = bm.name + " " + label;
            d.graph = std::move(g);
            flow::AppBuild b = pc.build(d.graph, level);
            env.check(b.report.failedCount() == 0,
                      "sim: build " + d.label + ": " + b.report.render());
            d.bindings = std::move(b.bindings);
            d.cfg = b.sysCfg;
            d.allSoftcore = level == flow::OptLevel::O0;
            const int src = sourceOp(d.graph);
            if (d.allSoftcore && src >= 0)
                source_images[ai] = d.bindings[src].elf;
            designs.push_back(std::move(d));
        };
        ir::Graph hw = retarget(bm.graph, -1);
        add(kHw, "all-HW -O1", hw, flow::OptLevel::O1);
        add(kSoftcore, "all-softcore", bm.graph, flow::OptLevel::O0);
        add(kSoftcore,
            "mixed (" + bm.graph.ops[victim].instName + " on softcore)",
            retarget(bm.graph, victim), flow::OptLevel::O1);
        add(kDirect, "-O3 direct", std::move(hw), flow::OptLevel::O3);
    }
    const flow::CacheStats &cs = pc.cacheStats();
    env.cacheHits += cs.hits.load();
    env.cacheLookups += cs.hits.load() + cs.misses.load();
}

/** Bare FIFO ports for a single operator: inputs preloaded from the
 * app's external input 0, outputs unbounded. */
struct SingleOpPorts
{
    std::vector<std::unique_ptr<dataflow::WordFifo>> fifos;
    std::vector<std::unique_ptr<dataflow::StreamPort>> store;
    std::vector<dataflow::StreamPort *> ports;

    SingleOpPorts(const ir::OperatorFn &fn,
                  const std::vector<uint32_t> &input)
    {
        for (const ir::Port &p : fn.ports) {
            fifos.push_back(std::make_unique<dataflow::WordFifo>(0));
            dataflow::WordFifo &f = *fifos.back();
            if (p.dir == ir::PortDir::In) {
                for (uint32_t w : input)
                    f.push(w);
                store.push_back(std::make_unique<dataflow::FifoReadPort>(f));
            } else {
                store.push_back(
                    std::make_unique<dataflow::FifoWritePort>(f));
            }
            ports.push_back(store.back().get());
        }
    }

    std::vector<std::vector<uint32_t>>
    drainOutputs(const ir::OperatorFn &fn)
    {
        std::vector<std::vector<uint32_t>> out;
        for (size_t p = 0; p < fn.ports.size(); ++p) {
            if (fn.ports[p].dir == ir::PortDir::In)
                continue;
            std::vector<uint32_t> words;
            while (fifos[p]->canPop())
                words.push_back(fifos[p]->pop());
            out.push_back(std::move(words));
        }
        return out;
    }
};

/** Interpreter and bare-ISS replays (traced run only). */
void
replayLayers(Env &env, const std::vector<rv32::PldElf> &source_images)
{
    uint64_t stmts = 0, instret = 0;
    double interpSec = 0, issSec = 0;
    for (size_t ai = 0; ai < env.apps.size(); ++ai) {
        const rosetta::Benchmark &bm = env.apps[ai];
        env.spans.setGroup(1000000 + ai);
        dataflow::GraphRuntime rt(bm.graph);
        rt.pushInput(0, bm.input);
        double t0 = nowSec();
        bool ran;
        {
            auto s = env.spans.span("interp.run");
            ran = rt.run();
        }
        interpSec += nowSec() - t0;
        stmts += rt.totalStatements();
        env.check(ran && rt.takeOutput(0) == bm.expected,
                  "interp replay: " + bm.name + " output differs");

        // The source operator's -Os image from the all-softcore build.
        const int src = sourceOp(bm.graph);
        const rv32::PldElf &elf = source_images[ai];
        if (!env.check(src >= 0 && !elf.text.empty(),
                       "iss replay: " + bm.name +
                           " has no source-operator image"))
            continue;
        const ir::OperatorFn &fn = bm.graph.ops[src].fn;
        rvgen::RvOptions ro;
        ro.tier = rvgen::Tier::Os;
        rv32::PldElf fresh;
        {
            auto s = env.spans.span("rvgen.source_compile");
            fresh = rvgen::compileToRiscv(fn, ro).elf;
        }
        fresh.pageNum = elf.pageNum;
        env.check(fresh.pack() == elf.pack(),
                  "rvgen replay: image of " + fn.name + " differs");

        SingleOpPorts issPorts(fn, bm.input);
        rv32::Core core(elf, issPorts.ports);
        t0 = nowSec();
        rv32::CoreStatus st;
        {
            auto s = env.spans.span("rv32.step");
            st = core.step(~0ull);
        }
        issSec += nowSec() - t0;
        instret += core.instret();

        SingleOpPorts refPorts(fn, bm.input);
        interp::OperatorExec ref(fn, refPorts.ports);
        bool refDone = ref.run() == interp::RunStatus::Done;
        env.check(st == rv32::CoreStatus::Halted && refDone &&
                      issPorts.drainOutputs(fn) == refPorts.drainOutputs(fn),
                  "iss replay: " + fn.name + " of " + bm.name +
                      " differs from the interpreter");
    }
    env.counter("interp.statements", stmts, "count");
    env.counter("rv32.instret", instret, "count");
    if (interpSec > 0)
        env.setLayer("interp.mstmts_per_s", double(stmts) / interpSec / 1e6,
                     "M/s");
    if (issSec > 0)
        env.setLayer("rv32.minstr_per_s", double(instret) / issSec / 1e6,
                     "M/s");
}

/**
 * Each round runs re-armed batches of every active design on its own
 * long-lived SystemSim. A design's host time is its fastest ns per
 * cycle over the rounds times its cycles: this host's CPU speed
 * changes by up to 2x for seconds at a time, and the best of identical
 * batches spread over the run is steady where one batch is not. In a
 * traced focal run the rounds alternate between traced and untraced.
 */
class SimPhase : public Phase
{
  public:
    SimPhase(Env &env, const PhaseScale &scale)
        : env_(env), scale_(scale), alternate_(env.trace && scale.focal)
    {
    }

    void
    setUp() override
    {
        // Placement does not change simulated cycles, so the compile
        // seed stays fixed; the seed draws the mixed designs' victims.
        flow::CompileOptions co;
        co.effort = kEffort;
        co.parallelJobs = env_.jobs;
        co.pnrThreads = 1;
        for (int rep = 0; rep < scale_.setups; ++rep) {
            Rng rng(scale_.seed ^ 0x73696d75ull);
            double t0 = nowSec();
            buildDesigns(env_, rng, co, designs_, sourceImages_);
            if (scale_.focal)
                env_.setupSec.push_back(nowSec() - t0);
        }
        for (size_t di = 0; di < designs_.size(); ++di) {
            const Design &d = designs_[di];
            const std::string &app = env_.apps[d.app].name;
            if ((!d.allSoftcore || !kSlowSoftcoreApps.count(app)) &&
                (scale_.focal || app != kSliceSkippedApp))
                active_.push_back(di);
        }
        sims_.resize(designs_.size());
        batchCycles_.assign(designs_.size(), 0);
        for (auto &b : bestNs_)
            b.assign(designs_.size(), 1e300);
    }

    /** One design's batches; a round is one step per active design. */
    bool
    step() override
    {
        if (rounds_ == 0 && pos_ == 0)
            tEnd_ = nowSec() + scale_.seconds;
        runDesign(active_[pos_]);
        env_.spans.setEnabled(env_.trace);
        if (++pos_ < active_.size())
            return true;
        pos_ = 0;
        if (rounds_++ == 0)
            endFirstRound();
        if (!scale_.focal)
            return rounds_ < kSliceRounds;
        // Traced and untraced rounds stay equal in number.
        return rounds_ < kFocalRounds || nowSec() < tEnd_ ||
               (alternate_ && rounds_ % 2 == 1);
    }

    void finish() override;

  private:
    void runDesign(size_t di);
    void endFirstRound();

    Env &env_;
    const PhaseScale scale_;
    const bool alternate_;
    std::vector<Design> designs_;
    std::vector<rv32::PldElf> sourceImages_;
    std::vector<size_t> active_;
    std::vector<std::unique_ptr<sys::SystemSim>> sims_;
    std::vector<uint64_t> batchCycles_;
    /** Fastest ns per simulated cycle by [traced][design]. */
    std::vector<double> bestNs_[2];
    double tEnd_ = 0;
    int rounds_ = 0;
    /** Next design of the round, as an index into active_. */
    size_t pos_ = 0;
    /** Work of the first round's first batches. */
    uint64_t firstCycles_[kNumCats] = {};
    uint64_t delivered_ = 0, deflections_ = 0, nocCycles_ = 0;
};

void
SimPhase::runDesign(size_t di)
{
    const bool traced = alternate_ ? rounds_ % 2 == 1 : env_.trace;
    env_.spans.setEnabled(traced);
    const Design &d = designs_[di];
    const rosetta::Benchmark &bm = env_.apps[d.app];
    if (!sims_[di])
        sims_[di] = std::make_unique<sys::SystemSim>(d.graph, d.bindings,
                                                     d.cfg);
    env_.spans.setGroup(rounds_ * designs_.size() + di);
    double spent = 0;
    for (int batch = 0;
         batch == 0 || (spent < kRoundFloorSec && batch < kMaxBatches);
         ++batch) {
        sys::RunStats rs;
        double sec = 0;
        env_.check(runBatch(env_, *sims_[di], bm, &rs, &sec),
                   "sim: run of " + d.label);
        spent += sec;
        double &best = bestNs_[alternate_ && traced][di];
        best = std::min(best, sec * 1e9 / double(std::max<uint64_t>(
                                              rs.cycles, 1)));
        if (batch > 0 || rounds_ > 0)
            continue;
        batchCycles_[di] = rs.cycles;
        firstCycles_[d.cat] += rs.cycles;
        if (d.cfg.useNoc) {
            delivered_ += rs.noc.delivered;
            deflections_ += rs.noc.deflections;
            nocCycles_ += rs.cycles;
        }
    }
}

void
SimPhase::endFirstRound()
{
    // Work counters come from the first round, which every run makes
    // with every design (later batches of a sim carry state from the
    // one before, so their NoC traffic differs slightly).
    for (int c = 0; c < kNumCats; ++c)
        env_.counter(std::string("sys.cycles.") + kCatName[c],
                     firstCycles_[c], "cycles");
    env_.counter("noc.flits_delivered", delivered_, "count");
    env_.counter("noc.deflections", deflections_, "count");
    if (nocCycles_)
        env_.setLayer("noc.flits_per_cycle",
                      double(delivered_) / double(nocCycles_), "1/cycle");
    if (!scale_.focal) {
        // The slice keeps only the short designs after checking every
        // one once, and the shortest of each category so every rate is
        // measured; the cut depends on cycles alone.
        size_t shortest[kNumCats];
        std::fill(shortest, shortest + kNumCats, designs_.size());
        for (size_t di : active_) {
            size_t &s = shortest[designs_[di].cat];
            if (s == designs_.size() || batchCycles_[di] < batchCycles_[s])
                s = di;
        }
        std::vector<size_t> kept;
        for (size_t di : active_)
            if (batchCycles_[di] <= kSliceMaxCycles ||
                di == shortest[designs_[di].cat])
                kept.push_back(di);
        active_ = std::move(kept);
    }
}

void
SimPhase::finish()
{
    double cycles[kNumCats] = {}, seconds[kNumCats] = {};
    double tracedSec = 0, plainSec = 0;
    for (size_t di : active_) {
        const Cat c = designs_[di].cat;
        const double cyc = double(batchCycles_[di]);
        // The designs each rate covers, with their best batch.
        std::fprintf(stderr, "sim %-48s %10.0f cycles %9.2f ms best\n",
                     designs_[di].label.c_str(), cyc,
                     bestNs_[0][di] * 1e-6 * cyc);
        cycles[c] += cyc;
        seconds[c] += bestNs_[0][di] * 1e-9 * cyc;
        plainSec += bestNs_[0][di] * 1e-9 * cyc;
        tracedSec += bestNs_[1][di] * 1e-9 * cyc;
    }
    for (int c = 0; c < kNumCats; ++c)
        env_.check(cycles[c] > 0 && seconds[c] > 0,
                   std::string("sim: no timed ") + kCatName[c] + " design");
    auto rate = [&](Cat c) {
        return seconds[c] > 0 ? cycles[c] / seconds[c] / 1e6 : 0.0;
    };
    env_.setE2e("sim_hw_mcycles_per_s", rate(kHw), "Mcycles/s");
    env_.setE2e("sim_softcore_mcycles_per_s", rate(kSoftcore), "Mcycles/s");
    env_.setE2e("sim_direct_mcycles_per_s", rate(kDirect), "Mcycles/s");
    if (alternate_ && plainSec > 0)
        env_.setLayer("trace_overhead_pct", (tracedSec / plainSec - 1) * 100,
                      "%");
    if (env_.trace)
        replayLayers(env_, sourceImages_);
}

} // namespace

std::unique_ptr<Phase>
makeSimPhase(Env &env, const PhaseScale &scale)
{
    return std::make_unique<SimPhase>(env, scale);
}

} // namespace perfbench
