/**
 * End-to-end hot-swap scenario: the paper's edit→recompile→hot-swap
 * loop under runtime faults. An app is compiled and run; one operator
 * is edited and incrementally recompiled (buildSwapArtifact); the
 * resulting swap package is applied live while config_corrupt and
 * page_hang faults fire — the runtime must retransmit, roll back,
 * and finally quarantine the page onto its softcore fallback, and the
 * post-swap output words must be bit-identical to a fault-free swap
 * of the same artifact. The whole scenario, including the telemetry
 * fingerprint, must be identical across compile thread counts.
 */

#include <gtest/gtest.h>

#include "dataflow/runtime.h"
#include "fabric/device.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "pld/compiler.h"
#include "rosetta/benchmark.h"
#include "sys/system.h"

using namespace pld;
using namespace pld::ir;
using namespace pld::flow;

namespace {

const fabric::Device &
device()
{
    static fabric::Device d = fabric::makeU50();
    return d;
}

OperatorFn
makeScale(const std::string &name, double k, int n)
{
    constexpr Type fx = Type::fx(32, 17);
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    auto x = b.var("x", fx);
    b.forLoop(0, n, [&](Ex) {
        b.set(x, b.read(in).bitcast(fx));
        b.write(out, (Ex(x) * litF(k, fx)).cast(fx));
    });
    return b.finish();
}

Graph
makeApp(double tail_k)
{
    GraphBuilder gb("app");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto mid = gb.wire();
    gb.inst(makeScale("head", 2.0, 8), {in}, {mid});
    gb.inst(makeScale("tail", tail_k, 8), {mid}, {out});
    return gb.finish();
}

std::vector<uint32_t>
batch(int n, uint32_t base)
{
    std::vector<uint32_t> v;
    for (int i = 0; i < n; ++i)
        v.push_back(base + static_cast<uint32_t>(i) * 3u);
    return v;
}

CompileOptions
opts(unsigned jobs)
{
    CompileOptions o;
    o.effort = 0.1;
    o.parallelJobs = jobs;
    return o;
}

/** Golden words for graph @p g on @p in, from the functional model. */
std::vector<uint32_t>
golden(const Graph &g, const std::vector<uint32_t> &in)
{
    dataflow::GraphRuntime rt(g);
    rt.pushInput(0, in);
    EXPECT_TRUE(rt.run());
    return rt.takeOutput(0);
}

struct ScenarioOutcome
{
    sys::SwapResult swap;
    std::vector<uint32_t> words;
    uint64_t countersFp = 0;
};

/**
 * Run the full scenario at one compile parallelism: build, run batch
 * 1, edit "tail", recompile it into a SwapArtifact, hot-swap under
 * config_corrupt + page_hang, run batch 2.
 */
ScenarioOutcome
runScenario(unsigned jobs, const Graph &base_g, const Graph &edit_g)
{
    PldCompiler pc(device(), opts(jobs));
    AppBuild build = pc.build(base_g, OptLevel::O1);
    EXPECT_TRUE(build.report.allOk());

    SwapArtifact sa = pc.buildSwapArtifact(edit_g, "tail", build);
    EXPECT_TRUE(sa.fnChanged);
    EXPECT_TRUE(sa.binding.hasFallback);
    EXPECT_GT(sa.binding.imageBytes, 0u);

    sys::SystemConfig cfg = build.sysCfg;
    // Attempt 0: fault coordinates 0..4 are all corrupt — retransmit
    // exhaustion, rollback. Attempt 1: coordinates 16,17 corrupt then
    // clean — the stream completes, but activation hangs (page_hang
    // coordinate 16 < 32) and the watchdog forces the final rollback
    // and quarantine.
    cfg.faults =
        FaultPlan::parse("config_corrupt:tail*18;page_hang:tail*32");

    ScenarioOutcome so;
    obs::ScopedTracer st;
    sys::SystemSim sim(base_g, build.bindings, cfg);
    sim.loadInput(0, batch(8, 1000));
    EXPECT_TRUE(sim.run().completed);
    sim.takeOutput(0);

    so.swap = sim.swapPage(sa.binding.pageId, sa.binding, &sa.fn);

    sim.loadInput(0, batch(8, 5000));
    EXPECT_TRUE(sim.run().completed);
    so.words = sim.takeOutput(0);
    so.countersFp =
        st.tracer().metrics().snapshot().countersHash();
    return so;
}

} // namespace

TEST(SwapScenario, EditRecompileHotSwapUnderFaults)
{
    Graph base_g = makeApp(0.5);
    Graph edit_g = makeApp(0.25);

    ScenarioOutcome so = runScenario(2, base_g, edit_g);

    // The runtime exercised every recovery layer.
    EXPECT_EQ(so.swap.outcome, sys::SwapOutcome::Quarantined);
    EXPECT_GT(so.swap.retransmits, 0u);
    EXPECT_GT(so.swap.crcErrors, 0u);
    EXPECT_EQ(so.swap.rollbacks, 2);
    EXPECT_EQ(so.swap.attempts, 2);
    EXPECT_TRUE(so.swap.watchdogFired);

    // Quarantined onto the softcore fallback of the EDITED function:
    // batch 2 must match the functional model of the edited graph...
    EXPECT_EQ(so.words, golden(edit_g, batch(8, 5000)));

    // ...and be bit-identical to a fault-free swap of the very same
    // artifact (which lands on hardware instead).
    PldCompiler pc(device(), opts(2));
    AppBuild build = pc.build(base_g, OptLevel::O1);
    SwapArtifact sa = pc.buildSwapArtifact(edit_g, "tail", build);
    sys::SystemSim ref(base_g, build.bindings, build.sysCfg);
    ref.loadInput(0, batch(8, 1000));
    ASSERT_TRUE(ref.run().completed);
    ref.takeOutput(0);
    sys::SwapResult rr =
        ref.swapPage(sa.binding.pageId, sa.binding, &sa.fn);
    EXPECT_EQ(rr.outcome, sys::SwapOutcome::Swapped);
    EXPECT_EQ(ref.pageImpl(sa.binding.pageId), sys::PageImpl::Hw);
    ref.loadInput(0, batch(8, 5000));
    ASSERT_TRUE(ref.run().completed);
    EXPECT_EQ(ref.takeOutput(0), so.words)
        << "quarantined softcore and clean hardware swap must agree";
}

TEST(SwapScenario, IdenticalAcrossCompileParallelism)
{
    // PLD_THREADS-style determinism: the swap counters, the output
    // words, and the non-scheduling telemetry fingerprint are pure
    // functions of the inputs, not of compile parallelism.
    Graph base_g = makeApp(0.5);
    Graph edit_g = makeApp(0.25);

    ScenarioOutcome a = runScenario(1, base_g, edit_g);
    ScenarioOutcome b = runScenario(4, base_g, edit_g);

    EXPECT_EQ(a.words, b.words);
    EXPECT_EQ(a.countersFp, b.countersFp);
    EXPECT_EQ(a.swap.outcome, b.swap.outcome);
    EXPECT_EQ(a.swap.cycles, b.swap.cycles);
    EXPECT_EQ(a.swap.packets, b.swap.packets);
    EXPECT_EQ(a.swap.retransmits, b.swap.retransmits);
    EXPECT_EQ(a.swap.crcErrors, b.swap.crcErrors);
    EXPECT_EQ(a.swap.rollbacks, b.swap.rollbacks);
}

TEST(SwapScenario, UnchangedOperatorComesFromCache)
{
    // Separate compilation at swap granularity: recompiling an
    // untouched operator is a pure cache hit, and a second request
    // for the edited one hits the entry the first request published.
    Graph base_g = makeApp(0.5);
    Graph edit_g = makeApp(0.25);
    PldCompiler pc(device(), opts(2));
    AppBuild build = pc.build(base_g, OptLevel::O1);

    SwapArtifact same = pc.buildSwapArtifact(edit_g, "head", build);
    EXPECT_FALSE(same.fnChanged);
    EXPECT_TRUE(same.fromCache);
    EXPECT_EQ(same.binding.pageId, build.bindings[0].pageId);

    SwapArtifact e1 = pc.buildSwapArtifact(edit_g, "tail", build);
    EXPECT_TRUE(e1.fnChanged);
    EXPECT_FALSE(e1.fromCache);
    SwapArtifact e2 = pc.buildSwapArtifact(edit_g, "tail", build);
    EXPECT_TRUE(e2.fromCache);
    EXPECT_EQ(e1.binding.imageBytes, e2.binding.imageBytes);
    EXPECT_EQ(e1.binding.imageHash, e2.binding.imageHash);
}

TEST(SwapScenario, EveryOperatorOfAnAppSwapsBetweenBatches)
{
    // Each uniquely named operator of Spam Filter — the DMA-facing
    // source and sink included — is swapped for an edited copy (one
    // added debug Print: a new function with the same semantics)
    // between batches. The restarted page must take the next two
    // batches word for word like the original.
    rosetta::Benchmark bm = rosetta::makeSpamFilter();
    PldCompiler pc(device(), opts(2));
    AppBuild build = pc.build(bm.graph, OptLevel::O1);
    ASSERT_TRUE(build.report.allOk());

    sys::SystemSim sim(bm.graph, build.bindings, build.sysCfg);
    auto run_batch = [&] {
        sim.loadInput(0, bm.input);
        EXPECT_TRUE(sim.run().completed);
        return sim.takeOutput(0);
    };
    ASSERT_EQ(run_batch(), bm.expected);

    for (size_t oi = 0; oi < bm.graph.ops.size(); ++oi) {
        const std::string &name = bm.graph.ops[oi].fn.name;
        size_t same_name = 0;
        for (const auto &op : bm.graph.ops)
            same_name += op.fn.name == name ? 1 : 0;
        if (same_name != 1)
            continue; // a swap names its operator by function name

        Graph edited = bm.graph;
        ir::StmtPtr print = ir::makeStmt(ir::StmtKind::Print);
        print->text = "edited " + name;
        edited.ops[oi].fn.body.push_back(std::move(print));
        SwapArtifact sa = pc.buildSwapArtifact(edited, name, build);
        ASSERT_TRUE(sa.fnChanged) << name;
        ASSERT_EQ(sim.swapPage(sa.binding.pageId, sa.binding, &sa.fn)
                      .outcome,
                  sys::SwapOutcome::Swapped)
            << name;
        for (int b = 0; b < 2; ++b)
            EXPECT_EQ(run_batch(), bm.expected)
                << "batch " << b << " after swapping " << name;
    }
}
