#include <gtest/gtest.h>

#include "common/hash.h"
#include "dataflow/runtime.h"
#include "hls/schedule.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "rvgen/codegen.h"
#include "sys/system.h"

using namespace pld;
using namespace pld::ir;
using sys::PageBinding;
using sys::PageImpl;
using sys::SystemConfig;
using sys::SystemSim;

namespace {

OperatorFn
makeAddK(const std::string &name, int k, int n)
{
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    b.forLoop(0, n, [&](Ex) {
        b.write(out, b.read(in).bitcast(Type::s(32)) + k);
    });
    return b.finish();
}

Graph
makePipeline(int n)
{
    GraphBuilder gb("pipe");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto w1 = gb.wire();
    gb.inst(makeAddK("a1", 1, n), {in}, {w1});
    gb.inst(makeAddK("a2", 10, n), {w1}, {out});
    return gb.finish();
}

std::vector<uint32_t>
iota(int n)
{
    std::vector<uint32_t> v;
    for (int i = 0; i < n; ++i)
        v.push_back(static_cast<uint32_t>(i));
    return v;
}

PageBinding
hwBinding(const Graph &g, int op, int page)
{
    PageBinding b;
    b.opIdx = op;
    b.pageId = page;
    b.impl = PageImpl::Hw;
    b.cyclesPerOp = hls::analyzeOperator(g.ops[op].fn).cyclesPerOp();
    return b;
}

PageBinding
swBinding(const Graph &g, int op, int page)
{
    PageBinding b;
    b.opIdx = op;
    b.pageId = page;
    b.impl = PageImpl::Softcore;
    b.elf = rvgen::compileToRiscv(g.ops[op].fn).elf;
    return b;
}

} // namespace

TEST(SystemSim, NocModeMatchesFunctionalModel)
{
    const int n = 32;
    Graph g = makePipeline(n);

    dataflow::GraphRuntime gold(g);
    gold.pushInput(0, iota(n));
    ASSERT_TRUE(gold.run());
    auto expected = gold.takeOutput(0);

    SystemConfig cfg;
    cfg.useNoc = true;
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)}, cfg);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(sim.takeOutput(0), expected);
    EXPECT_GT(rs.configCycles, 0u) << "linking phase ran";
}

TEST(SystemSim, DirectModeMatchesFunctionalModel)
{
    const int n = 32;
    Graph g = makePipeline(n);

    dataflow::GraphRuntime gold(g);
    gold.pushInput(0, iota(n));
    ASSERT_TRUE(gold.run());
    auto expected = gold.takeOutput(0);

    SystemConfig cfg;
    cfg.useNoc = false;
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)}, cfg);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(sim.takeOutput(0), expected);
}

TEST(SystemSim, SoftcorePagesProduceSameOutput)
{
    const int n = 8;
    Graph g = makePipeline(n);

    SystemConfig cfg;
    cfg.useNoc = true;
    SystemSim sim(g, {swBinding(g, 0, 0), swBinding(g, 1, 5)}, cfg);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    auto out = sim.takeOutput(0);
    ASSERT_EQ(out.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<uint32_t>(i + 11));
}

TEST(SystemSim, MixedHwAndSoftcore)
{
    const int n = 8;
    Graph g = makePipeline(n);

    SystemConfig cfg;
    SystemSim sim(g, {hwBinding(g, 0, 0), swBinding(g, 1, 5)}, cfg);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    auto out = sim.takeOutput(0);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<uint32_t>(i + 11));
}

TEST(SystemSim, SoftcoreIsMuchSlowerThanHw)
{
    const int n = 64;
    Graph g = makePipeline(n);

    SystemConfig cfg;
    SystemSim hw(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)}, cfg);
    hw.loadInput(0, iota(n));
    auto hw_rs = hw.run();

    SystemSim sw(g, {swBinding(g, 0, 0), swBinding(g, 1, 5)}, cfg);
    sw.loadInput(0, iota(n));
    auto sw_rs = sw.run();

    ASSERT_TRUE(hw_rs.completed && sw_rs.completed);
    EXPECT_GT(sw_rs.cycles, hw_rs.cycles * 10)
        << "the -O0 softcore must be orders slower (Table 3)";
}

TEST(SystemSim, DirectLinksFasterThanNoc)
{
    // The -O1 overlay pays network sharing costs vs -O3 direct FIFOs
    // (Table 3: -O1 runs 1.5-10x slower).
    const int n = 256;
    Graph g = makePipeline(n);

    SystemConfig noc_cfg;
    noc_cfg.useNoc = true;
    SystemSim noc_sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 21)},
                      noc_cfg);
    noc_sim.loadInput(0, iota(n));
    auto noc_rs = noc_sim.run();

    SystemConfig dir_cfg;
    dir_cfg.useNoc = false;
    SystemSim dir_sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)},
                      dir_cfg);
    dir_sim.loadInput(0, iota(n));
    auto dir_rs = dir_sim.run();

    ASSERT_TRUE(noc_rs.completed && dir_rs.completed);
    EXPECT_GT(noc_rs.cycles, dir_rs.cycles);
}

TEST(SystemSim, ForkJoinGraphOnNoc)
{
    const int n = 16;
    OpBuilder sb("split");
    auto si = sb.input("in");
    auto sa = sb.output("a");
    auto sc = sb.output("b");
    auto sx = sb.var("x", Type::s(32));
    sb.forLoop(0, n, [&](Ex) {
        sb.set(sx, sb.read(si).bitcast(Type::s(32)));
        sb.write(sa, sx);
        sb.write(sc, sx);
    });

    OpBuilder jb("join");
    auto ja = jb.input("a");
    auto jc = jb.input("b");
    auto jo = jb.output("out");
    auto jx = jb.var("x", Type::s(32));
    jb.forLoop(0, n, [&](Ex) {
        jb.set(jx, jb.read(ja).bitcast(Type::s(32)));
        jb.write(jo, Ex(jx) + jb.read(jc).bitcast(Type::s(32)));
    });

    GraphBuilder gb("diamond");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto wa = gb.wire(), wb = gb.wire();
    gb.inst(sb.finish(), {in}, {wa, wb});
    gb.inst(jb.finish(), {wa, wb}, {out});
    Graph g = gb.finish();

    SystemConfig cfg;
    SystemSim sim(g, {hwBinding(g, 0, 2), hwBinding(g, 1, 9)}, cfg);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    auto outw = sim.takeOutput(0);
    ASSERT_EQ(outw.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(outw[i], static_cast<uint32_t>(2 * i));
}

TEST(SystemSim, IncompleteInputTimesOut)
{
    const int n = 8;
    Graph g = makePipeline(n);
    SystemConfig cfg;
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)}, cfg);
    sim.loadInput(0, iota(n / 2)); // starve the pipeline
    auto rs = sim.run(20000);
    EXPECT_FALSE(rs.completed);
}

TEST(SystemSim, LoadInputMidStreamKeepsUnsentWords)
{
    // A batch loaded while the previous one is still being sent joins
    // the unsent words in order.
    const int n = 8;
    Graph g = makePipeline(n);
    dataflow::GraphRuntime gold(g);
    gold.pushInput(0, iota(n));
    ASSERT_TRUE(gold.run());
    auto expected = gold.takeOutput(0);

    SystemConfig cfg;
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)}, cfg);
    std::vector<uint32_t> words = iota(n);
    sim.loadInput(0, {words.begin(), words.begin() + 5});
    EXPECT_FALSE(sim.run(3).completed);
    sim.loadInput(0, {words.begin() + 5, words.end()});
    ASSERT_TRUE(sim.run().completed);
    EXPECT_EQ(sim.takeOutput(0), expected);
}

namespace {

/**
 * A scale-and-offset chain of @p depth multiply-adds per word: each
 * statement charges many compute ops, so a HW page computes for many
 * cycles between polls.
 */
OperatorFn
makeHeavy(const std::string &name, int depth, int n)
{
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    auto x = b.var("x", Type::s(32));
    b.forLoop(0, n, [&](Ex) {
        b.set(x, b.read(in).bitcast(Type::s(32)));
        Ex v = x;
        for (int d = 0; d < depth; ++d)
            v = v * (d + 3) + 1;
        b.write(out, v);
    });
    return b.finish();
}

int64_t
stallCount(obs::ScopedTracer &st)
{
    return st.tracer().metrics().snapshot().counter("sys.page.stalls");
}

/** Mix one run's stats, stall count and output words into @p h. */
void
hashRun(Hasher &h, const sys::RunStats &rs, int64_t stalls,
        const std::vector<uint32_t> &out)
{
    h.u64(rs.cycles);
    h.u64(rs.configCycles);
    h.u64(rs.completed ? 1 : 0);
    h.u64(rs.noc.injected);
    h.u64(rs.noc.delivered);
    h.u64(rs.noc.deflections);
    h.u64(rs.noc.configApplied);
    h.u64(rs.noc.totalHops);
    h.u64(rs.noc.activeCycles);
    h.i64(stalls);
    h.u64(out.size());
    for (uint32_t w : out)
        h.u64(w);
}

void
hashSwap(Hasher &h, const sys::SwapResult &r)
{
    h.u64(static_cast<uint64_t>(r.outcome));
    h.u64(r.cycles);
    h.u64(r.packets);
    h.u64(r.retransmits);
    h.u64(r.crcErrors);
    h.u64(r.drops);
    h.u64(r.dmaStalls);
    h.i64(r.attempts);
    h.i64(r.rollbacks);
    h.u64(r.watchdogFired ? 1 : 0);
}

} // namespace

TEST(SystemSim, GoldenQuietStretches)
{
    // Runs whose cycles are mostly quiet — every page blocked on a
    // stream or computing, nothing in the network — pinned before
    // the simulator learned to skip such cycles: RunStats, output
    // words and sys.page.stalls of every run.
    obs::ScopedTracer st;

    // (1) The starved pipeline: half the input, so every page ends up
    // blocked until run(20000) times out; then the rest of the input
    // and a completing run, whose cycles depend on the budgets the
    // blocked pages carried over.
    {
        const int n = 8;
        Graph g = makePipeline(n);
        SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 1)},
                      SystemConfig{});
        Hasher h;
        sim.loadInput(0, iota(n / 2));
        int64_t s0 = stallCount(st);
        sys::RunStats r1 = sim.run(20000);
        EXPECT_FALSE(r1.completed);
        EXPECT_EQ(r1.cycles, 20000u);
        int64_t s1 = stallCount(st);
        hashRun(h, r1, s1 - s0, sim.takeOutput(0));
        std::vector<uint32_t> rest = iota(n);
        sim.loadInput(0, {rest.begin() + n / 2, rest.end()});
        sys::RunStats r2 = sim.run();
        EXPECT_TRUE(r2.completed);
        hashRun(h, r2, stallCount(st) - s1, sim.takeOutput(0));
        EXPECT_EQ(s1 - s0, 40000) << "starved run stalls";
        EXPECT_EQ(r2.cycles, 53u) << "completing run cycles";
        EXPECT_EQ(h.digest(), 0x8392826b13586adbull) << "starved pipeline";
    }

    // (2) Uneven runSlice calls over a heavy three-stage pipeline: a
    // HW page whose cyclesPerOp is 4.5 (its blocked budget never
    // settles), a softcore page, and a HW page at exactly 4.0.
    {
        const int n = 24;
        GraphBuilder gb("slices");
        auto in = gb.extIn("I");
        auto out = gb.extOut("O");
        auto w1 = gb.wire(), w2 = gb.wire();
        gb.inst(makeHeavy("h1", 6, n), {in}, {w1});
        gb.inst(makeAddK("s2", 5, n), {w1}, {w2});
        gb.inst(makeHeavy("h3", 3, n), {w2}, {out});
        Graph g = gb.finish();
        PageBinding b0 = hwBinding(g, 0, 3);
        b0.cyclesPerOp = 4.5;
        PageBinding b2 = hwBinding(g, 2, 9);
        b2.cyclesPerOp = 4.0;
        SystemSim sim(g, {b0, swBinding(g, 1, 6), b2}, SystemConfig{});
        sim.loadInput(0, iota(n));
        const uint64_t slices[] = {1, 2, 3, 50, 7, 1000, 13, 400, 5};
        Hasher h;
        int64_t total_stalls = 0;
        uint64_t total_cycles = 0;
        bool completed = false;
        for (int k = 0; k < 1000 && !completed; ++k) {
            int64_t s = stallCount(st);
            sys::RunStats rs = sim.runSlice(slices[k % std::size(slices)]);
            int64_t stalls = stallCount(st) - s;
            hashRun(h, rs, stalls, sim.takeOutput(0));
            total_stalls += stalls;
            total_cycles += rs.cycles;
            completed = rs.completed;
        }
        EXPECT_TRUE(completed);
        EXPECT_EQ(total_cycles, 2656u) << "slice cycles";
        EXPECT_EQ(total_stalls, 1783) << "slice stalls";
        EXPECT_EQ(h.digest(), 0x7b76ff0395308ad6ull) << "uneven slices";
    }

    // (3) Direct links both up and down the page index order: op 1
    // feeds op 2, which feeds op 0.
    {
        const int n = 32;
        GraphBuilder gb("updown");
        auto in = gb.extIn("I");
        auto out = gb.extOut("O");
        auto w1 = gb.wire(), w2 = gb.wire();
        gb.inst(makeAddK("c", 100, n), {w2}, {out});
        gb.inst(makeHeavy("a", 4, n), {in}, {w1});
        gb.inst(makeAddK("b", 10, n), {w1}, {w2});
        Graph g = gb.finish();
        dataflow::GraphRuntime gold(g);
        gold.pushInput(0, iota(n));
        ASSERT_TRUE(gold.run());
        const std::vector<uint32_t> expected = gold.takeOutput(0);
        SystemConfig cfg;
        cfg.useNoc = false;
        SystemSim sim(g,
                      {hwBinding(g, 0, 0), hwBinding(g, 1, 1),
                       hwBinding(g, 2, 2)},
                      cfg);
        Hasher h;
        for (int batch = 0; batch < 2; ++batch) {
            sim.loadInput(0, iota(n));
            int64_t s = stallCount(st);
            sys::RunStats rs = sim.run();
            EXPECT_TRUE(rs.completed);
            std::vector<uint32_t> words = sim.takeOutput(0);
            EXPECT_EQ(words, expected) << "batch " << batch;
            hashRun(h, rs, stallCount(st) - s, words);
        }
        EXPECT_EQ(h.digest(), 0xa0f74a81d0bea1a5ull) << "direct up/down links";
    }

    // (4) In-run requestSwaps queued at cycles in which every page
    // waits: a re-timed image for page 1 at cycle 5000 and a
    // function-changing one for page 0 at cycle 6000, both while the
    // starved pipeline is blocked; then the rest of the input.
    {
        const int n = 8;
        Graph g = makePipeline(n);
        SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                      SystemConfig{});
        PageBinding retimed = hwBinding(g, 1, 5);
        retimed.cyclesPerOp = 2.5;
        retimed.imageBytes = 512;
        retimed.imageHash = 0x5eedf00dull;
        OperatorFn edited = makeAddK("a1", 1000, n);
        PageBinding replaced = hwBinding(g, 0, 0);
        replaced.imageBytes = 1024;
        replaced.imageHash = 0xfeedull;
        ASSERT_TRUE(sim.requestSwap(5, retimed, 5000).accepted);
        ASSERT_TRUE(sim.requestSwap(0, replaced, 6000, &edited).accepted);
        Hasher h;
        sim.loadInput(0, iota(n / 2));
        int64_t s0 = stallCount(st);
        sys::RunStats r1 = sim.run(20000);
        EXPECT_EQ(r1.cycles, 20000u);
        int64_t s1 = stallCount(st);
        hashRun(h, r1, s1 - s0, sim.takeOutput(0));
        std::vector<uint32_t> rest = iota(n);
        sim.loadInput(0, {rest.begin() + n / 2, rest.end()});
        sys::RunStats r2 = sim.run();
        EXPECT_TRUE(r2.completed);
        hashRun(h, r2, stallCount(st) - s1, sim.takeOutput(0));
        ASSERT_EQ(sim.swapHistory().size(), 2u);
        for (const auto &r : sim.swapHistory()) {
            EXPECT_EQ(r.outcome, sys::SwapOutcome::Swapped);
            hashSwap(h, r);
        }
        EXPECT_EQ(h.digest(), 0x4f54c17be02ab79aull) << "swaps in quiet cycles";
    }
}
