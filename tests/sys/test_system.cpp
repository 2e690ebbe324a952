#include <gtest/gtest.h>

#include "dataflow/runtime.h"
#include "hls/schedule.h"
#include "ir/builder.h"
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
