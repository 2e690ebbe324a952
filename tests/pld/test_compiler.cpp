#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/hash.h"
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
makeApp(int n)
{
    GraphBuilder gb("scale2");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto mid = gb.wire();
    gb.inst(makeScale("s1", 2.0, n), {in}, {mid});
    gb.inst(makeScale("s2", 0.5, n), {mid}, {out});
    return gb.finish();
}

/**
 * Chain of @p k distinct scale operators. Operator count is what
 * grows netlist size (loop bounds do not), so scaling assertions on
 * the monolithic-vs-paged gap must vary k, not n.
 */
Graph
makeChainApp(int k, int n)
{
    GraphBuilder gb("chain" + std::to_string(k));
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    GraphBuilder::WireId prev = in;
    for (int i = 0; i < k; ++i) {
        GraphBuilder::WireId next = (i == k - 1) ? out : gb.wire();
        // Distinct constants so every operator is a distinct artifact.
        gb.inst(makeScale("c" + std::to_string(i), 0.5 + 0.125 * i, n),
                {prev}, {next});
        prev = next;
    }
    return gb.finish();
}

std::vector<uint32_t>
fxInputs(int n)
{
    std::vector<uint32_t> v;
    for (int i = 0; i < n; ++i)
        v.push_back(static_cast<uint32_t>((i - n / 2) * 32768));
    return v;
}

CompileOptions
quickOpts()
{
    CompileOptions o;
    o.effort = 0.15;
    o.parallelJobs = 4;
    return o;
}

/** Build then execute; return output words. */
std::vector<uint32_t>
buildAndRun(PldCompiler &pc, const Graph &g, OptLevel level, int n)
{
    AppBuild b = pc.build(g, level);
    sys::SystemSim sim(g, b.bindings, b.sysCfg);
    sim.loadInput(0, fxInputs(n));
    auto rs = sim.run();
    EXPECT_TRUE(rs.completed) << optLevelName(level);
    return sim.takeOutput(0);
}

/** Digest of one P&R run's placement, move count and Fmax. */
void
hashPnr(Hasher &h, const pnr::PnrResult &r)
{
    for (auto [c, row] : r.place.pos) {
        h.i64(c);
        h.i64(row);
    }
    h.u64(r.placeMoves);
    uint64_t fmax_bits;
    std::memcpy(&fmax_bits, &r.timing.fmaxMHz, sizeof(fmax_bits));
    h.u64(fmax_bits);
}

} // namespace

TEST(Flow, AllFourLevelsProduceIdenticalResults)
{
    const int n = 16;
    Graph g = makeApp(n);

    dataflow::GraphRuntime gold(g);
    gold.pushInput(0, fxInputs(n));
    ASSERT_TRUE(gold.run());
    auto expected = gold.takeOutput(0);

    PldCompiler pc(device(), quickOpts());
    for (OptLevel lvl : {OptLevel::O0, OptLevel::O1, OptLevel::O3,
                         OptLevel::Vitis}) {
        auto out = buildAndRun(pc, g, lvl, n);
        EXPECT_EQ(out, expected) << optLevelName(lvl);
    }
}

TEST(Flow, O0CompilesFarFasterThanO1)
{
    // An -O0 build takes a fraction of a millisecond here, so one
    // scheduling hiccup can outlast it: compare the medians of five
    // fresh builds per side. Beside the wall clock, the deterministic
    // reason for the gap: -O0 runs no placer.
    Graph g = makeApp(64);
    auto median = [&](OptLevel lvl, uint64_t &moves) {
        std::vector<double> walls;
        for (int rep = 0; rep < 5; ++rep) {
            PldCompiler pc(device(), quickOpts());
            AppBuild b = pc.build(g, lvl);
            walls.push_back(b.wallTimes.total());
            moves = 0;
            for (const auto &op : b.ops)
                moves += op.pnr.placeMoves;
        }
        std::sort(walls.begin(), walls.end());
        return walls[2];
    };
    uint64_t o0_moves = 0, o1_moves = 0;
    double o0 = median(OptLevel::O0, o0_moves);
    double o1 = median(OptLevel::O1, o1_moves);
    EXPECT_EQ(o0_moves, 0u) << "-O0 must not place";
    EXPECT_GT(o1_moves, 0u) << "-O1 places every page";
    EXPECT_LT(o0 * 5, o1)
        << "-O0 must be much faster to compile (Table 2)";
}

TEST(Flow, O1CompilesFasterThanMonolithic)
{
    Graph g = makeApp(64);
    PldCompiler pc(device(), quickOpts());
    AppBuild o1 = pc.build(g, OptLevel::O1);
    AppBuild o3 = pc.build(g, OptLevel::O3);
    EXPECT_LT(o1.wallTimes.pnr, o3.wallTimes.pnr)
        << "separate page compiles beat monolithic p&r (Table 2)";
}

TEST(Flow, MonolithicGapGrowsWithOperatorCount)
{
    // The paper's headline scaling claim, made strict: -O1 page
    // compiles are embarrassingly parallel so their p&r wall time is
    // ~one page regardless of app size, while monolithic p&r grows
    // super-linearly with operator count. The O3/O1 ratio must widen
    // as the app grows. Alongside the wall-clock ratio we check a
    // deterministic proxy — annealer moves are a pure function of
    // netlist size (effort * n^1.2 per temperature), immune to
    // machine load.
    // Full effort so each p&r run is long enough that clock noise is
    // a small fraction; median of 3 fresh builds for the wall ratio.
    auto ratios = [](int k) {
        CompileOptions o;
        o.effort = 1.0;
        o.parallelJobs = 4;
        Graph g = makeChainApp(k, 8);
        std::vector<double> walls;
        double moves = 0;
        for (int rep = 0; rep < 3; ++rep) {
            PldCompiler pc(device(), o);
            AppBuild o1 = pc.build(g, OptLevel::O1);
            AppBuild o3 = pc.build(g, OptLevel::O3);
            uint64_t page_moves = 0;
            for (const auto &op : o1.ops)
                page_moves = std::max(page_moves, op.pnr.placeMoves);
            EXPECT_GT(page_moves, 0u) << "k=" << k;
            walls.push_back(o3.wallTimes.pnr /
                            std::max(o1.wallTimes.pnr, 1e-9));
            // Deterministic: same netlists and seeds every rep.
            moves = double(o3.monoPnr.placeMoves) /
                    double(page_moves);
        }
        std::sort(walls.begin(), walls.end());
        struct R
        {
            double wall;
            double moves;
        };
        return R{walls[1], moves};
    };

    auto r2 = ratios(2);
    auto r6 = ratios(6);
    EXPECT_GT(r6.moves, r2.moves)
        << "monolithic p&r work must grow faster than per-page work";
    EXPECT_GT(r6.wall, r2.wall)
        << "O3/O1 p&r wall-time gap must widen with operator count";
    EXPECT_GT(r2.wall, 1.0)
        << "even at 2 operators, paged p&r beats monolithic";
}

TEST(Flow, IncrementalRecompileHitsCache)
{
    Graph g = makeApp(32);
    PldCompiler pc(device(), quickOpts());
    pc.build(g, OptLevel::O1);
    EXPECT_EQ(pc.cacheStats().hits, 0u);

    // Unchanged rebuild: both operators come from the cache.
    AppBuild again = pc.build(g, OptLevel::O1);
    EXPECT_EQ(pc.cacheStats().hits, 2u);
    EXPECT_TRUE(again.ops[0].fromCache);
    EXPECT_TRUE(again.ops[1].fromCache);

    // Edit one operator: only it recompiles.
    Graph g2 = g;
    g2.ops[0].fn.body[0]->immHi += 1;
    AppBuild after = pc.build(g2, OptLevel::O1);
    EXPECT_FALSE(after.ops[0].fromCache);
    EXPECT_TRUE(after.ops[1].fromCache);
}

TEST(Flow, CachedRebuildHasNearZeroWallTime)
{
    Graph g = makeApp(32);
    PldCompiler pc(device(), quickOpts());
    AppBuild first = pc.build(g, OptLevel::O1);
    AppBuild second = pc.build(g, OptLevel::O1);
    EXPECT_LT(second.wallTimes.total(),
              first.wallTimes.total() * 0.2 + 1e-3);
}

TEST(Flow, PragmaSelectsMixedTargets)
{
    const int n = 8;
    Graph g = makeApp(n);
    g.ops[0].fn.pragma.target = Target::RISCV; // Fig 2a line 4
    PldCompiler pc(device(), quickOpts());
    AppBuild b = pc.build(g, OptLevel::O1);
    EXPECT_EQ(b.ops[0].target, Target::RISCV);
    EXPECT_EQ(b.ops[1].target, Target::HW);
    EXPECT_EQ(b.bindings[0].impl, sys::PageImpl::Softcore);
    EXPECT_EQ(b.bindings[1].impl, sys::PageImpl::Hw);

    sys::SystemSim sim(g, b.bindings, b.sysCfg);
    sim.loadInput(0, fxInputs(n));
    auto rs = sim.run();
    EXPECT_TRUE(rs.completed);
}

TEST(Flow, PragmaPageNumberIsHonoured)
{
    Graph g = makeApp(8);
    g.ops[0].fn.pragma.pageNum = 7;
    g.ops[1].fn.pragma.pageNum = 13;
    PldCompiler pc(device(), quickOpts());
    AppBuild b = pc.build(g, OptLevel::O1);
    EXPECT_EQ(b.ops[0].page, 7);
    EXPECT_EQ(b.ops[1].page, 13);
}

TEST(Flow, VitisAreaBelowO3Area)
{
    // Table 4: -O3 adds FIFO link resources over the fused baseline.
    Graph g = makeApp(32);
    PldCompiler pc(device(), quickOpts());
    AppBuild vit = pc.build(g, OptLevel::Vitis);
    AppBuild o3 = pc.build(g, OptLevel::O3);
    EXPECT_GE(o3.area.bram18, vit.area.bram18);
    EXPECT_GE(o3.area.luts, vit.area.luts);
}

TEST(Flow, O1AreaAboveO3Area)
{
    // Table 4: the leaf interfaces make -O1 bigger than -O3.
    Graph g = makeApp(32);
    PldCompiler pc(device(), quickOpts());
    AppBuild o1 = pc.build(g, OptLevel::O1);
    AppBuild o3 = pc.build(g, OptLevel::O3);
    EXPECT_GT(o1.area.luts, o3.area.luts);
}

TEST(Flow, PartialBitstreamsAreSmall)
{
    Graph g = makeApp(32);
    PldCompiler pc(device(), quickOpts());
    AppBuild o1 = pc.build(g, OptLevel::O1);
    AppBuild o3 = pc.build(g, OptLevel::O3);
    EXPECT_LT(o1.totalBitstreamBytes, o3.totalBitstreamBytes)
        << "partial page bitstreams vs full-chip (Sec 2.3)";
}

TEST(Flow, DfgExtracted)
{
    Graph g = makeApp(8);
    PldCompiler pc(device(), quickOpts());
    AppBuild b = pc.build(g, OptLevel::O1);
    EXPECT_EQ(b.dfg.ops.size(), 2u);
    EXPECT_EQ(b.dfg.links.size(), 3u);
}

TEST(Flow, PlacementsMatchGoldenFingerprints)
{
    // Every page placement of the six Rosetta apps at -O1 and every
    // monolithic placement at -O3, pinned at effort 1 and seed 7. A
    // placer change that claims bit-identical output must keep these.
    CompileOptions o;
    o.effort = 1.0;
    o.seed = 7;
    struct Golden
    {
        uint64_t o1;
        uint64_t o3;
    };
    const Golden golden[] = {
        {0x935ba0c0d5e085ddull, 0xf2e136ddf95ef199ull}, // rendering
        {0x5071bd9210ea1605ull, 0xabdbcc95084a8d0eull}, // digit rec
        {0x724dbc3d1a143f11ull, 0xe117006ee67d050eull}, // spam
        {0xe2b8503ecf5fb6bbull, 0x1a95d3a1b2c51154ull}, // optical
        {0x63b4c07020abacc2ull, 0x82a60dfc337b78ccull}, // face
        {0xdac2420601a064c9ull, 0x61aa7ebf3a87c82bull}, // bnn
    };
    std::vector<rosetta::Benchmark> apps = rosetta::allBenchmarks();
    ASSERT_EQ(apps.size(), std::size(golden));
    for (size_t i = 0; i < apps.size(); ++i) {
        PldCompiler pc(device(), o);
        auto digest = [&](OptLevel lvl) {
            AppBuild b = pc.build(apps[i].graph, lvl);
            Hasher h;
            for (const auto &op : b.ops)
                hashPnr(h, op.pnr);
            hashPnr(h, b.monoPnr);
            return h.digest();
        };
        EXPECT_EQ(digest(OptLevel::O1), golden[i].o1) << apps[i].name;
        EXPECT_EQ(digest(OptLevel::O3), golden[i].o3) << apps[i].name;
    }
}

namespace {

void
hashRunStats(Hasher &h, const sys::RunStats &rs)
{
    h.u64(rs.cycles);
    h.u64(rs.configCycles);
    h.u64(rs.completed ? 1 : 0);
    h.u64(rs.noc.injected);
    h.u64(rs.noc.delivered);
    h.u64(rs.noc.deflections);
    h.u64(rs.noc.configApplied);
    h.u64(rs.noc.totalHops);
}

void
hashSwapResult(Hasher &h, const sys::SwapResult &r)
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

/** Run one batch of @p bm on @p sim; mix its stats and words into
 * @p h and check the words against the golden model. */
void
hashBatch(Hasher &h, sys::SystemSim &sim, const rosetta::Benchmark &bm,
          const char *what)
{
    sim.loadInput(0, bm.input);
    sys::RunStats rs = sim.run();
    EXPECT_TRUE(rs.completed) << bm.name << " " << what;
    std::vector<uint32_t> words = sim.takeOutput(0);
    EXPECT_EQ(words, bm.expected) << bm.name << " " << what;
    hashRunStats(h, rs);
    h.u64(words.size());
    for (uint32_t w : words)
        h.u64(w);
}

/** First operator with a unique name and no external stream: the
 * kind of operator an edit swaps between batches. */
int
swapVictim(const Graph &g)
{
    for (size_t i = 0; i < g.ops.size(); ++i) {
        bool external = false;
        for (const auto &l : g.links) {
            external |= (l.src.op == static_cast<int>(i) &&
                         l.dst.isExternal()) ||
                        (l.dst.op == static_cast<int>(i) &&
                         l.src.isExternal());
        }
        int same_name = 0;
        for (const auto &op : g.ops)
            same_name += op.fn.name == g.ops[i].fn.name;
        if (!external && same_name == 1)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace

TEST(Flow, SimulationsMatchGoldenFingerprints)
{
    // Simulated behaviour of the six Rosetta apps, pinned: two -O1
    // all-HW batches on one SystemSim, a synchronous function-changing
    // swapPage and a rerun; one -O3 direct-link batch; and for two
    // apps a mixed design with one operator on the softcore. Cycle
    // counts at -O1 do not depend on placement. A simulator change
    // that claims bit-identical results must keep these digests.
    CompileOptions o;
    o.effort = 0.1;
    o.seed = 7;
    struct Golden
    {
        uint64_t o1;
        uint64_t o3;
        /** 0: no mixed design (its softcore page makes the batch
         * take seconds). */
        uint64_t mixed;
    };
    const Golden golden[] = {
        {0x15e55a77f36ef844ull, 0xb2abde79feba180aull, 0}, // rendering
        {0x80c336db0ad1a743ull, 0xe18255a67ccd2bc3ull, 0}, // digit rec
        {0x89b3312dda20f1b9ull, 0xee060a11b082042dull,
         0x7efe1dd60bf1b78cull}, // spam
        {0xec06254622fcb2ccull, 0x60f96d39fe831a59ull,
         0x946a391d772aff51ull}, // optical
        {0x67ff90567500e9c4ull, 0x3c26f76124d2d9deull, 0}, // face
        {0x3500c0bc08c5d325ull, 0x0f003a6e42e9d2f5ull, 0}, // bnn
    };
    std::vector<rosetta::Benchmark> apps = rosetta::allBenchmarks();
    ASSERT_EQ(apps.size(), std::size(golden));
    for (size_t i = 0; i < apps.size(); ++i) {
        const rosetta::Benchmark &bm = apps[i];
        PldCompiler pc(device(), o);

        Hasher o1;
        AppBuild b1 = pc.build(bm.graph, OptLevel::O1);
        sys::SystemSim sim(bm.graph, b1.bindings, b1.sysCfg);
        hashBatch(o1, sim, bm, "-O1 batch 1");
        hashBatch(o1, sim, bm, "-O1 batch 2");
        int victim = swapVictim(bm.graph);
        ASSERT_GE(victim, 0) << bm.name;
        Graph edited = bm.graph;
        StmtPtr s = makeStmt(StmtKind::Print);
        s->text = "edit";
        edited.ops[victim].fn.body.push_back(std::move(s));
        SwapArtifact sa = pc.buildSwapArtifact(
            edited, edited.ops[victim].fn.name, b1);
        EXPECT_TRUE(sa.fnChanged) << bm.name;
        sys::SwapResult sr =
            sim.swapPage(sa.binding.pageId, sa.binding, &sa.fn);
        EXPECT_EQ(sr.outcome, sys::SwapOutcome::Swapped) << bm.name;
        hashSwapResult(o1, sr);
        hashBatch(o1, sim, bm, "-O1 after swap");

        Hasher o3;
        AppBuild b3 = pc.build(bm.graph, OptLevel::O3);
        sys::SystemSim direct(bm.graph, b3.bindings, b3.sysCfg);
        hashBatch(o3, direct, bm, "-O3");

        uint64_t mixed = 0;
        if (golden[i].mixed != 0) {
            Graph g = bm.graph;
            g.ops[victim].fn.pragma.target = Target::RISCV;
            AppBuild bm1 = pc.build(g, OptLevel::O1);
            sys::SystemSim msim(g, bm1.bindings, bm1.sysCfg);
            Hasher hm;
            hashBatch(hm, msim, bm, "mixed");
            mixed = hm.digest();
        }
        EXPECT_EQ(o1.digest(), golden[i].o1) << bm.name;
        EXPECT_EQ(o3.digest(), golden[i].o3) << bm.name;
        EXPECT_EQ(mixed, golden[i].mixed) << bm.name;
    }
}

namespace {

/** Cycles, `sys.page.stalls` and an output digest of one batch, read
 * under @p st; the words are also checked against the golden model. */
struct BatchRecord
{
    uint64_t cycles = 0;
    int64_t stalls = 0;
    uint64_t words = 0;
};

BatchRecord
recordBatch(obs::ScopedTracer &st, sys::SystemSim &sim,
            const rosetta::Benchmark &bm, const char *what)
{
    int64_t before =
        st.tracer().metrics().snapshot().counter("sys.page.stalls");
    sim.loadInput(0, bm.input);
    sys::RunStats rs = sim.run();
    EXPECT_TRUE(rs.completed) << bm.name << " " << what;
    std::vector<uint32_t> out = sim.takeOutput(0);
    EXPECT_EQ(out, bm.expected) << bm.name << " " << what;
    Hasher h;
    for (uint32_t w : out)
        h.u64(w);
    BatchRecord r;
    r.cycles = rs.cycles;
    r.stalls =
        st.tracer().metrics().snapshot().counter("sys.page.stalls") -
        before;
    r.words = h.digest();
    return r;
}

} // namespace

TEST(Flow, SimulationStallsMatchGolden)
{
    // Cycles, sys.page.stalls and output words per batch of the six
    // Rosetta apps (effort 0.1, seed 7): two -O1 all-HW batches on one
    // SystemSim, one -O3 direct-link batch, one all-softcore (-O0)
    // batch, and a mixed -O1 design with the swapVictim operator on
    // the softcore. A simulator that skips cycles in which nothing can
    // move must replay every blocked poll's stall and budget update
    // exactly, so these stay fixed.
    obs::ScopedTracer st;
    CompileOptions o;
    o.effort = 0.1;
    o.seed = 7;
    /** Per app: -O1 batch 1, -O1 batch 2, -O3, -O0, mixed. */
    const BatchRecord golden[][5] = {
        {{51448, 192820, 0xe32cfae453e1c35dull},
         {51448, 192820, 0xe32cfae453e1c35dull},
         {49148, 178638, 0xe32cfae453e1c35dull},
         {5456088, 20688248, 0xe32cfae453e1c35dull},
         {5456126, 25408351, 0xe32cfae453e1c35dull}}, // rendering
        {{46501, 81499, 0x72e963545695d70eull},
         {46501, 81499, 0x72e963545695d70eull},
         {46447, 68037, 0x72e963545695d70eull},
         {576813, 2666823, 0x72e963545695d70eull},
         {580764, 2552882, 0x72e963545695d70eull}}, // digit rec
        {{3489, 21201, 0x326ed86a5ad9e4a4ull},
         {3489, 21201, 0x326ed86a5ad9e4a4ull},
         {1068, 2179, 0x326ed86a5ad9e4a4ull},
         {15109, 86665, 0x326ed86a5ad9e4a4ull},
         {13089, 57358, 0x326ed86a5ad9e4a4ull}}, // spam
        {{23290, 108496, 0xe5ba07ed8cd0d684ull},
         {23290, 108496, 0xe5ba07ed8cd0d684ull},
         {23241, 79145, 0xe5ba07ed8cd0d684ull},
         {1121964, 5108006, 0xe5ba07ed8cd0d684ull},
         {23380, 92977, 0xe5ba07ed8cd0d684ull}}, // optical
        {{11646, 71738, 0x2a40642ed0939524ull},
         {11646, 71738, 0x2a40642ed0939524ull},
         {6991, 33085, 0x2a40642ed0939524ull},
         {732789, 4395971, 0x2a40642ed0939524ull},
         {264729, 1583866, 0x2a40642ed0939524ull}}, // face
        {{318825, 2049111, 0xfdcdb80e5fd8d165ull},
         {318825, 2049111, 0xfdcdb80e5fd8d165ull},
         {301880, 1913154, 0xfdcdb80e5fd8d165ull},
         {7419584, 49986528, 0xfdcdb80e5fd8d165ull},
         {7435626, 50079555, 0xfdcdb80e5fd8d165ull}}, // bnn
    };
    const char *what[] = {"-O1 batch 1", "-O1 batch 2", "-O3", "-O0",
                          "mixed"};
    std::vector<rosetta::Benchmark> apps = rosetta::allBenchmarks();
    ASSERT_EQ(apps.size(), std::size(golden));
    for (size_t i = 0; i < apps.size(); ++i) {
        const rosetta::Benchmark &bm = apps[i];
        PldCompiler pc(device(), o);
        std::vector<BatchRecord> got;
        AppBuild b1 = pc.build(bm.graph, OptLevel::O1);
        sys::SystemSim sim(bm.graph, b1.bindings, b1.sysCfg);
        got.push_back(recordBatch(st, sim, bm, what[0]));
        got.push_back(recordBatch(st, sim, bm, what[1]));
        AppBuild b3 = pc.build(bm.graph, OptLevel::O3);
        sys::SystemSim direct(bm.graph, b3.bindings, b3.sysCfg);
        got.push_back(recordBatch(st, direct, bm, what[2]));
        AppBuild b0 = pc.build(bm.graph, OptLevel::O0);
        sys::SystemSim soft(bm.graph, b0.bindings, b0.sysCfg);
        got.push_back(recordBatch(st, soft, bm, what[3]));
        Graph g = bm.graph;
        g.ops[swapVictim(g)].fn.pragma.target = Target::RISCV;
        AppBuild bmix = pc.build(g, OptLevel::O1);
        sys::SystemSim mixed(g, bmix.bindings, bmix.sysCfg);
        got.push_back(recordBatch(st, mixed, bm, what[4]));
        for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].cycles, golden[i][k].cycles)
                << bm.name << " " << what[k];
            EXPECT_EQ(got[k].stalls, golden[i][k].stalls)
                << bm.name << " " << what[k];
            EXPECT_EQ(got[k].words, golden[i][k].words)
                << bm.name << " " << what[k];
        }
    }
}
