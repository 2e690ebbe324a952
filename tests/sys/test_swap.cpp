/**
 * Hot-swap engine tests: live page reconfiguration with the
 * fault-tolerant runtime. Covers the drain/quiesce guarantee (no
 * in-flight flit of a non-target page is lost or reordered — outputs
 * are word-for-word identical to a no-swap run), the CRC'd config
 * stream (retransmit on corruption and drop, exponential backoff,
 * bounded retries), the reconfiguration watchdog, rollback to the
 * previous image, the quarantine-to-softcore policy, and the
 * run-timeout telemetry. Every fault scenario is driven by FaultPlan
 * so it is bit-reproducible.
 */

#include <gtest/gtest.h>

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
using sys::SwapOutcome;
using sys::SwapRequestResult;
using sys::SwapResult;
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

/** Chain of @p k add-constant operators. */
Graph
makeChain(int k, int n)
{
    GraphBuilder gb("chain");
    GraphBuilder::WireId prev = gb.extIn("I");
    auto out = gb.extOut("O");
    for (int i = 0; i < k; ++i) {
        GraphBuilder::WireId next = (i == k - 1) ? out : gb.wire();
        gb.inst(makeAddK("c" + std::to_string(i), i, n), {prev}, {next});
        prev = next;
    }
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

/** A replacement image for the same function: re-timed (different
 * cyclesPerOp) with a known partial-image footprint. */
PageBinding
swapImage(const PageBinding &old, uint64_t image_bytes,
          double cycles_per_op)
{
    PageBinding nb = old;
    nb.cyclesPerOp = cycles_per_op;
    nb.imageBytes = image_bytes;
    nb.imageHash = 0x5eedf00dull + image_bytes;
    return nb;
}

/** Attach the quarantine fallback: the softcore binary of @p fn at
 * @p tier (the compiler attaches -Os by default; -O0 is the
 * paper-faithful baseline). */
void
attachFallback(PageBinding &nb, const OperatorFn &fn,
               rvgen::Tier tier = rvgen::Tier::O0)
{
    rvgen::RvOptions ro;
    ro.tier = tier;
    nb.hasFallback = true;
    nb.fallbackElf = rvgen::compileToRiscv(fn, ro).elf;
}

SystemConfig
swapCfg(const std::string &faults = "")
{
    SystemConfig cfg;
    cfg.useNoc = true;
    if (!faults.empty())
        cfg.faults = FaultPlan::parse(faults);
    return cfg;
}

} // namespace

// -------- drain / quiesce golden equivalence ------------------------

TEST(Swap, MidRunSwapPreservesAllOutputWords)
{
    // A re-timed image is swapped onto a1's page while the pipeline
    // is streaming. The swap engine must drain only the target leaf;
    // every in-flight flit of the rest of the system survives, so the
    // output is word-for-word identical to a run with no swap at all.
    const int n = 256;
    Graph g = makePipeline(n);

    SystemSim ref(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    ref.loadInput(0, iota(n));
    ASSERT_TRUE(ref.run().completed);
    auto golden = ref.takeOutput(0);

    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    PageBinding nb = swapImage(hwBinding(g, 0, 0), 1024, 3.0);
    sim.requestSwap(0, nb, /*at_cycle=*/50);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    EXPECT_EQ(sim.takeOutput(0), golden)
        << "a hot swap must not lose or reorder any word";

    ASSERT_EQ(sim.swapHistory().size(), 1u);
    const SwapResult &r = sim.swapHistory()[0];
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.packets, 1024u / 128u);
    EXPECT_EQ(r.retransmits, 0u);
    EXPECT_EQ(r.rollbacks, 0);
    EXPECT_FALSE(r.watchdogFired);
}

TEST(Swap, QueuedSwapStillRunsWhenWorkDrainsEarly)
{
    // The requested start cycle lies beyond the workload: the run
    // must not strand the queued swap — it starts once the pages go
    // quiet and completes before run() returns.
    const int n = 16;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    sim.requestSwap(0, swapImage(hwBinding(g, 0, 0), 256, 2.0),
                    /*at_cycle=*/10000000ull);
    sim.loadInput(0, iota(n));
    auto rs = sim.run();
    ASSERT_TRUE(rs.completed);
    ASSERT_EQ(sim.swapHistory().size(), 1u);
    EXPECT_EQ(sim.swapHistory()[0].outcome, SwapOutcome::Swapped);
}

TEST(Swap, SynchronousSwapBetweenBatches)
{
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto out1 = sim.takeOutput(0);
    ASSERT_EQ(out1.size(), static_cast<size_t>(n));

    // 1000 bytes / 128-byte packets -> 8 packets.
    SwapResult r =
        sim.swapPage(5, swapImage(hwBinding(g, 1, 5), 1000, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.packets, 8u);
    EXPECT_EQ(r.attempts, 1);
    EXPECT_GT(r.cycles, 0u);

    // The swapped page still computes: batch 2 matches batch 1.
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    EXPECT_EQ(sim.takeOutput(0), out1);
}

TEST(Swap, FunctionEditSwapRestartsOperator)
{
    // A function-changing swap (the edit→recompile→hot-swap loop):
    // after the swap the page runs the edited operator from its entry
    // state, so the next batch computes the new function.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto out1 = sim.takeOutput(0);
    for (int i = 0; i < n; ++i)
        ASSERT_EQ(out1[i], static_cast<uint32_t>(i + 11));

    OperatorFn edited = makeAddK("a2", 100, n);
    PageBinding nb = swapImage(hwBinding(g, 1, 5), 512, 1.0);
    nb.cyclesPerOp = hls::analyzeOperator(edited).cyclesPerOp();
    SwapResult r = sim.swapPage(5, nb, &edited);
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);

    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto out2 = sim.takeOutput(0);
    ASSERT_EQ(out2.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out2[i], static_cast<uint32_t>(i + 1 + 100));
}

// -------- CRC, retransmit, backoff ----------------------------------

TEST(Swap, CrcCorruptionRetransmitsAndHeals)
{
    // Every packet's first two transmissions are corrupted in flight;
    // the page's CRC-32 check NAKs each one and the third try lands.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1*2"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.packets, 4u);
    EXPECT_EQ(r.crcErrors, 2u * 4u);
    EXPECT_EQ(r.retransmits, r.crcErrors);
    EXPECT_EQ(r.drops, 0u);
    EXPECT_EQ(r.rollbacks, 0);
}

TEST(Swap, DroppedPacketsDetectedByAckTimeout)
{
    // Each packet's first transmission is dropped; the sender only
    // learns via the ack timeout, so the swap takes measurably longer
    // than the fault-free one but still succeeds.
    const int n = 8;
    Graph g = makePipeline(n);

    SystemSim clean(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                    swapCfg());
    SwapResult rc =
        clean.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    ASSERT_EQ(rc.outcome, SwapOutcome::Swapped);

    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_drop:a1*1"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.drops, 4u);
    EXPECT_EQ(r.retransmits, 4u);
    EXPECT_EQ(r.crcErrors, 0u);
    EXPECT_GT(r.cycles, rc.cycles)
        << "ack timeouts and backoff must cost cycles";
}

TEST(Swap, RetransmitExhaustionRollsBackThenSucceeds)
{
    // Attempt 0 (fault coordinates 0..15) can never deliver packet 0:
    // five corrupted transmissions exhaust the retransmit budget and
    // the engine rolls back to the old image. Attempt 1 (coordinates
    // 16+) sees two corruptions per packet and completes.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1*18"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(r.rollbacks, 1);
    // Attempt 0: 5 corruptions, 4 retransmits (the 5th aborts).
    // Attempt 1: 2 corruptions + 2 retransmits per packet, 4 packets.
    EXPECT_EQ(r.crcErrors, 5u + 2u * 4u);
    EXPECT_EQ(r.retransmits, 4u + 2u * 4u);
    EXPECT_FALSE(r.watchdogFired);
}

// -------- watchdog, rollback, quarantine ----------------------------

TEST(Swap, PageHangTripsWatchdogThenRetrySucceeds)
{
    // The first activation hangs (the page never reports up); only
    // the watchdog can notice. It aborts the attempt, the engine
    // rolls back, and the second attempt activates cleanly.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("page_hang:a2*1"));
    SwapResult r =
        sim.swapPage(5, swapImage(hwBinding(g, 1, 5), 256, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_TRUE(r.watchdogFired);
    EXPECT_EQ(r.rollbacks, 1);
    EXPECT_EQ(r.attempts, 2);
}

TEST(Swap, DmaStallAddsExactlyItsCycles)
{
    const int n = 8;
    Graph g = makePipeline(n);

    SystemSim clean(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                    swapCfg());
    SwapResult rc =
        clean.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));

    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("dma_stall:a1*1"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
    EXPECT_EQ(r.dmaStalls, 1u);
    EXPECT_EQ(r.cycles, rc.cycles + sys::kSwapDmaStallCycles)
        << "a stalled config channel freezes for exactly its window";
}

TEST(Swap, QuarantinePinsPageToSoftcoreFallback)
{
    // Corruption never stops: both attempts exhaust their retransmit
    // budgets, and after the final rollback the page is quarantined
    // onto its -O0 softcore fallback — the runtime's mixed-mode
    // continuation of the compile-time retry ladder.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1"));
    PageBinding nb = swapImage(hwBinding(g, 0, 0), 512, 2.0);
    attachFallback(nb, g.ops[0].fn);
    SwapResult r = sim.swapPage(0, nb);
    EXPECT_EQ(r.outcome, SwapOutcome::Quarantined);
    EXPECT_EQ(r.attempts, 2);
    EXPECT_EQ(r.rollbacks, 2);
    EXPECT_EQ(r.crcErrors, 10u);
    EXPECT_TRUE(sim.pageQuarantined(0));
    EXPECT_EQ(sim.pageImpl(0), PageImpl::Softcore);

    // Quarantine is sticky: further swaps are rejected outright.
    SwapResult again = sim.swapPage(0, nb);
    EXPECT_EQ(again.outcome, SwapOutcome::Rejected);

    // The fallback implements the same function: the app still runs
    // and produces the correct words.
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto out = sim.takeOutput(0);
    ASSERT_EQ(out.size(), static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<uint32_t>(i + 11));
}

TEST(Swap, QuarantineOsFallbackMatchesO0AndFaultFree)
{
    // A page quarantined onto an -Os fallback image must produce the
    // same words as the -O0 fallback and as the never-faulted run —
    // the optimizing tier is invisible to the fault-containment
    // story.
    const int n = 8;
    Graph g = makePipeline(n);

    SystemSim ref(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    ref.loadInput(0, iota(n));
    ASSERT_TRUE(ref.run().completed);
    auto golden = ref.takeOutput(0);

    auto quarantined = [&](rvgen::Tier tier) {
        SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                      swapCfg("config_corrupt:a1"));
        PageBinding nb = swapImage(hwBinding(g, 0, 0), 512, 2.0);
        attachFallback(nb, g.ops[0].fn, tier);
        EXPECT_EQ(sim.swapPage(0, nb).outcome,
                  SwapOutcome::Quarantined);
        EXPECT_EQ(sim.pageImpl(0), PageImpl::Softcore);
        sim.loadInput(0, iota(n));
        EXPECT_TRUE(sim.run().completed);
        return sim.takeOutput(0);
    };

    auto o0 = quarantined(rvgen::Tier::O0);
    auto os = quarantined(rvgen::Tier::Os);
    EXPECT_EQ(o0, golden);
    EXPECT_EQ(os, golden)
        << "-Os quarantine fallback diverged from fault-free run";
    EXPECT_EQ(os, o0);
}

TEST(Swap, QuarantineWithoutFallbackKeepsOldImage)
{
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Quarantined);
    EXPECT_TRUE(sim.pageQuarantined(0));
    EXPECT_EQ(sim.pageImpl(0), PageImpl::Hw)
        << "no fallback: the old image stays pinned";

    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto out = sim.takeOutput(0);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out[i], static_cast<uint32_t>(i + 11));
}

TEST(Swap, UnknownPageIsRejected)
{
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    SwapResult r =
        sim.swapPage(17, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    EXPECT_EQ(r.outcome, SwapOutcome::Rejected);
}

// -------- determinism -----------------------------------------------

TEST(Swap, FaultScenarioIsBitReproducible)
{
    // The whole scenario — drops, corruptions, rollbacks — is a pure
    // function of (seed, kind, op, attempt): two fresh systems agree
    // on every counter of the result, and both match the recorded
    // values, so a change that shifts every run alike still fails.
    const int n = 64;
    Graph g = makePipeline(n);
    auto run_once = [&](sys::RunStats &rs, SwapResult &r,
                        std::vector<uint32_t> &out) {
        SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                      swapCfg("config_corrupt:a1*18;config_drop:a2*1"));
        sim.requestSwap(0, swapImage(hwBinding(g, 0, 0), 512, 2.0),
                        /*at_cycle=*/40);
        sim.loadInput(0, iota(n));
        rs = sim.run();
        EXPECT_TRUE(rs.completed);
        out = sim.takeOutput(0);
        ASSERT_EQ(sim.swapHistory().size(), 1u);
        r = sim.swapHistory()[0];
    };
    for (int rep = 0; rep < 2; ++rep) {
        sys::RunStats rs;
        SwapResult r;
        std::vector<uint32_t> out;
        run_once(rs, r, out);
        EXPECT_EQ(rs.cycles, 1307u) << "rep " << rep;
        EXPECT_EQ(rs.configCycles, 21u);
        EXPECT_EQ(rs.noc.injected, 195u);
        EXPECT_EQ(rs.noc.delivered, 195u);
        EXPECT_EQ(rs.noc.deflections, 0u);
        EXPECT_EQ(rs.noc.totalHops, 1491u);
        EXPECT_EQ(r.outcome, SwapOutcome::Swapped);
        EXPECT_EQ(r.cycles, 661u);
        EXPECT_EQ(r.packets, 4u);
        EXPECT_EQ(r.retransmits, 12u);
        EXPECT_EQ(r.crcErrors, 13u);
        EXPECT_EQ(r.drops, 0u);
        EXPECT_EQ(r.attempts, 2);
        EXPECT_EQ(r.rollbacks, 1);
        ASSERT_EQ(out.size(), static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(out[i], static_cast<uint32_t>(i + 11));
    }
}

// -------- restarted pages and run completion ------------------------

TEST(Swap, RestartedSinkReadsItsLastWordBeforeCompleting)
{
    // Regression: a function-changing swap leaves the sink page
    // restartable, so it counts as quiescent while starved. Its only
    // input word can land in the same cycle it reported starved;
    // run() must not complete with that word unread (or carry it into
    // the next batch).
    Graph g = makePipeline(1);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    sim.loadInput(0, {3});
    ASSERT_TRUE(sim.run().completed);
    ASSERT_EQ(sim.takeOutput(0), std::vector<uint32_t>{3 + 11});

    OperatorFn edited = makeAddK("a2", 100, 1);
    PageBinding nb = swapImage(hwBinding(g, 1, 5), 512, 1.0);
    nb.cyclesPerOp = hls::analyzeOperator(edited).cyclesPerOp();
    ASSERT_EQ(sim.swapPage(5, nb, &edited).outcome, SwapOutcome::Swapped);

    for (uint32_t word : {7u, 20u}) {
        sim.loadInput(0, {word});
        ASSERT_TRUE(sim.run().completed);
        EXPECT_EQ(sim.takeOutput(0), std::vector<uint32_t>{word + 101})
            << "batch input " << word;
    }
}

// -------- observability ---------------------------------------------

TEST(Swap, TelemetryCountsEveryRecoveryAction)
{
    obs::ScopedTracer st;
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1*18"));
    SwapResult r =
        sim.swapPage(0, swapImage(hwBinding(g, 0, 0), 512, 2.0));
    ASSERT_EQ(r.outcome, SwapOutcome::Swapped);

    obs::MetricsSnapshot m = st.tracer().metrics().snapshot();
    EXPECT_EQ(m.counter("sys.swap.requests"), 1);
    EXPECT_EQ(m.counter("sys.swap.completed"), 1);
    EXPECT_EQ(m.counter("sys.swap.rollbacks"), 1);
    EXPECT_EQ(m.counter("sys.swap.crc_errors"),
              static_cast<int64_t>(r.crcErrors));
    EXPECT_EQ(m.counter("sys.swap.retransmits"),
              static_cast<int64_t>(r.retransmits));
    const obs::DistSummary *d = m.dist("sys.swap.cycles");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count, 1u);
    EXPECT_DOUBLE_EQ(d->max, static_cast<double>(r.cycles));
}

TEST(Swap, RunTimeoutEmitsCounterAndCompletedFalse)
{
    // Satellite: a run that hits max_cycles returns completed=false
    // AND leaves a loud sys.run.timeout mark in the telemetry.
    obs::ScopedTracer st;
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    sim.loadInput(0, iota(n / 2)); // starve the pipeline
    auto rs = sim.run(20000);
    EXPECT_FALSE(rs.completed);

    obs::MetricsSnapshot m = st.tracer().metrics().snapshot();
    EXPECT_EQ(m.counter("sys.run.timeouts"), 1);
    bool saw_instant = false;
    for (const obs::Event *e : st.tracer().allEvents())
        saw_instant |= e->name == "sys.run.timeout";
    EXPECT_TRUE(saw_instant);
}

// -------- admission: requestSwap rejection paths --------------------

TEST(Swap, RequestSwapRejectsStructurally)
{
    // Satellite: every doomed request is rejected at queueing time
    // with a structured diagnostic, never queued to fail silently.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg());
    PageBinding nb0 = swapImage(hwBinding(g, 0, 0), 256, 2.0);
    PageBinding nb5 = swapImage(hwBinding(g, 1, 5), 256, 2.0);

    // Unknown page: permanent.
    SwapRequestResult r = sim.requestSwap(17, nb0, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.diag.code, CompileCode::SwapRejected);
    EXPECT_EQ(r.diag.stage, CompileStage::Swap);
    EXPECT_EQ(r.diag.page, 17);
    EXPECT_FALSE(r.diag.retriable);

    EXPECT_TRUE(sim.requestSwap(0, nb0, 0).accepted);
    EXPECT_EQ(sim.pendingSwapRequests(), 1u);

    // Duplicate target: conflicting images cannot be queued.
    r = sim.requestSwap(0, nb0, 100);
    EXPECT_FALSE(r.accepted);
    EXPECT_TRUE(r.diag.retriable);
    EXPECT_NE(r.diag.detail.find("already targets"),
              std::string::npos);

    // Queue bound.
    EXPECT_TRUE(sim.requestSwap(5, nb5, 0).accepted);
    r = sim.requestSwap(5, nb5, 200);
    EXPECT_FALSE(r.accepted); // duplicate fires first
    EXPECT_EQ(sim.pendingSwapRequests(), 2u);
    // A chain of kSwapQueueDepth + 1 pages: every page but the last
    // queues a swap, which fills the queue.
    const int k = static_cast<int>(sys::kSwapQueueDepth) + 1;
    Graph chain = makeChain(k, n);
    std::vector<PageBinding> chain_pages;
    for (int i = 0; i < k; ++i)
        chain_pages.push_back(hwBinding(chain, i, i));
    SystemSim sim2(chain, chain_pages, swapCfg());
    for (int i = 0; i + 1 < k; ++i)
        EXPECT_TRUE(
            sim2.requestSwap(i, swapImage(chain_pages[i], 256, 2.0), 0)
                .accepted);
    PageBinding last = swapImage(chain_pages[k - 1], 512, 2.0);
    r = sim2.requestSwap(k - 1, last, 300); // kSwapQueueDepth reached
    EXPECT_FALSE(r.accepted);
    EXPECT_TRUE(r.diag.retriable);
    EXPECT_NE(r.diag.detail.find("queue full"), std::string::npos);

    // Quarantined page: permanent.
    SystemSim sim3(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                   swapCfg("config_corrupt:a1"));
    PageBinding qb = swapImage(hwBinding(g, 0, 0), 512, 2.0);
    attachFallback(qb, g.ops[0].fn);
    ASSERT_EQ(sim3.swapPage(0, qb).outcome,
              SwapOutcome::Quarantined);
    r = sim3.requestSwap(0, qb, 0);
    EXPECT_FALSE(r.accepted);
    EXPECT_FALSE(r.diag.retriable);
    EXPECT_NE(r.diag.detail.find("quarantined"), std::string::npos);

    // The accepted queue still executes: both queued swaps land.
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    EXPECT_EQ(sim.pendingSwapRequests(), 0u);
    EXPECT_EQ(sim.swapHistory().size(), 2u);
}

// -------- quarantine vs re-arm regression ---------------------------

TEST(Swap, QuarantinedPageStaysPinnedAcrossBatches)
{
    // Regression: re-arming pages for batch 2 must not disturb a
    // quarantined page — the softcore fallback stays pinned and
    // computes the same function, so every later batch matches the
    // pre-quarantine golden word-for-word.
    const int n = 8;
    Graph g = makePipeline(n);
    SystemSim sim(g, {hwBinding(g, 0, 0), hwBinding(g, 1, 5)},
                  swapCfg("config_corrupt:a1"));
    sim.loadInput(0, iota(n));
    ASSERT_TRUE(sim.run().completed);
    auto golden = sim.takeOutput(0);
    ASSERT_EQ(golden.size(), static_cast<size_t>(n));

    PageBinding nb = swapImage(hwBinding(g, 0, 0), 512, 2.0);
    attachFallback(nb, g.ops[0].fn);
    ASSERT_EQ(sim.swapPage(0, nb).outcome,
              SwapOutcome::Quarantined);
    ASSERT_EQ(sim.pageImpl(0), PageImpl::Softcore);

    for (int batch = 2; batch <= 3; ++batch) {
        sim.loadInput(0, iota(n));
        ASSERT_TRUE(sim.run().completed) << "batch " << batch;
        EXPECT_EQ(sim.takeOutput(0), golden) << "batch " << batch;
        EXPECT_TRUE(sim.pageQuarantined(0)) << "batch " << batch;
        EXPECT_EQ(sim.pageImpl(0), PageImpl::Softcore)
            << "re-arm must not resurrect the quarantined image";
    }
}
