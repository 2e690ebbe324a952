/**
 * Multi-tenant fabric scheduler tests: admission control, bounded
 * request queues, DRR fairness over page-cycles, checkpoint/restore
 * across evictions (outputs bit-identical to a solo run), per-tenant
 * fault containment (a hostile tenant's scoped faults are retried,
 * rolled back, and quarantined without perturbing any neighbour),
 * the tenant-level hang watchdog with retry budget and terminal
 * failure, and scheduler determinism.
 */

#include <gtest/gtest.h>

#include "hls/schedule.h"
#include "ir/builder.h"
#include "rvgen/codegen.h"
#include "sys/tenancy.h"

using namespace pld;
using namespace pld::ir;
using sys::AdmitResult;
using sys::BatchOutput;
using sys::PageBinding;
using sys::PageImpl;
using sys::SchedStats;
using sys::SubmitResult;
using sys::SystemConfig;
using sys::SystemSim;
using sys::TenantLimits;
using sys::TenantScheduler;
using sys::TenantSpec;
using sys::TenantState;

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
iota(int n, uint32_t base = 0)
{
    std::vector<uint32_t> v;
    for (int i = 0; i < n; ++i)
        v.push_back(base + static_cast<uint32_t>(i));
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
    b.imageBytes = 512;
    b.imageHash = 0xabcd0000ull + static_cast<uint64_t>(page);
    b.hasFallback = true;
    b.fallbackElf = rvgen::compileToRiscv(g.ops[op].fn).elf;
    return b;
}

TenantSpec
makeTenant(const std::string &name, const Graph &g,
           const std::string &faults = "")
{
    TenantSpec spec;
    spec.name = name;
    spec.graph = &g;
    spec.bindings = {hwBinding(g, 0, 0), hwBinding(g, 1, 5)};
    spec.sysCfg.useNoc = true;
    if (!faults.empty())
        spec.sysCfg.faults = FaultPlan::parse(faults);
    return spec;
}

/** Golden: the tenant's app run solo on a dedicated SystemSim, one
 * run() per batch. */
std::vector<std::vector<uint32_t>>
soloGolden(const Graph &g, const TenantSpec &spec,
           const std::vector<std::vector<uint32_t>> &batches)
{
    SystemConfig cfg = spec.sysCfg;
    cfg.faults = FaultPlan{}; // clean reference run
    SystemSim sim(g, spec.bindings, cfg);
    std::vector<std::vector<uint32_t>> out;
    for (const auto &batch : batches) {
        sim.loadInput(0, batch);
        EXPECT_TRUE(sim.run().completed);
        out.push_back(sim.takeOutput(0));
    }
    return out;
}

} // namespace

// -------- admission control -----------------------------------------

TEST(Tenancy, AdmissionRejectsInvalidSpecs)
{
    const int n = 8;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.maxTenants = 2;
    TenantScheduler sched(lim);

    auto expectRejected = [](const AdmitResult &r, bool retriable) {
        EXPECT_FALSE(r.accepted);
        EXPECT_EQ(r.tenantId, -1);
        EXPECT_EQ(r.diag.code, CompileCode::AdmissionRejected);
        EXPECT_EQ(r.diag.stage, CompileStage::Tenancy);
        EXPECT_EQ(r.diag.retriable, retriable);
        EXPECT_FALSE(r.diag.detail.empty());
    };

    TenantSpec bad = makeTenant("", g);
    expectRejected(sched.admit(bad), false);

    bad = makeTenant("a/b", g);
    expectRejected(sched.admit(bad), false);

    bad = makeTenant("nograph", g);
    bad.graph = nullptr;
    expectRejected(sched.admit(bad), false);

    bad = makeTenant("nopages", g);
    bad.bindings.clear();
    expectRejected(sched.admit(bad), false);

    bad = makeTenant("duppage", g);
    bad.bindings[1].pageId = bad.bindings[0].pageId;
    expectRejected(sched.admit(bad), false);

    AdmitResult ok = sched.admit(makeTenant("t0", g));
    ASSERT_TRUE(ok.accepted);
    EXPECT_EQ(ok.tenantId, 0);

    expectRejected(sched.admit(makeTenant("t0", g)), false);

    ok = sched.admit(makeTenant("t1", g));
    ASSERT_TRUE(ok.accepted);
    EXPECT_EQ(ok.tenantId, 1);

    // maxTenants reached: the only retriable rejection.
    expectRejected(sched.admit(makeTenant("t2", g)), true);
}

TEST(Tenancy, AdmissionRejectsOversizedFootprint)
{
    const int n = 8;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.fabricPages = 1; // two-page tenant can never be resident
    TenantScheduler sched(lim);
    AdmitResult r = sched.admit(makeTenant("wide", g));
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.diag.detail.find("could never become resident"),
              std::string::npos)
        << r.diag.detail;
}

TEST(Tenancy, SubmitValidatesShapeAndBoundsQueue)
{
    const int n = 8;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.requestQueueDepth = 2;
    TenantScheduler sched(lim);
    int id = sched.admit(makeTenant("t0", g)).tenantId;
    ASSERT_GE(id, 0);

    SubmitResult r = sched.submit(99, {iota(n)});
    EXPECT_FALSE(r.accepted);
    EXPECT_FALSE(r.diag.retriable);

    r = sched.submit(id, {iota(n), iota(n)}); // graph has 1 ext in
    EXPECT_FALSE(r.accepted);
    EXPECT_NE(r.diag.detail.find("input streams"),
              std::string::npos);

    EXPECT_TRUE(sched.submit(id, {iota(n)}).accepted);
    EXPECT_TRUE(sched.submit(id, {iota(n)}).accepted);
    r = sched.submit(id, {iota(n)}); // queue full
    EXPECT_FALSE(r.accepted);
    EXPECT_TRUE(r.diag.retriable);
    EXPECT_EQ(sched.tenantStats(id).rejectedSubmits, 1u);

    // run() drains the queue; a resubmit is then admitted.
    EXPECT_TRUE(sched.run().allWorkDone);
    EXPECT_TRUE(sched.submit(id, {iota(n)}).accepted);
}

// -------- correctness: solo equivalence -----------------------------

TEST(Tenancy, SingleTenantMatchesDirectRun)
{
    const int n = 64;
    Graph g = makePipeline(n);
    TenantSpec spec = makeTenant("solo", g);
    std::vector<std::vector<uint32_t>> batches = {iota(n),
                                                  iota(n, 1000)};
    auto golden = soloGolden(g, spec, batches);

    TenantScheduler sched;
    int id = sched.admit(spec).tenantId;
    ASSERT_GE(id, 0);
    for (const auto &b : batches)
        ASSERT_TRUE(sched.submit(id, {b}).accepted);

    SchedStats ss = sched.run();
    EXPECT_TRUE(ss.allWorkDone);
    auto out = sched.takeOutput(id);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].streams[0], golden[0]);
    EXPECT_EQ(out[1].streams[0], golden[1]);
    EXPECT_GT(out[0].latencyCycles, 0u);
    EXPECT_EQ(sched.tenantStats(id).batchesDone, 2u);
    EXPECT_GT(sched.tenantStats(id).latencyP50, 0u);
}

TEST(Tenancy, TimeSharingAcrossEvictionsPreservesOutputs)
{
    // Three 2-page tenants on a 2-page grid: every instatement
    // evicts the previous tenant, and a small slice forces the
    // evictions to land mid-batch. Checkpoint (drain; leaf FIFO
    // words survive) + reinstate (identical-image swap restores
    // execution state) must make every tenant's outputs
    // word-for-word identical to its solo run.
    const int n = 96;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.fabricPages = 2;
    lim.sliceCycles = 300;
    lim.drrQuantum = 600;
    TenantScheduler sched(lim);

    std::vector<int> ids;
    std::vector<std::vector<std::vector<uint32_t>>> goldens;
    for (int t = 0; t < 3; ++t) {
        TenantSpec spec = makeTenant("t" + std::to_string(t), g);
        std::vector<std::vector<uint32_t>> batches = {
            iota(n, static_cast<uint32_t>(1000 * t))};
        goldens.push_back(soloGolden(g, spec, batches));
        int id = sched.admit(spec).tenantId;
        ASSERT_GE(id, 0);
        ASSERT_TRUE(sched.submit(id, {batches[0]}).accepted);
        ids.push_back(id);
    }

    SchedStats ss = sched.run();
    EXPECT_TRUE(ss.allWorkDone);
    EXPECT_GT(ss.evictions, 0u)
        << "a 2-page grid with three 2-page tenants must evict";
    for (size_t t = 0; t < ids.size(); ++t) {
        auto out = sched.takeOutput(ids[t]);
        ASSERT_EQ(out.size(), 1u) << "tenant " << t;
        EXPECT_EQ(out[0].streams[0], goldens[t][0])
            << "tenant " << t
            << ": eviction/reinstatement corrupted the batch";
    }
    // Reinstatement streamed images through the swap path.
    EXPECT_GT(ss.tenants[1].reinstateCycles +
                  ss.tenants[2].reinstateCycles,
              0u);
}

// -------- fairness --------------------------------------------------

TEST(Tenancy, DrrIsFairAcrossEqualTenants)
{
    const int n = 128;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.fabricPages = 2; // force time-sharing
    lim.sliceCycles = 200;
    lim.drrQuantum = 800;
    TenantScheduler sched(lim);

    std::vector<int> ids;
    for (int t = 0; t < 4; ++t) {
        int id =
            sched.admit(makeTenant("t" + std::to_string(t), g))
                .tenantId;
        ASSERT_GE(id, 0);
        for (int b = 0; b < 2; ++b)
            ASSERT_TRUE(
                sched.submit(id, {iota(n)}).accepted);
        ids.push_back(id);
    }
    SchedStats ss = sched.run();
    EXPECT_TRUE(ss.allWorkDone);
    EXPECT_GE(ss.jainFairness, 0.95)
        << "equal tenants with equal work must get near-equal "
           "page-cycles";

    uint64_t lo = UINT64_MAX, hi = 0;
    for (int id : ids) {
        uint64_t x = sched.tenantStats(id).servedPageCycles;
        lo = std::min(lo, x);
        hi = std::max(hi, x);
        EXPECT_EQ(sched.tenantStats(id).batchesDone, 2u);
    }
    // DRR bound: the spread stays within one quantum plus one
    // maximal slice overshoot per rotation — use 2x quantum as the
    // generous structural bound.
    EXPECT_LE(hi - lo, 2 * lim.drrQuantum + 2 * lim.sliceCycles *
                                                g.ops.size())
        << "DRR deficit bound violated: " << lo << " vs " << hi;
}

// -------- fault containment -----------------------------------------

TEST(Tenancy, HostileTenantIsContainedAndNeighboursUnperturbed)
{
    // The acceptance scenario: 4 tenants share a grid; every
    // tenant's config carries the SAME fault plan, scoped by name to
    // the hostile tenant only — its config streams corrupt (heals
    // under retransmit) and its pages hang after every swap (rolls
    // back, then quarantines onto the softcore fallback). Every
    // other tenant must produce outputs bit-identical to its solo
    // run, and the hostile tenant's outputs stay correct too (the
    // fallback computes the same function).
    const int n = 64;
    Graph g = makePipeline(n);
    const std::string plan =
        "config_corrupt:hostile/a1*2;page_hang:hostile/a2";
    TenantLimits lim;
    lim.fabricPages = 4; // two of four 2-page tenants resident
    lim.sliceCycles = 400;
    lim.drrQuantum = 1600;
    lim.hangSliceLimit = 12; // hostile swaps are slow, not hung
    TenantScheduler sched(lim);

    std::vector<std::string> names = {"t0", "hostile", "t2", "t3"};
    std::vector<int> ids;
    std::vector<std::vector<std::vector<uint32_t>>> goldens;
    for (size_t t = 0; t < names.size(); ++t) {
        TenantSpec spec = makeTenant(names[t], g, plan);
        std::vector<std::vector<uint32_t>> batches = {
            iota(n, static_cast<uint32_t>(100 * t)),
            iota(n, static_cast<uint32_t>(100 * t + 50))};
        goldens.push_back(soloGolden(g, spec, batches));
        int id = sched.admit(spec).tenantId;
        ASSERT_GE(id, 0);
        for (const auto &b : batches)
            ASSERT_TRUE(sched.submit(id, {b}).accepted);
        ids.push_back(id);
    }

    // Mid-run hot swap on the hostile tenant's a2 page: activation
    // hangs (page_hang:hostile/a2) on both attempts, so the swap
    // engine must watchdog, roll back, and finally quarantine the
    // page onto its softcore fallback.
    PageBinding nb = hwBinding(g, 1, 5);
    nb.imageBytes = 512;
    nb.imageHash = 0x1111u;
    ASSERT_TRUE(
        sched.requestTenantSwap(ids[1], 5, nb).accepted);

    SchedStats ss = sched.run();
    EXPECT_TRUE(ss.allWorkDone);

    for (size_t t = 0; t < ids.size(); ++t) {
        auto out = sched.takeOutput(ids[t]);
        ASSERT_EQ(out.size(), 2u) << names[t] << " starved";
        EXPECT_EQ(out[0].streams[0], goldens[t][0]) << names[t];
        EXPECT_EQ(out[1].streams[0], goldens[t][1]) << names[t];
        EXPECT_EQ(sched.tenantState(ids[t]), TenantState::Active);
    }

    // The hostile tenant wore the faults...
    auto hostile = sched.tenantStats(ids[1]);
    EXPECT_GE(hostile.rollbacks, 1u)
        << "page_hang must trip the watchdog and roll back";
    EXPECT_GE(hostile.quarantinedPages, 1u)
        << "repeated hangs must quarantine the page";
    EXPECT_GE(hostile.retransmits, 1u)
        << "config_corrupt must retransmit";
    // ...and nobody else did.
    for (size_t t = 0; t < ids.size(); ++t) {
        if (t == 1)
            continue;
        auto s = sched.tenantStats(ids[t]);
        EXPECT_EQ(s.rollbacks, 0u) << names[t];
        EXPECT_EQ(s.quarantinedPages, 0u) << names[t];
        EXPECT_EQ(s.faultEvents, 0u) << names[t];
    }
}

TEST(Tenancy, HungTenantFailsTerminallyWithoutStarvingOthers)
{
    // A deadlocked tenant (its batch is short of the words its loop
    // expects) makes no progress: the scheduler's hang watchdog must
    // evict it, back off, retry until the budget is exhausted, then
    // fail it terminally and return its pages — while the healthy
    // tenant's batches all complete with correct outputs.
    const int n = 64;
    Graph g = makePipeline(n);
    TenantLimits lim;
    lim.fabricPages = 2;
    lim.sliceCycles = 300;
    lim.drrQuantum = 1200;
    lim.hangSliceLimit = 3;
    lim.retryBudget = 1;
    lim.backoffBaseRounds = 1;
    TenantScheduler sched(lim);

    TenantSpec good = makeTenant("good", g);
    TenantSpec dead = makeTenant("dead", g);
    int gid = sched.admit(good).tenantId;
    int did = sched.admit(dead).tenantId;
    ASSERT_GE(gid, 0);
    ASSERT_GE(did, 0);

    auto golden = soloGolden(g, good, {iota(n), iota(n, 500)});
    ASSERT_TRUE(sched.submit(gid, {iota(n)}).accepted);
    ASSERT_TRUE(sched.submit(gid, {iota(n, 500)}).accepted);
    ASSERT_TRUE(sched.submit(did, {iota(8)}).accepted); // deadlock

    SchedStats ss = sched.run();
    EXPECT_TRUE(ss.allWorkDone);

    auto out = sched.takeOutput(gid);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].streams[0], golden[0]);
    EXPECT_EQ(out[1].streams[0], golden[1]);
    EXPECT_EQ(sched.tenantState(gid), TenantState::Active);

    EXPECT_EQ(sched.tenantState(did), TenantState::Failed);
    auto ds = sched.tenantStats(did);
    EXPECT_GE(ds.hangs, 2u) << "one hang per retry plus the last";
    EXPECT_EQ(ds.faultEvents, 2u)
        << "retryBudget=1: one retried event, one terminal";
    EXPECT_EQ(ds.droppedRequests, 1u);
    EXPECT_EQ(ds.failure.code, CompileCode::TenantFaulted);
    EXPECT_FALSE(ds.failure.retriable);

    // Its pages went back to the grid: at most `good` still holds
    // slots (it may itself have been evicted by the dead tenant's
    // final retry and never re-instated — it had no work left).
    EXPECT_LE(sched.residentPages(), 2);
    // ...and new work is refused with the terminal diagnostic.
    SubmitResult r = sched.submit(did, {iota(n)});
    EXPECT_FALSE(r.accepted);
    EXPECT_EQ(r.diag.code, CompileCode::TenantFaulted);
}

// -------- determinism -----------------------------------------------

TEST(Tenancy, ScheduleIsBitReproducible)
{
    // The whole hostile scenario — evictions, reinstatement swaps,
    // injected faults, DRR rotation — must be a pure function of
    // its inputs: two fresh schedulers produce identical outputs,
    // identical per-tenant accounting, and an identical fabric
    // clock, all equal to the recorded values.
    const int n = 48;
    Graph g = makePipeline(n);
    const std::string plan = "config_corrupt:hostile/a1*2";

    auto runOnce = [&](std::vector<std::vector<BatchOutput>> *outs) {
        TenantLimits lim;
        lim.fabricPages = 2;
        lim.sliceCycles = 250;
        lim.drrQuantum = 1000;
        TenantScheduler sched(lim);
        std::vector<int> ids;
        for (const char *name : {"t0", "hostile", "t2"}) {
            int id = sched.admit(makeTenant(name, g, plan)).tenantId;
            EXPECT_GE(id, 0);
            EXPECT_TRUE(sched.submit(id, {iota(n)}).accepted);
            ids.push_back(id);
        }
        SchedStats ss = sched.run();
        for (int id : ids)
            outs->push_back(sched.takeOutput(id));
        return ss;
    };

    std::vector<std::vector<BatchOutput>> out1, out2;
    SchedStats a = runOnce(&out1);
    SchedStats b = runOnce(&out2);

    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.slices, b.slices);
    EXPECT_EQ(a.virtualCycles, b.virtualCycles);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_DOUBLE_EQ(a.jainFairness, b.jainFairness);
    ASSERT_EQ(out1.size(), out2.size());
    for (size_t t = 0; t < out1.size(); ++t) {
        ASSERT_EQ(out1[t].size(), out2[t].size());
        for (size_t i = 0; i < out1[t].size(); ++i) {
            EXPECT_EQ(out1[t][i].streams, out2[t][i].streams);
            EXPECT_EQ(out1[t][i].latencyCycles,
                      out2[t][i].latencyCycles);
        }
        EXPECT_EQ(a.tenants[t].servedPageCycles,
                  b.tenants[t].servedPageCycles);
        EXPECT_EQ(a.tenants[t].slices, b.tenants[t].slices);
    }

    EXPECT_EQ(a.rounds, 1u);
    EXPECT_EQ(a.slices, 6u);
    EXPECT_EQ(a.virtualCycles, 1917u);
    EXPECT_EQ(a.evictions, 2u);
    EXPECT_EQ(a.instatements, 3u);
    EXPECT_DOUBLE_EQ(a.jainFairness, 1.0);
    const uint64_t latency[] = {639, 1278, 1917}; // t0, hostile, t2
    ASSERT_EQ(a.tenants.size(), 3u);
    for (size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(a.tenants[t].servedPageCycles, 1278u) << t;
        EXPECT_EQ(a.tenants[t].slices, 2u) << t;
        EXPECT_EQ(a.tenants[t].rollbacks, 0u) << t;
        EXPECT_EQ(a.tenants[t].retransmits, 0u) << t;
        EXPECT_EQ(a.tenants[t].quarantinedPages, 0u) << t;
        ASSERT_EQ(out1[t].size(), 1u) << t;
        EXPECT_EQ(out1[t][0].latencyCycles, latency[t]) << t;
    }
}
