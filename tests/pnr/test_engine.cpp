#include <gtest/gtest.h>

#include "fabric/device.h"
#include "hls/compiler.h"
#include "hls/synthesis.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "pnr/engine.h"

using namespace pld;
using namespace pld::ir;
using namespace pld::pnr;
using fabric::Device;
using fabric::makeU50;
using fabric::Rect;

namespace {

const Device &
device()
{
    static Device d = makeU50();
    return d;
}

OperatorFn
makeKernel(const std::string &name, int taps)
{
    OpBuilder b(name);
    auto in = b.input("in");
    auto out = b.output("out");
    auto w = b.array("w", Type::fx(16, 8), taps);
    auto acc = b.var("acc", Type::fx(32, 17));
    b.forLoop(0, taps, [&](Ex i) {
        b.store(w, i, b.read(in).bitcast(Type::fx(16, 8)));
    });
    b.forLoop(0, 256, [&](Ex i) {
        Ex x = b.read(in).bitcast(Type::fx(32, 17));
        b.set(acc, Ex(acc) + x * w[i % lit(taps)]);
        b.write(out, acc);
    });
    return b.finish();
}

netlist::Netlist
compiled(const std::string &name, int taps, bool leaf)
{
    auto r = hls::compileOperator(makeKernel(name, taps), leaf);
    hls::synthesize(r.net);
    return std::move(r.net);
}

} // namespace

TEST(Engine, PageCompileSucceeds)
{
    auto nl = compiled("k1", 8, true);
    PnrOptions opts;
    opts.effort = 0.3;
    PnrResult res =
        placeAndRoute(nl, device(), device().pages[0].rect, opts);
    EXPECT_TRUE(res.success);
    EXPECT_GT(res.timing.fmaxMHz, 50.0);
    EXPECT_LE(res.timing.fmaxMHz, 300.0);
    EXPECT_GT(res.bits.bytes, 0u);
}

TEST(Engine, BitstreamSizeTracksRegion)
{
    auto nl = compiled("k2", 8, true);
    Bitstream page_bits =
        generateBitstream(nl, device().pages[0].rect);
    Rect user{0, 0, 120, 576};
    Bitstream full_bits = generateBitstream(nl, user);
    // Partial bitstreams are much smaller (Sec 2.3: tens of KB vs
    // hundreds of MB full-chip; ratio matters, not absolutes).
    EXPECT_GT(full_bits.bytes, page_bits.bytes * 5);
}

TEST(Engine, BitstreamDeterministic)
{
    auto nl = compiled("k3", 8, true);
    Bitstream a = generateBitstream(nl, device().pages[0].rect);
    Bitstream b = generateBitstream(nl, device().pages[0].rect);
    EXPECT_EQ(a.hash, b.hash);
    EXPECT_EQ(a.bytes, b.bytes);
}

TEST(Engine, AbstractShellIsFaster)
{
    auto nl = compiled("k4", 8, true);
    PnrOptions with_shell;
    with_shell.effort = 0.2;
    with_shell.abstractShell = true;
    PnrOptions no_shell = with_shell;
    no_shell.abstractShell = false;

    PnrResult a =
        placeAndRoute(nl, device(), device().pages[0].rect, with_shell);
    PnrResult b =
        placeAndRoute(nl, device(), device().pages[0].rect, no_shell);
    EXPECT_EQ(a.contextSeconds, 0.0);
    EXPECT_GT(b.contextSeconds, 0.0)
        << "no abstract shell -> full context load (Sec 4.1)";
}

TEST(Engine, PageCompileFasterThanMonolithicRegion)
{
    // The headline mechanism: one operator into one page is much
    // cheaper than several operators into the whole user area.
    auto small = compiled("k5", 8, true);
    PnrOptions opts;
    opts.effort = 0.3;
    PnrResult page_res =
        placeAndRoute(small, device(), device().pages[0].rect, opts);

    netlist::Netlist big = compiled("k6", 8, false);
    for (int i = 0; i < 7; ++i)
        big.merge(compiled("k7_" + std::to_string(i), 8, false),
                  "m" + std::to_string(i) + "_");
    Rect user{0, 0, 120, 576};
    PnrResult mono_res = placeAndRoute(big, device(), user, opts);

    // Compare deterministic algorithmic work, not wall-clock (which
    // flakes under load): the monolithic run must attempt
    // super-linearly more annealing moves.
    EXPECT_GT(mono_res.place.pos.size(),
              page_res.place.pos.size() * 4);
    EXPECT_GT(mono_res.placeSeconds + mono_res.routeSeconds +
                  mono_res.contextSeconds,
              page_res.placeSeconds)
        << "monolithic p&r must cost more than one page compile";
}

TEST(Engine, TimingPenalizesUnpipelinedSlrCrossing)
{
    // Two cells forced on opposite SLRs.
    netlist::Netlist nl;
    int a = nl.addCell({netlist::SiteKind::Clb, "a", 4, 4, 2, 0, {}});
    int b = nl.addCell({netlist::SiteKind::Clb, "b", 4, 4, 2, 0, {}});
    int w = nl.addNet("cross", 32, a);
    nl.addSink(w, b);

    Placement p;
    p.pos = {{3, 10}, {3, 570}}; // SLR0 -> SLR1

    TimingResult plain = analyzeTiming(nl, device(), p);
    nl.nets[0].pipelined = true;
    TimingResult piped = analyzeTiming(nl, device(), p);
    EXPECT_GT(piped.fmaxMHz, plain.fmaxMHz);
    EXPECT_TRUE(plain.critCrossesSlr);
    EXPECT_FALSE(piped.critCrossesSlr);
}

TEST(Engine, InfeasibleRouteIsStructuredAndRetriable)
{
    // A failed route must be impossible to ignore: success goes
    // false and an Error-severity RouteInfeasible diagnostic is
    // attached, marked retriable so the compile manager knows the
    // ladder may help.
    auto nl = compiled("k9", 8, true);
    PnrOptions opts;
    opts.effort = 0.2;
    opts.injectRouteFail = true;
    PnrResult res =
        placeAndRoute(nl, device(), device().pages[0].rect, opts);
    EXPECT_FALSE(res.success);
    EXPECT_FALSE(res.routing.feasible);
    EXPECT_GE(res.routing.overusedTiles, 1);
    EXPECT_FALSE(res.status.ok());
    EXPECT_EQ(res.status.firstError(),
              CompileCode::RouteInfeasible);
    ASSERT_FALSE(res.status.diags.empty());
    EXPECT_TRUE(res.status.diags[0].retriable);
}

TEST(Engine, FmaxBelowRequiredClockIsTimingMiss)
{
    auto nl = compiled("k10", 8, true);
    PnrOptions opts;
    opts.effort = 0.2;
    opts.requiredFmaxMHz = 200.0;
    opts.injectFmaxDerate = 0.4;
    PnrResult res =
        placeAndRoute(nl, device(), device().pages[0].rect, opts);
    EXPECT_FALSE(res.timingMet);
    EXPECT_FALSE(res.success)
        << "a timing miss must fail the run, not just warn";
    EXPECT_LT(res.timing.fmaxMHz, 200.0);
    EXPECT_EQ(res.status.firstError(), CompileCode::TimingMiss);

    // Without a required clock the same derated run is a success:
    // only paged overlay compiles demand the 200 MHz closure.
    opts.requiredFmaxMHz = 0;
    PnrResult free_run =
        placeAndRoute(nl, device(), device().pages[0].rect, opts);
    EXPECT_TRUE(free_run.success);
    EXPECT_TRUE(free_run.status.ok());
}

TEST(Engine, StageTimesAccounted)
{
    auto nl = compiled("k8", 8, true);
    PnrOptions opts;
    opts.effort = 0.2;
    PnrResult res =
        placeAndRoute(nl, device(), device().pages[3].rect, opts);
    EXPECT_GT(res.placeSeconds, 0.0);
    EXPECT_GT(res.routeSeconds, 0.0);
    EXPECT_GE(res.totalSeconds, res.placeSeconds + res.routeSeconds);
}

TEST(Engine, RecordsPlacerNsPerMove)
{
    // One P&R run records one sample of placer CPU time per annealing
    // move, so PLD_METRICS shows placer cost without a profiler.
    auto nl = compiled("k9", 8, true);
    obs::ScopedTracer st;
    PnrOptions opts;
    opts.effort = 0.2;
    PnrResult res =
        placeAndRoute(nl, device(), device().pages[4].rect, opts);
    obs::MetricsSnapshot s = st.tracer().metrics().snapshot();
    const obs::DistSummary *d = s.dist("pnr.place.ns_per_move");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count, 1u);
    EXPECT_GT(d->min, 0.0);
    EXPECT_DOUBLE_EQ(d->min, res.placeCpuSeconds * 1e9 /
                                 double(res.placeMoves));
}
