/**
 * The telemetry determinism gate: compiling the same app with 1 vs 4
 * page-compile threads must produce an identical structural span tree
 * (structureHash) and identical deterministic counter totals — the
 * in-process equivalent of CI diffing `pldtrace --hash` output for
 * PLD_THREADS=1 and =4. Thread counts are driven through
 * CompileOptions::parallelJobs rather than the env var because
 * ThreadBudget::total() is a cached-once static.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "fabric/device.h"
#include "ir/builder.h"
#include "obs/trace.h"
#include "pld/compiler.h"
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
    b.pragma(Target::HW);
    b.forLoop(0, n, [&](Ex) {
        b.set(x, b.read(in).bitcast(fx));
        b.write(out, (Ex(x) * litF(k, fx)).cast(fx));
    });
    return b.finish();
}

/** Three-operator chain so parallelJobs > 1 actually overlaps. */
Graph
makeApp()
{
    GraphBuilder gb("det-app");
    auto in = gb.extIn("I");
    auto out = gb.extOut("O");
    auto a = gb.wire();
    auto b = gb.wire();
    gb.inst(makeScale("head", 2.0, 16), {in}, {a});
    gb.inst(makeScale("body", 0.5, 16), {a}, {b});
    gb.inst(makeScale("tail", 1.25, 16), {b}, {out});
    return gb.finish();
}

struct Fingerprint
{
    uint64_t structure = 0;
    uint64_t counters = 0;
    std::map<std::string, int64_t> totals;
    obs::MetricsSnapshot report;
};

Fingerprint
compileWithJobs(unsigned jobs)
{
    obs::ScopedTracer st;
    CompileOptions o;
    o.effort = 0.25;
    o.parallelJobs = jobs;
    PldCompiler pc(device(), o);
    AppBuild b = pc.build(makeApp(), OptLevel::O1);
    EXPECT_TRUE(b.report.allOk());

    Fingerprint fp;
    fp.structure = st.tracer().structureHash();
    obs::MetricsSnapshot snap = st.tracer().metrics().snapshot();
    fp.counters = snap.countersHash();
    fp.totals = snap.deterministicCounters();
    fp.report = b.report.metrics;
    return fp;
}

} // namespace

TEST(Determinism, StructureAndCountersIdenticalAcrossThreadCounts)
{
    Fingerprint one = compileWithJobs(1);
    Fingerprint four = compileWithJobs(4);

    EXPECT_EQ(one.structure, four.structure)
        << "span-tree structure must not depend on thread count";
    EXPECT_EQ(one.counters, four.counters);
    ASSERT_EQ(one.totals.size(), four.totals.size());
    for (const auto &[name, total] : one.totals) {
        EXPECT_FALSE(obs::isSchedName(name)) << name;
        auto it = four.totals.find(name);
        ASSERT_NE(it, four.totals.end()) << name << " missing at 4";
        EXPECT_EQ(it->second, total) << "counter " << name;
    }
}

TEST(Determinism, RepeatedSequentialBuildsReproduce)
{
    Fingerprint a = compileWithJobs(1);
    Fingerprint b = compileWithJobs(1);
    EXPECT_EQ(a.structure, b.structure);
    EXPECT_EQ(a.counters, b.counters);
}

TEST(Determinism, ReportWindowMatchesRegistryForSoloBuild)
{
    // For a single build on a fresh tracer the per-build window delta
    // is the whole registry; deterministic counters must agree.
    Fingerprint fp = compileWithJobs(2);
    ASSERT_TRUE(fp.report.enabled);
    for (const auto &[name, total] : fp.totals) {
        EXPECT_EQ(fp.report.counter(name), total)
            << "window counter " << name;
    }
    // The report carries the build's stage telemetry.
    EXPECT_GT(fp.report.counter("pld.builds"), 0);
    EXPECT_GT(fp.report.counter("hls.operators"), 0);
    EXPECT_NE(fp.report.dist("pld.stage.pnr.seconds"), nullptr);
}
