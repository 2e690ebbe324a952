/**
 * @file
 * Shared helpers for the table/figure reproduction harness.
 *
 * Every binary in bench/ regenerates one table or figure from the
 * paper's evaluation (Sec 7). Absolute numbers are scaled — our
 * substrate is a simulator, not a Slurm cluster driving Vivado — but
 * each harness prints the same rows/series the paper reports so the
 * shapes can be compared (see EXPERIMENTS.md).
 */

#ifndef PLD_BENCH_COMMON_H
#define PLD_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/table.h"
#include "fabric/device.h"
#include "obs/trace.h"
#include "pld/compiler.h"
#include "rosetta/benchmark.h"
#include "sys/system.h"

namespace pld {
namespace bench {

/**
 * Install a process-lifetime tracer (unless PLD_TRACE/PLD_METRICS
 * already installed one), so every AppBuild::report carries a
 * metrics snapshot (ladder counters, degradation totals). Call once
 * at the top of main().
 */
inline void
initObservability()
{
    obs::ensureProcessTracer();
}

/**
 * Per-page compile-time samples for a -O1 build, sorted ascending:
 * one per operator actually compiled (neither served from the cache
 * nor failed) — exactly the pld.page.seconds samples the build
 * records.
 */
inline std::vector<double>
pageSeconds(const flow::AppBuild &b)
{
    std::vector<double> times;
    for (const auto &op : b.ops)
        if (!op.fromCache && !op.outcome.failed)
            times.push_back(op.times.total());
    std::sort(times.begin(), times.end());
    return times;
}

/** Effort multiplier (PLD_BENCH_EFFORT env var overrides). */
inline double
benchEffort(double fallback = 1.0)
{
    if (const char *e = std::getenv("PLD_BENCH_EFFORT"))
        return std::atof(e);
    return fallback;
}

inline const fabric::Device &
device()
{
    static fabric::Device d = fabric::makeU50();
    return d;
}

inline flow::CompileOptions
compileOptions(double effort)
{
    flow::CompileOptions o;
    o.effort = effort;
    o.parallelJobs = 0; // all hardware threads, like the cluster
    return o;
}

/** Execute a built app on its workload; checks outputs; returns
 * run statistics. */
inline sys::RunStats
execute(const rosetta::Benchmark &bm, const flow::AppBuild &build,
        bool verify = true)
{
    sys::SystemSim sim(bm.graph, build.bindings, build.sysCfg);
    sim.loadInput(0, bm.input);
    sys::RunStats rs = sim.run(20000000000ull);
    if (!rs.completed) {
        std::fprintf(stderr, "%s: run did not complete!\n",
                     bm.name.c_str());
        std::exit(1);
    }
    if (verify) {
        auto out = sim.takeOutput(0);
        if (out != bm.expected) {
            std::fprintf(stderr, "%s: OUTPUT MISMATCH\n",
                         bm.name.c_str());
            std::exit(1);
        }
    }
    return rs;
}

/** Seconds per logical input item at the build's Fmax. */
inline double
perInputSeconds(const rosetta::Benchmark &bm,
                const flow::AppBuild &build,
                const sys::RunStats &rs)
{
    double hz = build.fmaxMHz * 1e6;
    return static_cast<double>(rs.cycles) / hz /
           static_cast<double>(bm.itemsPerRun);
}

} // namespace bench
} // namespace pld

#endif // PLD_BENCH_COMMON_H
