/**
 * @file
 * Shared pieces of the repository benchmark (`pldbench`).
 *
 * The benchmark drives the public API of the PLD libraries from one
 * process and measures three loops a user waits on:
 *
 *  - the edit phase: single-operator edits sent to an in-process
 *    compile daemon over a real AF_UNIX socket, each hot-swapped into
 *    a live SystemSim and re-verified (the paper's headline loop);
 *  - the compile phase: cold -O1 and -O3 builds of every Rosetta app
 *    (Table 2), each run once and verified;
 *  - the sim phase: replay of all-HW, all-softcore, mixed and
 *    direct-link designs (Table 3 / Fig 10).
 *
 * A workload runs one phase at full size for the measured window and
 * the other two as small fixed reference slices, so every run reports
 * every end-to-end metric. Every output word is checked against the
 * Rosetta golden models; every failure is counted.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fabric/device.h"
#include "rosetta/benchmark.h"
#include "spans.h"

namespace perfbench {

/** Seconds on the steady clock. */
double nowSec();

/** Seeded splitmix64: the only source of randomness in a run. */
struct Rng
{
    uint64_t state;

    explicit Rng(uint64_t seed) : state(seed) {}
    uint64_t next();
    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

/** Linear-interpolated percentile, @p p in [0, 100]; 0 when empty. */
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }
double geomean(const std::vector<double> &v);

/** FNV-style digest of a placement (cell positions in order). */
uint64_t placementHash(const std::vector<std::pair<int, int>> &pos);

/** One reported number. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/** Everything a phase needs and reports into. */
struct Env
{
    uint64_t seed = 1;
    bool trace = false;
    unsigned jobs = 1;
    /** Scratch directory for stores, sockets and the span file. */
    std::string outDir;
    pld::fabric::Device dev;
    std::vector<pld::rosetta::Benchmark> apps;

    SpanRecorder spans;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** PldCompiler artifact-cache lookups over every compiler the
     * run drives, and ladder attempts beyond the first. */
    uint64_t cacheHits = 0;
    uint64_t cacheLookups = 0;
    uint64_t retries = 0;
    /** Seconds of each set-up of the focal phase; setup_s is their
     * median. */
    std::vector<double> setupSec;

    /** End-to-end metrics (untraced output). */
    std::map<std::string, Metric> e2e;
    /** Per-layer metrics (traced output). */
    std::map<std::string, Metric> layer;
    /**
     * Deterministic work counters: the same code and seed must
     * reproduce them exactly, in this run and across runs.
     */
    std::map<std::string, uint64_t> counters;

    /** Count one operation; @p ok false counts it failed and says
     * why on stderr. Returns @p ok. */
    bool check(bool ok, const std::string &what);
    /** Record a work counter (also a per-layer metric), failing the
     * run when an earlier pass of this run recorded another value. */
    void counter(const std::string &name, uint64_t value,
                 const char *unit);
    void setE2e(const std::string &name, double v, const char *unit);
    void setLayer(const std::string &name, double v, const char *unit);
};

/** Scale of one phase in a run: focal (timed window) or a slice. */
struct PhaseScale
{
    bool focal = false;
    /** Measured window; the phase runs whole units until it ends. */
    double seconds = 0;
    /** Set-up repetitions before the first step. */
    int setups = 1;
    /** Seed of the phase's draws: the run's seed for the focal phase,
     * a fixed one for slices, so a slice is the same work every run. */
    uint64_t seed = 0;
};

/**
 * One phase of a run. main() sets every phase up, then runs small
 * steps (one edit, one build, one design's batches), interleaving the
 * slices' steps with the focal phase's so the repetitions a phase
 * takes its best times from are spread over the whole run; then each
 * phase reports.
 */
class Phase
{
  public:
    virtual ~Phase() = default;
    /** Set up; a focal phase adds each set-up's seconds to
     * Env::setupSec. */
    virtual void setUp() = 0;
    /** Run one step; true when the phase wants another. */
    virtual bool step() = 0;
    /** Report metrics; the traced run also replays the layers. */
    virtual void finish() = 0;
};

std::unique_ptr<Phase> makeEditPhase(Env &env, const PhaseScale &scale);
std::unique_ptr<Phase> makeCompilePhase(Env &env, const PhaseScale &scale);
std::unique_ptr<Phase> makeSimPhase(Env &env, const PhaseScale &scale);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
