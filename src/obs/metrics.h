/**
 * @file
 * Metrics for the compile pipeline: monotonic counters, gauges, and
 * value distributions with deterministic summaries.
 *
 * Determinism contract (the PR 3 verdict-hash discipline applied to
 * telemetry): counter totals are pure functions of the build inputs —
 * graph, seed, fault plan — never of thread count or scheduling.
 * Counters that cannot honour that (actual-wait counts) must use the
 * "sched." name prefix, which excludes them from determinism
 * comparisons. Gauges and distributions carry
 * timing-flavoured values and are always excluded; a distribution's
 * summary is computed over its *sorted* samples, so for deterministic
 * value sets the summary is scheduling-independent too.
 */

#ifndef PLD_OBS_METRICS_H
#define PLD_OBS_METRICS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace pld {
namespace obs {

/** Prefix marking scheduling-dependent counters (excluded from the
 * determinism hash and from counter-total comparisons). */
inline bool
isSchedName(const std::string &name)
{
    return name.rfind("sched.", 0) == 0;
}

/** Order statistics of one distribution (nearest-rank quantiles). */
struct DistSummary
{
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double p50 = 0;
    double p95 = 0;
    double max = 0;

    double mean() const { return count ? sum / double(count) : 0; }
};

/**
 * Point-in-time (or build-window delta) view of the registry. This is
 * what AppBuild::report carries: the per-compile telemetry snapshot.
 */
struct MetricsSnapshot
{
    /** True when a tracer was installed while the window was open. */
    bool enabled = false;
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, DistSummary> dists;

    int64_t
    counter(const std::string &name, int64_t fallback = 0) const
    {
        auto it = counters.find(name);
        return it == counters.end() ? fallback : it->second;
    }

    double
    gauge(const std::string &name, double fallback = 0) const
    {
        auto it = gauges.find(name);
        return it == gauges.end() ? fallback : it->second;
    }

    /** nullptr when the distribution has no samples in the window. */
    const DistSummary *
    dist(const std::string &name) const
    {
        auto it = dists.find(name);
        return it == dists.end() ? nullptr : &it->second;
    }

    /** Deterministic counters only (no "sched." names). */
    std::map<std::string, int64_t> deterministicCounters() const;

    /** FNV hash over the deterministic counter map. */
    uint64_t countersHash() const;
};

/** Compute a summary from unsorted samples (sorts a copy). */
DistSummary summarize(std::vector<double> samples);

/**
 * Thread-safe registry. One per Tracer; all mutation goes through a
 * single mutex — the hot compile paths touch it per stage / per
 * iteration, never per annealing move, so contention is negligible.
 */
class MetricsRegistry
{
  public:
    void add(const std::string &name, int64_t delta);
    void set(const std::string &name, double value);
    void record(const std::string &name, double value);

    /**
     * Marks the start of a per-compile window: counter values and
     * per-distribution sample counts as of now. Deltas against a
     * window are exact for sequential builds; concurrent builds
     * through one compiler interleave their samples (documented
     * best-effort, like CacheStats).
     */
    struct Window
    {
        std::map<std::string, int64_t> counters;
        std::map<std::string, size_t> distSizes;
    };

    Window beginWindow() const;
    MetricsSnapshot since(const Window &w) const;
    MetricsSnapshot snapshot() const;

  private:
    mutable std::mutex mtx;
    std::map<std::string, int64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, std::vector<double>> samples;
};

} // namespace obs
} // namespace pld

#endif // PLD_OBS_METRICS_H
