#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"

namespace pld {
namespace obs {

namespace {

/** Nearest-rank quantile over an ascending-sorted sample vector. */
double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0;
    size_t rank = static_cast<size_t>(
        std::max(1.0, std::ceil(q * double(sorted.size()))));
    return sorted[std::min(rank, sorted.size()) - 1];
}

} // namespace

DistSummary
summarize(std::vector<double> samples)
{
    DistSummary s;
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    s.count = samples.size();
    for (double v : samples)
        s.sum += v;
    s.min = samples.front();
    s.max = samples.back();
    s.p50 = quantile(samples, 0.50);
    s.p95 = quantile(samples, 0.95);
    return s;
}

std::map<std::string, int64_t>
MetricsSnapshot::deterministicCounters() const
{
    std::map<std::string, int64_t> out;
    for (const auto &[k, v] : counters) {
        if (!isSchedName(k))
            out.emplace(k, v);
    }
    return out;
}

uint64_t
MetricsSnapshot::countersHash() const
{
    Hasher h;
    for (const auto &[k, v] : deterministicCounters()) {
        h.str(k);
        h.i64(v);
    }
    return h.digest();
}

void
MetricsRegistry::add(const std::string &name, int64_t delta)
{
    std::lock_guard<std::mutex> lk(mtx);
    counters[name] += delta;
}

void
MetricsRegistry::set(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lk(mtx);
    gauges[name] = value;
}

void
MetricsRegistry::record(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lk(mtx);
    samples[name].push_back(value);
}

MetricsRegistry::Window
MetricsRegistry::beginWindow() const
{
    std::lock_guard<std::mutex> lk(mtx);
    Window w;
    w.counters = counters;
    for (const auto &[name, vec] : samples)
        w.distSizes[name] = vec.size();
    return w;
}

MetricsSnapshot
MetricsRegistry::since(const Window &w) const
{
    std::lock_guard<std::mutex> lk(mtx);
    MetricsSnapshot s;
    s.enabled = true;
    for (const auto &[name, v] : counters) {
        auto it = w.counters.find(name);
        int64_t base = it == w.counters.end() ? 0 : it->second;
        if (v != base)
            s.counters[name] = v - base;
    }
    s.gauges = gauges;
    for (const auto &[name, vec] : samples) {
        auto it = w.distSizes.find(name);
        size_t from = it == w.distSizes.end() ? 0 : it->second;
        if (from >= vec.size())
            continue;
        s.dists[name] = summarize(
            std::vector<double>(vec.begin() + from, vec.end()));
    }
    return s;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    return since(Window{});
}

} // namespace obs
} // namespace pld
