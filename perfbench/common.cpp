#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "common/hash.h"

namespace perfbench {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

uint64_t
Rng::next()
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

uint64_t
placementHash(const std::vector<std::pair<int, int>> &pos)
{
    pld::Hasher h;
    for (const auto &[c, r] : pos) {
        h.i64(c);
        h.i64(r);
    }
    return h.digest();
}

bool
Env::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
}

void
Env::counter(const std::string &name, uint64_t value, const char *unit)
{
    auto [it, fresh] = counters.emplace(name, value);
    if (!fresh && it->second != value) {
        ++failed;
        std::fprintf(stderr,
                     "FAILED: work counter %s changed between passes "
                     "(%llu then %llu)\n",
                     name.c_str(),
                     static_cast<unsigned long long>(it->second),
                     static_cast<unsigned long long>(value));
    }
    setLayer(name, static_cast<double>(value), unit);
}

void
Env::setE2e(const std::string &name, double v, const char *unit)
{
    e2e[name] = Metric{v, unit};
}

void
Env::setLayer(const std::string &name, double v, const char *unit)
{
    layer[name] = Metric{v, unit};
}

} // namespace perfbench
