#include "common/rng.h"

#include <cmath>

#include "common/logging.h"

namespace pld {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s[1] * 5, 7) * 9;
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

uint64_t
Rng::below(uint64_t bound)
{
    pld_assert(bound > 0, "Rng::below needs positive bound");
    // Rejection sampling to avoid modulo bias: reject raw draws below
    // 2^64 mod bound. That threshold is itself below bound, so it is
    // computed only for the rare draw that could fall under it.
    for (;;) {
        uint64_t r = next();
        if (r >= bound || r >= (0 - bound) % bound)
            return r % bound;
    }
}

int64_t
Rng::range(int64_t lo, int64_t hi)
{
    pld_assert(lo <= hi, "Rng::range needs lo <= hi");
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(below(span));
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::gaussian()
{
    if (haveSpare) {
        haveSpare = false;
        return spare;
    }
    double u, v, sq;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        sq = u * u + v * v;
    } while (sq >= 1.0 || sq == 0.0);
    double mul = std::sqrt(-2.0 * std::log(sq) / sq);
    spare = v * mul;
    haveSpare = true;
    return u * mul;
}

} // namespace pld
