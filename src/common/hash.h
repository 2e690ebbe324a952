/**
 * @file
 * Content hashing for the incremental-compile artifact cache.
 *
 * The compile manager keys cached page bitstreams and softcore binaries
 * by a structural hash of the operator IR plus target parameters, so
 * unchanged operators are never recompiled (the paper's separate
 * compilation + linkage discipline, Sec 6).
 */

#ifndef PLD_COMMON_HASH_H
#define PLD_COMMON_HASH_H

#include <array>
#include <cstdint>
#include <string>

namespace pld {

/** Incremental FNV-1a 64-bit hasher. */
class Hasher
{
  public:
    /** Mix raw bytes into the hash. */
    void
    bytes(const void *data, size_t n)
    {
        const auto *p = static_cast<const uint8_t *>(data);
        for (size_t i = 0; i < n; ++i) {
            state ^= p[i];
            state *= 0x100000001B3ull;
        }
    }

    /** Mix a string (length-prefixed so concatenations differ). */
    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** Mix a 64-bit integer. */
    void u64(uint64_t v) { bytes(&v, sizeof(v)); }

    /** Mix a signed integer. */
    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }

    /** Current digest. */
    uint64_t digest() const { return state; }

  private:
    uint64_t state = 0xCBF29CE484222325ull;
};

/** One-shot hash of a string. */
inline uint64_t
hashString(const std::string &s)
{
    Hasher h;
    h.str(s);
    return h.digest();
}

namespace detail {

/** Byte-at-a-time table for the reflected CRC-32 polynomial. */
constexpr std::array<uint32_t, 256>
makeCrc32Table()
{
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int b = 0; b < 8; ++b)
            c = (c >> 1) ^ (0xEDB88320u & (~(c & 1) + 1));
        t[i] = c;
    }
    return t;
}

inline constexpr std::array<uint32_t, 256> kCrc32Table =
    makeCrc32Table();

} // namespace detail

/**
 * CRC-32 (IEEE 802.3, reflected poly 0xEDB88320) — the frame check
 * the runtime puts on every reconfiguration config packet. Table
 * driven: a hot swap frames about a thousand packets and checks each
 * twice, which made the bitwise form a visible share of swapPage.
 * Chainable: pass the CRC of the preceding bytes as @p crc.
 */
inline uint32_t
crc32(const void *data, size_t n, uint32_t crc = 0)
{
    const auto *p = static_cast<const uint8_t *>(data);
    crc = ~crc;
    for (size_t i = 0; i < n; ++i)
        crc = detail::kCrc32Table[(crc ^ p[i]) & 0xFF] ^ (crc >> 8);
    return ~crc;
}

} // namespace pld

#endif // PLD_COMMON_HASH_H
