#include <gtest/gtest.h>

#include "common/hash.h"

using pld::Hasher;

TEST(Hash, DeterministicAndOrderSensitive)
{
    Hasher a, b, c;
    a.str("foo");
    a.str("bar");
    b.str("foo");
    b.str("bar");
    c.str("bar");
    c.str("foo");
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_NE(a.digest(), c.digest());
}

TEST(Hash, LengthPrefixPreventsConcatCollision)
{
    Hasher a, b;
    a.str("ab");
    a.str("c");
    b.str("a");
    b.str("bc");
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, IntegersMix)
{
    Hasher a, b;
    a.u64(1);
    b.u64(2);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, OneShotHelper)
{
    EXPECT_EQ(pld::hashString("x"), pld::hashString("x"));
    EXPECT_NE(pld::hashString("x"), pld::hashString("y"));
}

TEST(Hash, Crc32KnownAnswers)
{
    const char check[] = "123456789";
    EXPECT_EQ(pld::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(pld::crc32("", 0), 0u);
    // Chaining over a split equals the one-shot CRC.
    const char text[] = "The quick brown fox jumps over the lazy dog";
    size_t n = sizeof(text) - 1;
    EXPECT_EQ(pld::crc32(text, n), 0x414FA339u);
    for (size_t cut = 0; cut <= n; ++cut) {
        uint32_t head = pld::crc32(text, cut);
        EXPECT_EQ(pld::crc32(text + cut, n - cut, head),
                  pld::crc32(text, n))
            << "cut at " << cut;
    }
}
