#include <gtest/gtest.h>

#include "dataflow/stream.h"

using namespace pld::dataflow;

TEST(WordFifo, UnboundedPushPop)
{
    WordFifo f;
    for (uint32_t i = 0; i < 1000; ++i)
        f.push(i);
    EXPECT_EQ(f.size(), 1000u);
    for (uint32_t i = 0; i < 1000; ++i)
        EXPECT_EQ(f.pop(), i);
    EXPECT_FALSE(f.canPop());
}

TEST(WordFifo, BoundedCapacity)
{
    WordFifo f(2);
    EXPECT_TRUE(f.canPush());
    f.push(1);
    f.push(2);
    EXPECT_FALSE(f.canPush());
    f.pop();
    EXPECT_TRUE(f.canPush());
}

TEST(WordFifo, StatsTrackActivity)
{
    WordFifo f(8);
    f.push(1);
    f.push(2);
    f.push(3);
    f.pop();
    const auto &st = f.stats();
    EXPECT_EQ(st.pushes, 3u);
    EXPECT_EQ(st.pops, 1u);
    EXPECT_EQ(st.maxOccupancy, 3u);
}

TEST(WordFifo, FrontDoesNotConsume)
{
    WordFifo f;
    f.push(42);
    EXPECT_EQ(f.front(), 42u);
    EXPECT_EQ(f.size(), 1u);
    EXPECT_EQ(f.pop(), 42u);
}

TEST(WordFifo, GrowsWhileWrappedInOrder)
{
    // Interleaved pushes and pops walk the oldest word around the
    // ring, so the ring grows while its contents wrap past the end.
    WordFifo f;
    uint32_t next_in = 0, next_out = 0;
    for (int round = 1; round <= 40; ++round) {
        for (int i = 0; i < round + 2; ++i)
            f.push(next_in++);
        for (int i = 0; i < round; ++i)
            ASSERT_EQ(f.pop(), next_out++);
        ASSERT_EQ(f.front(), next_out);
    }
    EXPECT_EQ(f.size(), static_cast<size_t>(next_in - next_out));
    while (f.canPop())
        ASSERT_EQ(f.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(Ports, ReadWriteDirections)
{
    WordFifo f(4);
    FifoReadPort rp(f);
    FifoWritePort wp(f);
    EXPECT_FALSE(rp.canRead());
    EXPECT_TRUE(wp.canWrite());
    wp.write(7);
    EXPECT_TRUE(rp.canRead());
    EXPECT_EQ(rp.read(), 7u);
    EXPECT_FALSE(rp.canWrite());
    EXPECT_FALSE(wp.canRead());
}

TEST(Ports, BackpressureVisible)
{
    WordFifo f(1);
    FifoWritePort wp(f);
    wp.write(1);
    EXPECT_FALSE(wp.canWrite());
}
