#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "noc/bft.h"

using namespace pld;
using namespace pld::noc;

namespace {

/** Run cycles until the network drains or the limit hits. */
int
drain(BftNoc &noc, int limit = 10000)
{
    int cycles = 0;
    while (!noc.idle() && cycles < limit) {
        noc.stepCycle();
        ++cycles;
    }
    return cycles;
}

} // namespace

TEST(Bft, SingleFlitDelivery)
{
    BftNoc noc(8);
    noc.setRoute(0, 0, 5, 2);
    noc.outPort(0, 0)->write(0xCAFE);
    drain(noc);
    auto *in = noc.inPort(5, 2);
    ASSERT_TRUE(in->canRead());
    EXPECT_EQ(in->read(), 0xCAFEu);
    EXPECT_EQ(noc.stats().delivered, 1u);
}

TEST(Bft, OrderPreservedPerLink)
{
    BftNoc noc(8);
    noc.setRoute(1, 0, 6, 0);
    auto *out = noc.outPort(1, 0);
    for (uint32_t i = 0; i < 10; ++i)
        out->write(i);
    drain(noc);
    auto *in = noc.inPort(6, 0);
    for (uint32_t i = 0; i < 10; ++i) {
        ASSERT_TRUE(in->canRead());
        EXPECT_EQ(in->read(), i) << "in-order delivery";
    }
}

TEST(Bft, LatencyScalesWithTreeDistance)
{
    BftNoc noc(16);
    // Near: leaves 0 -> 1 share the bottom switch.
    noc.setRoute(0, 0, 1, 0);
    noc.outPort(0, 0)->write(1);
    int near_cycles = drain(noc);

    BftNoc noc2(16);
    // Far: 0 -> 15 crosses the root.
    noc2.setRoute(0, 0, 15, 0);
    noc2.outPort(0, 0)->write(1);
    int far_cycles = drain(noc2);

    EXPECT_GT(far_cycles, near_cycles);
}

TEST(Bft, ConfigPacketsProgramRoutes)
{
    BftNoc noc(8);
    // The linker at leaf 7 (DMA) programs leaf 2's port 1 to reach
    // leaf 4 port 3 — linking without recompilation (Sec 4.3).
    noc.sendConfig(7, 2, 1, 4, 3);
    drain(noc);
    EXPECT_EQ(noc.stats().configApplied, 1u);

    noc.outPort(2, 1)->write(77);
    drain(noc);
    auto *in = noc.inPort(4, 3);
    ASSERT_TRUE(in->canRead());
    EXPECT_EQ(in->read(), 77u);
}

TEST(Bft, RelinkingWithoutRecompile)
{
    BftNoc noc(8);
    noc.sendConfig(0, 1, 0, 2, 0);
    drain(noc);
    noc.outPort(1, 0)->write(10);
    drain(noc);
    EXPECT_TRUE(noc.inPort(2, 0)->canRead());

    // Re-link the same producer to a different consumer.
    noc.sendConfig(0, 1, 0, 3, 1);
    drain(noc);
    noc.outPort(1, 0)->write(20);
    drain(noc);
    auto *in3 = noc.inPort(3, 1);
    ASSERT_TRUE(in3->canRead());
    EXPECT_EQ(in3->read(), 20u);
}

TEST(Bft, ManyToOneContentionStillDelivers)
{
    BftNoc noc(16);
    const int senders = 8;
    for (int s = 0; s < senders; ++s) {
        noc.setRoute(s, 0, 15, 0);
        noc.outPort(s, 0)->write(static_cast<uint32_t>(100 + s));
    }
    drain(noc, 100000);
    uint64_t got = 0;
    auto *in = noc.inPort(15, 0);
    while (in->canRead()) {
        in->read();
        ++got;
    }
    EXPECT_EQ(got, static_cast<uint64_t>(senders));
}

TEST(Bft, DeflectionHappensUnderContention)
{
    BftNoc noc(16, 4, 256);
    // Heavy crossing traffic in both directions through the root.
    noc.setRoute(0, 0, 15, 0);
    noc.setRoute(1, 0, 14, 0);
    noc.setRoute(15, 0, 0, 0);
    noc.setRoute(14, 0, 1, 0);
    for (int i = 0; i < 64; ++i) {
        noc.outPort(0, 0)->write(i);
        noc.outPort(1, 0)->write(i);
        noc.outPort(15, 0)->write(i);
        noc.outPort(14, 0)->write(i);
    }
    drain(noc, 100000);
    EXPECT_EQ(noc.stats().delivered, 256u);
    EXPECT_GT(noc.stats().deflections, 0u)
        << "contended root must deflect";
}

TEST(Bft, FullInputFifoBackpressuresViaDeflection)
{
    BftNoc noc(8, 4, 4); // tiny FIFOs
    noc.setRoute(0, 0, 3, 0);
    auto *out = noc.outPort(0, 0);
    // Saturate: receiver never drains.
    int wrote = 0;
    for (int round = 0; round < 200; ++round) {
        if (out->canWrite()) {
            out->write(static_cast<uint32_t>(round));
            ++wrote;
        }
        noc.stepCycle();
    }
    // Only ~fifo_depth*2 words can be in flight/buffered; producer is
    // backpressured rather than losing data.
    EXPECT_LT(wrote, 200);
    int reachable = 0;
    auto *in = noc.inPort(3, 0);
    for (int i = 0; i < 20000 && !noc.idle(); ++i) {
        noc.stepCycle();
        while (in->canRead()) {
            in->read();
            ++reachable;
        }
    }
    while (in->canRead()) {
        in->read();
        ++reachable;
    }
    EXPECT_EQ(reachable, wrote) << "no flit lost";
}

TEST(Bft, SingleNetworkPortIsTheBottleneck)
{
    // The paper's -O1 slowdown mechanism: a leaf injects at most one
    // flit per cycle even with four ports of pending data.
    BftNoc noc(8, 4, 256);
    for (int p = 0; p < 4; ++p) {
        noc.setRoute(0, p, 5, p);
        for (int i = 0; i < 32; ++i)
            noc.outPort(0, p)->write(i);
    }
    int cycles = drain(noc, 100000);
    EXPECT_GE(cycles, 128) << "128 words through one injection port";
}

TEST(Bft, StatsHopAccounting)
{
    BftNoc noc(8);
    noc.setRoute(0, 0, 7, 0);
    noc.outPort(0, 0)->write(1);
    drain(noc);
    EXPECT_GT(noc.stats().totalHops, 2u);
}

TEST(Bft, NonPowerOfTwoLeavesRoundsUp)
{
    BftNoc noc(22); // the 22-page deployment
    EXPECT_EQ(noc.numLeaves(), 32);
    noc.setRoute(21, 0, 3, 0);
    noc.outPort(21, 0)->write(9);
    drain(noc);
    EXPECT_TRUE(noc.inPort(3, 0)->canRead());
}

TEST(Bft, PortPointersAreStable)
{
    BftNoc noc(8, 4);
    dataflow::StreamPort *in = noc.inPort(3, 1);
    dataflow::StreamPort *out = noc.outPort(3, 1);
    EXPECT_EQ(noc.inPort(3, 1), in);
    EXPECT_EQ(noc.outPort(3, 1), out);
    EXPECT_NE(in, out);
    EXPECT_NE(noc.inPort(3, 2), in);
    EXPECT_NE(noc.outPort(4, 1), out);
}

TEST(Bft, GoldenTrafficTrace)
{
    // A contended run fingerprinted cycle by cycle: shallow FIFOs,
    // many-to-one hot spots across the root, consumers that read with
    // a seeded probability (so skid slots fill and flits deflect and
    // bounce at leaves), a stream whose route arrives late by
    // setRoute, and a mid-run relink by config packet. A change to
    // the network that claims bit-identical behaviour must keep the
    // digest.
    constexpr int kLeaves = 32;
    constexpr int kPorts = 6;
    constexpr uint32_t kWords = 48;
    BftNoc noc(kLeaves, kPorts, 2);
    Rng rng(20261018);

    struct Stream
    {
        int src, sp, dst, dp;
        uint32_t sent = 0;
    };
    std::vector<Stream> streams;
    bool src_used[kLeaves][kPorts] = {};
    bool dst_used[kLeaves][kPorts] = {};
    auto add = [&](int src, int sp, int dst, int dp) {
        if (src == dst || src_used[src][sp] || dst_used[dst][dp])
            return;
        src_used[src][sp] = dst_used[dst][dp] = true;
        streams.push_back({src, sp, dst, dp});
    };
    // Hot spots: six left-half leaves into leaf 31, five right-half
    // leaves into leaf 2.
    for (int p = 0; p < kPorts; ++p)
        add(p, 0, 31, p);
    for (int p = 0; p < 5; ++p)
        add(16 + p, 1, 2, p);
    while (streams.size() < 40) {
        add(static_cast<int>(rng.below(kLeaves)),
            static_cast<int>(rng.below(kPorts)),
            static_cast<int>(rng.below(kLeaves)),
            static_cast<int>(rng.below(kPorts)));
    }

    // Routes: every stream but the last is linked up front, a third
    // of them by config packets from leaf 24; the last stream's words
    // queue unrouted until a setRoute at cycle 300.
    for (size_t i = 0; i + 1 < streams.size(); ++i) {
        const Stream &s = streams[i];
        if (i % 3 == 0)
            noc.sendConfig(24, s.src, s.sp, s.dst, s.dp);
        else
            noc.setRoute(s.src, s.sp, s.dst, s.dp);
    }
    // Relink target for stream 7 at cycle 500: a fresh endpoint.
    int relink_dst = -1, relink_dp = -1;
    for (int l = kLeaves - 1; l >= 0 && relink_dst < 0; --l) {
        for (int p = 0; p < kPorts; ++p) {
            if (!dst_used[l][p] && l != streams[7].src) {
                relink_dst = l;
                relink_dp = p;
                dst_used[l][p] = true;
                break;
            }
        }
    }
    ASSERT_GE(relink_dst, 0);

    std::vector<dataflow::StreamPort *> outs;
    for (const Stream &s : streams)
        outs.push_back(noc.outPort(s.src, s.sp));
    struct Sink
    {
        int leaf, port;
        dataflow::StreamPort *in;
    };
    std::vector<Sink> sinks;
    for (int l = 0; l < kLeaves; ++l) {
        for (int p = 0; p < kPorts; ++p) {
            if (dst_used[l][p])
                sinks.push_back({l, p, noc.inPort(l, p)});
        }
    }

    Hasher h;
    uint64_t received = 0;
    uint64_t late_words = 0, relinked_words = 0;
    const uint64_t total = kWords * streams.size();
    int cycle = 0;
    for (; cycle < 50000; ++cycle) {
        if (cycle == 300) {
            const Stream &s = streams.back();
            noc.setRoute(s.src, s.sp, s.dst, s.dp);
        }
        if (cycle == 500) {
            const Stream &s = streams[7];
            noc.sendConfig(24, s.src, s.sp, relink_dst, relink_dp);
        }
        for (size_t i = 0; i < streams.size(); ++i) {
            Stream &s = streams[i];
            if (s.sent < kWords && rng.chance(0.7) &&
                outs[i]->canWrite()) {
                outs[i]->write((uint32_t(s.src) << 20) |
                               (uint32_t(s.sp) << 16) | s.sent);
                ++s.sent;
            }
        }
        for (const Sink &k : sinks) {
            if (rng.chance(0.35) && k.in->canRead()) {
                h.u64(static_cast<uint64_t>(cycle));
                h.u64(static_cast<uint64_t>(k.leaf * kPorts + k.port));
                h.u64(k.in->read());
                ++received;
                late_words += k.leaf == streams.back().dst &&
                              k.port == streams.back().dp;
                relinked_words += k.leaf == relink_dst &&
                                  k.port == relink_dp;
            }
        }
        noc.stepCycle();
        uint64_t quiet = 0;
        for (int l = 0; l < kLeaves; ++l) {
            quiet |= uint64_t(noc.leafQuiet(l)) << (2 * l);
            quiet |= uint64_t(noc.leafTransitQuiet(l)) << (2 * l + 1);
        }
        h.u64(quiet);
        h.u64((uint64_t(noc.idle()) << 1) | uint64_t(noc.transitIdle()));
        if (received == total && noc.idle())
            break;
    }
    const NocStats &st = noc.stats();
    h.u64(st.injected);
    h.u64(st.delivered);
    h.u64(st.deflections);
    h.u64(st.configApplied);
    h.u64(st.totalHops);

    EXPECT_EQ(received, total) << "every word delivered";
    EXPECT_GT(st.deflections, 0u) << "the hot spots must deflect";
    EXPECT_EQ(late_words, kWords) << "setRoute released the late stream";
    EXPECT_GT(relinked_words, 0u) << "the relink moved the stream";
    EXPECT_EQ(cycle, 909);
    EXPECT_EQ(st.injected, 1934u);
    EXPECT_EQ(st.deflections, 5287u);
    EXPECT_EQ(st.totalHops, 23402u);
    EXPECT_EQ(h.digest(), 0x5821e0feeffd7183ull);
}
