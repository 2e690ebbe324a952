#include <gtest/gtest.h>

#include "common/hash.h"
#include "fabric/device.h"
#include "pnr/placer.h"

using namespace pld;
using namespace pld::pnr;
using fabric::Device;
using fabric::makeU50;
using fabric::Rect;
using netlist::Cell;
using netlist::Netlist;
using netlist::SiteKind;

namespace {

const Device &
device()
{
    static Device d = makeU50();
    return d;
}

/** A chain of CLB cells: x0 -> x1 -> ... -> x(n-1). */
Netlist
makeChain(int n)
{
    Netlist nl;
    int prev = -1;
    for (int i = 0; i < n; ++i) {
        int c = nl.addCell(
            {SiteKind::Clb, "x" + std::to_string(i), 6, 10, 1, 0, {}});
        if (prev >= 0) {
            int w = nl.addNet("w" + std::to_string(i), 32, prev);
            nl.addSink(w, c);
        }
        prev = c;
    }
    return nl;
}

/**
 * A mixed netlist with every shape the move evaluator must get right:
 * two-pin chains, fan-out nets of 3 to 6 pins, DSP and BRAM cells, a
 * cell that sinks one net twice, a cell on both ends of one net, an
 * external-input net, a net with no pins and a cell with no nets.
 */
Netlist
makeMixed()
{
    Netlist nl;
    const int widths[] = {1, 8, 18, 32, 64};
    std::vector<int> clb, dsp, bram;
    for (int i = 0; i < 120; ++i)
        clb.push_back(nl.addCell(
            {SiteKind::Clb, "c" + std::to_string(i), 6, 10, 1, 0, {}}));
    for (int i = 0; i < 6; ++i)
        dsp.push_back(nl.addCell(
            {SiteKind::Dsp, "d" + std::to_string(i), 0, 0, 3, 0, {}}));
    for (int i = 0; i < 5; ++i)
        bram.push_back(nl.addCell(
            {SiteKind::Bram, "b" + std::to_string(i), 0, 0, 2, 0, {}}));
    nl.addCell({SiteKind::Clb, "idle", 6, 10, 1, 0, {}});

    for (int i = 0; i + 1 < 120; ++i) {
        int w = nl.addNet("ch" + std::to_string(i), widths[i % 5],
                          clb[i]);
        nl.addSink(w, clb[i + 1]);
    }
    for (int i = 0; i < 120; i += 10) {
        int w = nl.addNet("fo" + std::to_string(i), widths[i % 5],
                          clb[i]);
        for (int j = 0; j < 3 + i % 4; ++j)
            nl.addSink(w, clb[(i + 7 + 13 * j) % 120]);
    }
    for (int k = 0; k < 6; ++k) {
        int a = nl.addNet("da" + std::to_string(k), 32, clb[20 * k]);
        nl.addSink(a, dsp[k]);
        int m = nl.addNet("dm" + std::to_string(k), 18, dsp[k]);
        nl.addSink(m, bram[k % 5]);
        nl.addSink(m, clb[(20 * k + 55) % 120]);
        int r = nl.addNet("br" + std::to_string(k), 64, bram[k % 5]);
        for (int j = 0; j < 3; ++j)
            nl.addSink(r, clb[(20 * k + 31 * j + 3) % 120]);
    }
    int twice = nl.addNet("twice", 8, clb[5]);
    nl.addSink(twice, clb[6]);
    nl.addSink(twice, clb[6]);
    nl.addSink(twice, dsp[0]);
    int loop = nl.addNet("loop", 16, clb[7]);
    nl.addSink(loop, clb[7]);
    nl.addSink(loop, clb[50]);
    int ext = nl.addNet("ext", 32, -1);
    for (int c : {0, 60, 90})
        nl.addSink(ext, clb[c]);
    nl.addNet("none", 32, -1);
    return nl;
}

uint64_t
posHash(const Placement &p)
{
    Hasher h;
    for (auto [c, r] : p.pos) {
        h.i64(c);
        h.i64(r);
    }
    return h.digest();
}

} // namespace

TEST(Placer, LegalAndComplete)
{
    Netlist nl = makeChain(50);
    PlacerOptions opts;
    opts.effort = 0.3;
    PlaceResult pr = place(nl, device(), device().pages[0].rect, opts);
    ASSERT_EQ(pr.place.pos.size(), nl.cells.size());

    // All positions inside the page, on CLB tiles, no overlaps.
    const Rect &page = device().pages[0].rect;
    std::set<std::pair<int, int>> used;
    for (auto [c, r] : pr.place.pos) {
        EXPECT_TRUE(page.contains(c, r));
        EXPECT_EQ(device().at(c, r), fabric::TileKind::Clb);
        EXPECT_TRUE(used.insert({c, r}).second) << "overlap";
    }
}

TEST(Placer, AnnealingImprovesCost)
{
    Netlist nl = makeChain(200);
    PlacerOptions opts;
    opts.effort = 0.5;
    PlaceResult pr = place(nl, device(), device().pages[0].rect, opts);
    EXPECT_LT(pr.finalCost, pr.initialCost * 0.8)
        << "SA should shorten a long chain substantially";
    EXPECT_GT(pr.movesAccepted, 0u);
}

TEST(Placer, DeterministicForSeed)
{
    Netlist nl = makeChain(60);
    PlacerOptions opts;
    opts.effort = 0.2;
    opts.seed = 99;
    PlaceResult a = place(nl, device(), device().pages[1].rect, opts);
    PlaceResult b = place(nl, device(), device().pages[1].rect, opts);
    EXPECT_EQ(a.place.pos, b.place.pos);
    EXPECT_EQ(a.finalCost, b.finalCost);
}

TEST(Placer, MixedSiteKinds)
{
    Netlist nl = makeChain(20);
    int d = nl.addCell({SiteKind::Dsp, "mul", 0, 0, 3, 0, {}});
    int b = nl.addCell({SiteKind::Bram, "mem", 0, 0, 2, 0, {}});
    int w1 = nl.addNet("wd", 32, 5);
    nl.addSink(w1, d);
    int w2 = nl.addNet("wb", 18, d);
    nl.addSink(w2, b);

    PlacerOptions opts;
    opts.effort = 0.2;
    PlaceResult pr = place(nl, device(), device().pages[2].rect, opts);
    auto [dc, dr] = pr.place.pos[d];
    auto [bc, br] = pr.place.pos[b];
    EXPECT_EQ(device().at(dc, dr), fabric::TileKind::Dsp);
    EXPECT_EQ(device().at(bc, br), fabric::TileKind::Bram);
}

TEST(Placer, OverCapacityIsFatal)
{
    // More BRAM cells than one page offers must die with a clear
    // message (fatal() exits with code 1).
    Netlist nl;
    int64_t too_many = device().pages[0].res.bram18 + 8;
    for (int i = 0; i < too_many; ++i)
        nl.addCell({SiteKind::Bram, "m" + std::to_string(i), 0, 0, 1,
                    0, {}});
    PlacerOptions opts;
    EXPECT_EXIT(place(nl, device(), device().pages[0].rect, opts),
                testing::ExitedWithCode(1), "decompose the operator");
}

TEST(Placer, SmallRegionCostsLessEffortThanLarge)
{
    // The compile-time claim in microcosm: placing the same netlist
    // into a page attempts far fewer super-linear moves than placing
    // a 10x bigger netlist into the full user region.
    Netlist small = makeChain(100);
    PlacerOptions opts;
    opts.effort = 0.3;
    PlaceResult pr_small =
        place(small, device(), device().pages[0].rect, opts);

    Netlist big = makeChain(1000);
    Rect user{0, 0, 120, 576};
    PlaceResult pr_big = place(big, device(), user, opts);

    EXPECT_GT(pr_big.movesAttempted, pr_small.movesAttempted * 5);
}

TEST(Placer, CostFunctionMatchesStandalone)
{
    Netlist nl = makeChain(30);
    PlacerOptions opts;
    opts.effort = 0.2;
    PlaceResult pr = place(nl, device(), device().pages[0].rect, opts);
    double standalone = placementCost(nl, device(), pr.place);
    EXPECT_NEAR(pr.finalCost, standalone, 1e-6 + standalone * 1e-9);
}

TEST(Placer, GoldenTrajectories)
{
    // Pinned annealing results: any change to the cost arithmetic,
    // the RNG draws or the accept test shows up here. The region
    // straddles the SLR boundary (row 288) so the crossing penalty
    // is exercised, and is small enough that swaps with occupied
    // sites are common.
    Netlist nl = makeMixed();
    const Rect region{0, 276, 14, 24};
    struct Golden
    {
        uint64_t seed;
        int restarts;
        uint64_t posHash;
        double finalCost;
        uint64_t attempted;
        uint64_t accepted;
    };
    const Golden golden[] = {
        {3, 1, 0xf48e0b9faf3e9508ull, 2467.59375, 39200, 18059},
        {11, 1, 0xa95f55ea764f83a5ull, 2688.03125, 40250, 18858},
        {3, 4, 0x330fc91a18bbb5d5ull, 2436.40625, 158200, 72431},
        {11, 4, 0x278b09fc7882f042ull, 2357.8125, 161000, 73423},
    };
    for (const Golden &g : golden) {
        PlacerOptions opts;
        opts.seed = g.seed;
        opts.restarts = g.restarts;
        opts.threads = static_cast<unsigned>(g.restarts);
        PlaceResult pr = place(nl, device(), region, opts);
        std::string at = "seed " + std::to_string(g.seed) +
                         " restarts " + std::to_string(g.restarts);
        EXPECT_EQ(posHash(pr.place), g.posHash) << at;
        EXPECT_EQ(pr.finalCost, g.finalCost) << at;
        // Costs are exact, so the running total needs no recompute.
        EXPECT_EQ(pr.finalCost, placementCost(nl, device(), pr.place))
            << at;
        EXPECT_EQ(pr.movesAttempted, g.attempted) << at;
        EXPECT_EQ(pr.movesAccepted, g.accepted) << at;
    }
}
