#include <gtest/gtest.h>

#include <cstring>

#include "common/hash.h"
#include "fabric/device.h"
#include "pnr/router.h"

using namespace pld;
using namespace pld::pnr;
using fabric::Device;
using fabric::makeU50;
using netlist::Netlist;
using netlist::SiteKind;

namespace {

const Device &
device()
{
    static Device d = makeU50();
    return d;
}

/**
 * 160 nets of mixed width (1 to 64 bits) with one to three sinks
 * each, scattered over a 24x24-tile window by a fixed LCG. Also a
 * sink on its driver's tile, an externally driven net and a net with
 * no sinks, which the router must skip.
 */
void
makeCongested(Netlist &nl, Placement &p)
{
    uint64_t s = 0x5eed;
    auto next = [&](int bound) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<int>((s >> 33) % bound);
    };
    auto cell = [&](const std::string &name) {
        int c = nl.addCell({SiteKind::Clb, name, 1, 1, 1, 0, {}});
        p.pos.push_back({2 + next(24), 10 + next(24)});
        return c;
    };
    const int widths[] = {1, 8, 16, 32, 64};
    for (int i = 0; i < 160; ++i) {
        std::string n = std::to_string(i);
        int w = nl.addNet("n" + n, widths[next(5)], cell("d" + n));
        int sinks = 1 + next(3);
        for (int k = 0; k < sinks; ++k)
            nl.addSink(w, cell("s" + n + "_" + std::to_string(k)));
    }
    int d = cell("same");
    int same = nl.addNet("same", 32, d);
    nl.addSink(same, cell("same_sink"));
    p.pos.back() = p.pos[d];
    nl.addSink(nl.addNet("ext", 32, -1), cell("ext_sink"));
    nl.addNet("open", 32, cell("open_driver"));
}

/** Digest of everything route() decides: paths, wirelength,
 * iterations, overuse and peak utilization. */
uint64_t
routeDigest(const RouteResult &rr)
{
    Hasher h;
    for (const auto &path : rr.routes) {
        h.u64(path.size());
        for (auto [c, r] : path) {
            h.i64(c);
            h.i64(r);
        }
    }
    h.i64(rr.totalWirelength);
    h.i64(rr.iterations);
    h.i64(rr.overusedTiles);
    uint64_t util;
    std::memcpy(&util, &rr.maxUtilization, sizeof(util));
    h.u64(util);
    return h.digest();
}

} // namespace

TEST(Router, RoutesSimpleNet)
{
    Netlist nl;
    int a = nl.addCell({SiteKind::Clb, "a", 4, 4, 1, 0, {}});
    int b = nl.addCell({SiteKind::Clb, "b", 4, 4, 1, 0, {}});
    int w = nl.addNet("w", 32, a);
    nl.addSink(w, b);

    Placement p;
    p.pos = {{2, 2}, {10, 8}};
    RouteResult rr = route(nl, device(), p, {});
    EXPECT_TRUE(rr.feasible);
    // Manhattan distance 8+6 = 14 tiles, width 32 -> 4 units each.
    EXPECT_EQ(rr.totalWirelength, 14 * 4);
}

TEST(Router, ZeroLengthNetIsFree)
{
    Netlist nl;
    int a = nl.addCell({SiteKind::Clb, "a", 4, 4, 1, 0, {}});
    int b = nl.addCell({SiteKind::Dsp, "b", 0, 0, 1, 0, {}});
    int w = nl.addNet("w", 32, a);
    nl.addSink(w, b);
    Placement p;
    p.pos = {{5, 5}, {5, 5}}; // same tile (different site kinds)
    RouteResult rr = route(nl, device(), p, {});
    EXPECT_TRUE(rr.feasible);
    EXPECT_EQ(rr.totalWirelength, 0);
}

TEST(Router, CongestionForcesIterationsOrOveruse)
{
    // Funnel many wide nets through the same corridor with tiny
    // capacity: router must iterate, and utilization approaches 1.
    Netlist nl;
    const int k = 24;
    Placement p;
    for (int i = 0; i < k; ++i) {
        int a = nl.addCell(
            {SiteKind::Clb, "s" + std::to_string(i), 1, 1, 1, 0, {}});
        int b = nl.addCell(
            {SiteKind::Clb, "t" + std::to_string(i), 1, 1, 1, 0, {}});
        int w = nl.addNet("w" + std::to_string(i), 32, a);
        nl.addSink(w, b);
        p.pos.push_back({0, i});
        p.pos.push_back({30, i});
    }
    RouterOptions opts;
    opts.channelCapacity = 8;
    RouteResult rr = route(nl, device(), p, opts);
    EXPECT_GT(rr.maxUtilization, 0.4);
    EXPECT_GE(rr.iterations, 1);
}

TEST(Router, HighCapacityAvoidsOveruse)
{
    Netlist nl;
    Placement p;
    for (int i = 0; i < 16; ++i) {
        int a = nl.addCell(
            {SiteKind::Clb, "s" + std::to_string(i), 1, 1, 1, 0, {}});
        int b = nl.addCell(
            {SiteKind::Clb, "t" + std::to_string(i), 1, 1, 1, 0, {}});
        int w = nl.addNet("w" + std::to_string(i), 32, a);
        nl.addSink(w, b);
        p.pos.push_back({i, 0});
        p.pos.push_back({i, 40});
    }
    RouterOptions opts;
    opts.channelCapacity = 256;
    RouteResult rr = route(nl, device(), p, opts);
    EXPECT_TRUE(rr.feasible);
    EXPECT_EQ(rr.iterations, 1);
}

TEST(Router, WideBusesUseMoreWirelength)
{
    auto run_width = [&](int width) {
        Netlist nl;
        int a = nl.addCell({SiteKind::Clb, "a", 1, 1, 1, 0, {}});
        int b = nl.addCell({SiteKind::Clb, "b", 1, 1, 1, 0, {}});
        int w = nl.addNet("w", width, a);
        nl.addSink(w, b);
        Placement p;
        p.pos = {{0, 0}, {10, 0}};
        return route(nl, device(), p, {}).totalWirelength;
    };
    EXPECT_GT(run_width(64), run_width(8));
}

TEST(Router, GoldenRoutes)
{
    // Pinned routing results: any change to the path costs, the
    // rip-up set or the order demand is committed in shows up here.
    Netlist nl;
    Placement p;
    makeCongested(nl, p);
    struct Golden
    {
        int capacity;
        int maxIters;
        uint64_t digest;
        int64_t wirelength;
        int iterations;
        int overused;
    };
    const Golden golden[] = {
        {12, 9, 0x92c0777f334811baull, 18684, 10, 558},
        {40, 8, 0x35bf2aa506328a06ull, 18684, 9, 139},
        {64, 8, 0xe1cf19e6ce8b4deeull, 18684, 9, 0},
        {80, 8, 0x9e81f39c97ef9808ull, 18684, 3, 0},
    };
    for (const Golden &g : golden) {
        RouterOptions opts;
        opts.channelCapacity = g.capacity;
        opts.maxIters = g.maxIters;
        RouteResult rr = route(nl, device(), p, opts);
        std::string at = "capacity " + std::to_string(g.capacity);
        EXPECT_GE(rr.iterations, 2) << at;
        EXPECT_EQ(routeDigest(rr), g.digest) << at;
        EXPECT_EQ(rr.totalWirelength, g.wirelength) << at;
        EXPECT_EQ(rr.iterations, g.iterations) << at;
        EXPECT_EQ(rr.overusedTiles, g.overused) << at;
    }
}
