#include "pnr/router.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/trace.h"

namespace pld {
namespace pnr {

using fabric::Device;
using netlist::Netlist;

namespace {

/** Demand units one net places on each tile it crosses. */
int
demandOf(int width)
{
    return std::max(1, (width + 7) / 8);
}

/**
 * Router working state: per-tile present demand and history cost.
 * Each negotiation iteration is one routeBatch() over its worklist.
 */
class PathFinder
{
  public:
    PathFinder(const Netlist &net, const Device &dev,
               const Placement &place, const RouterOptions &opts)
        : net(net), dev(dev), place(place), opts(opts)
    {
        demand.assign(static_cast<size_t>(dev.width) * dev.height, 0);
        history.assign(demand.size(), 0.0f);
        routes.resize(net.nets.size());
    }

    RouteResult
    run()
    {
        RouteResult res;

        // Initial route of every net.
        std::vector<int> work(net.nets.size());
        for (size_t ni = 0; ni < net.nets.size(); ++ni)
            work[ni] = static_cast<int>(ni);
        {
            obs::Span init("pnr", "pnr.route.init");
            init.arg("nets", static_cast<int64_t>(work.size()));
            routeBatch(work);
        }

        int iter = 1;
        for (; iter <= opts.maxIters; ++iter) {
            int over = countOverused();
            if (over == 0)
                break;
            obs::Span ispan("pnr", "pnr.route.iter");
            ispan.arg("iter", static_cast<int64_t>(iter));
            ispan.arg("overused", static_cast<int64_t>(over));
            obs::count("pnr.route.iterations");
            // Accumulate history on overused tiles, rip up and
            // reroute every net that crosses one.
            for (size_t t = 0; t < demand.size(); ++t) {
                if (demand[t] > opts.channelCapacity)
                    history[t] += 0.5f *
                                  (demand[t] - opts.channelCapacity);
            }
            work.clear();
            for (size_t ni = 0; ni < net.nets.size(); ++ni) {
                if (crossesOveruse(static_cast<int>(ni)))
                    work.push_back(static_cast<int>(ni));
            }
            for (int ni : work)
                ripUp(ni);
            obs::count("pnr.route.ripups",
                       static_cast<int64_t>(work.size()));
            ispan.arg("rerouted", static_cast<int64_t>(work.size()));
            routeBatch(work);
        }

        res.iterations = iter;
        res.overusedTiles = countOverused();
        res.feasible = (res.overusedTiles == 0);
        int64_t wl = 0;
        int peak = 0;
        for (size_t ni = 0; ni < net.nets.size(); ++ni)
            wl += static_cast<int64_t>(routes[ni].size()) *
                  demandOf(net.nets[ni].width);
        for (size_t t = 0; t < demand.size(); ++t)
            peak = std::max(peak, demand[t]);
        res.totalWirelength = wl;
        res.maxUtilization =
            static_cast<double>(peak) / opts.channelCapacity;
        res.routes = std::move(routes);
        return res;
    }

  private:
    size_t
    tileIdx(int c, int r) const
    {
        return static_cast<size_t>(r) * dev.width + c;
    }

    double
    tileCost(int c, int r) const
    {
        size_t t = tileIdx(c, r);
        double present =
            demand[t] >= opts.channelCapacity
                ? 4.0 * (demand[t] - opts.channelCapacity + 1)
                : 0.0;
        return 1.0 + history[t] + present;
    }

    /** Cost of an L path; fills @p out with tiles when not null. */
    double
    walkL(int c0, int r0, int c1, int r1, bool horizontal_first,
          std::vector<std::pair<int, int>> *out) const
    {
        double cost = 0;
        int c = c0, r = r0;
        auto step = [&](int dc, int dr) {
            c += dc;
            r += dr;
            cost += tileCost(c, r);
            if (out)
                out->emplace_back(c, r);
        };
        if (horizontal_first) {
            while (c != c1)
                step(c1 > c ? 1 : -1, 0);
            while (r != r1)
                step(0, r1 > r ? 1 : -1);
        } else {
            while (r != r1)
                step(0, r1 > r ? 1 : -1);
            while (c != c1)
                step(c1 > c ? 1 : -1, 0);
        }
        return cost;
    }

    /** Route one net against the frozen congestion state into
     * routes[ni]; its demand is committed after the batch. */
    void
    routeNet(int ni)
    {
        const auto &nn = net.nets[ni];
        if (nn.driver < 0 || nn.sinks.empty())
            return;
        auto [c0, r0] = place.pos[nn.driver];
        for (int s : nn.sinks) {
            auto [c1, r1] = place.pos[s];
            if (c0 == c1 && r0 == r1)
                continue;
            double ch = walkL(c0, r0, c1, r1, true, nullptr);
            double cv = walkL(c0, r0, c1, r1, false, nullptr);
            walkL(c0, r0, c1, r1, ch <= cv, &routes[ni]);
        }
    }

    /**
     * Route every net of @p work against the frozen state, then add
     * the new paths' demand in work order. Each net reads only the
     * frozen demand/history and writes only its own routes[ni] slot.
     */
    void
    routeBatch(const std::vector<int> &work)
    {
        for (int ni : work)
            routeNet(ni);
        for (int ni : work) {
            int dem = demandOf(net.nets[ni].width);
            for (auto [c, r] : routes[ni])
                demand[tileIdx(c, r)] += dem;
        }
    }

    void
    ripUp(int ni)
    {
        int dem = demandOf(net.nets[ni].width);
        for (auto [c, r] : routes[ni])
            demand[tileIdx(c, r)] -= dem;
        routes[ni].clear();
    }

    bool
    crossesOveruse(int ni) const
    {
        for (auto [c, r] : routes[ni]) {
            if (demand[tileIdx(c, r)] > opts.channelCapacity)
                return true;
        }
        return false;
    }

    int
    countOverused() const
    {
        int n = 0;
        for (size_t t = 0; t < demand.size(); ++t)
            n += (demand[t] > opts.channelCapacity);
        return n;
    }

    const Netlist &net;
    const Device &dev;
    const Placement &place;
    RouterOptions opts;

    std::vector<int> demand;
    std::vector<float> history;
    std::vector<std::vector<std::pair<int, int>>> routes;
};

} // namespace

RouteResult
route(const Netlist &net, const Device &dev, const Placement &place,
      const RouterOptions &opts)
{
    PathFinder pf(net, dev, place, opts);
    return pf.run();
}

} // namespace pnr
} // namespace pld
