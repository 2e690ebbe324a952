#include "pnr/placer.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/trace.h"

namespace pld {
namespace pnr {

using fabric::Device;
using fabric::Rect;
using netlist::Netlist;
using netlist::SiteKind;

namespace {

using Pos = std::pair<int, int>;

/** Extra weight, in tiles of wirelength, for a net crossing the SLR
 * boundary. */
constexpr double kSlrPenalty = 40.0;

double
widthFactor(int width)
{
    return 1.0 + width / 32.0;
}

/**
 * Cost of a net of weight @p w whose pins span columns
 * [min_c, max_c] and rows [min_r, max_r]: its HPWL, plus the SLR
 * penalty when the box crosses the boundary. With w = 1 + width/32
 * every cost is a multiple of 1/32 far below 2^53, so sums of costs
 * in double are exact in any order.
 */
double
boxCost(const Device &dev, double w, int min_c, int max_c, int min_r,
        int max_r)
{
    double hpwl = (max_c - min_c) + (max_r - min_r);
    double cost = hpwl * w;
    if (dev.slrOf(min_r) != dev.slrOf(max_r))
        cost += kSlrPenalty * w;
    return cost;
}

/**
 * Working state of one annealing run. A move is scored by evaluate(),
 * which rescans the nets of the two swapped cells with their candidate
 * positions overlaid and writes no placement state, and is applied by
 * commit() only when accepted. Costs are exact (see boxCost), so the
 * evaluated delta equals the apply-then-subtract one and the running
 * total never drifts.
 */
class Annealer
{
  public:
    Annealer(const Netlist &net, const Device &dev, const Rect &region,
             const PlacerOptions &opts)
        : net(net), dev(dev), opts(opts), rng(opts.seed)
    {
        // Enumerate candidate sites per kind.
        for (int k = 0; k < 3; ++k) {
            auto kind = static_cast<SiteKind>(k);
            sites[k] = dev.sitesIn(region, kind);
            occupant[k].assign(sites[k].size(), -1);
        }

        // Capacity check (the "fits the page" constraint).
        int demand[3] = {0, 0, 0};
        for (const auto &c : net.cells)
            demand[static_cast<int>(c.site)]++;
        const char *names[3] = {"CLB", "DSP", "BRAM"};
        for (int k = 0; k < 3; ++k) {
            if (demand[k] > static_cast<int>(sites[k].size())) {
                pld_fatal("netlist needs %d %s sites but region "
                          "offers only %zu — decompose the operator "
                          "into smaller pieces (paper Sec 4.1)",
                          demand[k], names[k], sites[k].size());
            }
        }

        // Initial placement: random legal assignment (VPR-style);
        // annealing does the real work from there.
        place_.pos.resize(net.cells.size());
        cellSiteIdx.resize(net.cells.size());
        std::vector<std::vector<int>> free_sites(3);
        for (int k = 0; k < 3; ++k) {
            free_sites[k].resize(sites[k].size());
            for (size_t s = 0; s < sites[k].size(); ++s)
                free_sites[k][s] = static_cast<int>(s);
            // Fisher-Yates with the seeded RNG.
            for (size_t s = sites[k].size(); s > 1; --s) {
                size_t j = rng.below(s);
                std::swap(free_sites[k][s - 1], free_sites[k][j]);
            }
        }
        int cursor[3] = {0, 0, 0};
        for (size_t ci = 0; ci < net.cells.size(); ++ci) {
            int k = static_cast<int>(net.cells[ci].site);
            int s = free_sites[k][cursor[k]++];
            occupant[k][s] = static_cast<int>(ci);
            cellSiteIdx[ci] = s;
            place_.pos[ci] = sites[k][s];
        }

        // Flat CSR views of the netlist: cell -> nets, net -> pins.
        cellKind.reserve(net.cells.size());
        cellNetStart.push_back(0);
        for (const auto &c : net.cells) {
            cellKind.push_back(static_cast<int>(c.site));
            cellNets.insert(cellNets.end(), c.pins.begin(),
                            c.pins.end());
            cellNetStart.push_back(static_cast<int>(cellNets.size()));
        }
        netPinStart.push_back(0);
        for (const auto &nn : net.nets) {
            if (nn.driver >= 0)
                netPins.push_back(nn.driver);
            netPins.insert(netPins.end(), nn.sinks.begin(),
                           nn.sinks.end());
            netPinStart.push_back(static_cast<int>(netPins.size()));
            netWeight.push_back(widthFactor(nn.width));
        }
        netStamp.assign(net.nets.size(), 0);

        netCost.resize(net.nets.size());
        totalCost = 0;
        for (size_t ni = 0; ni < net.nets.size(); ++ni) {
            netCost[ni] = costWith(static_cast<int>(ni), -1, {}, -1, {});
            totalCost += netCost[ni];
        }
    }

    PlaceResult
    run()
    {
        PlaceResult res;
        res.initialCost = totalCost;

        size_t n = net.cells.size();
        if (n == 0 || net.nets.empty()) {
            res.place = place_;
            return res;
        }

        // VPR-flavoured schedule: super-linear moves per temperature,
        // acceptance-keyed cooling, and a shrinking range window.
        auto moves_per_temp = static_cast<uint64_t>(
            std::max(64.0, opts.effort * std::pow(double(n), 1.2)));
        double t = initialTemperature();
        uint64_t attempted = 0, accepted = 0;

        size_t max_sites = 0;
        for (int k = 0; k < 3; ++k)
            max_sites = std::max(max_sites, sites[k].size());
        rangeLimit = static_cast<int>(max_sites);

        double best_cost = totalCost;
        std::vector<int> best_site_idx = cellSiteIdx;

        double exit_threshold =
            0.002 * std::max(1.0, totalCost) / net.nets.size();
        int temp_steps = 0;
        while (t > exit_threshold && temp_steps < 200) {
            uint64_t acc_this_temp = 0;
            for (uint64_t m = 0; m < moves_per_temp; ++m) {
                if (tryMove(t)) {
                    ++acc_this_temp;
                    ++accepted;
                }
                ++attempted;
            }
            double rate =
                double(acc_this_temp) / double(moves_per_temp);
            // The annealing schedule is a pure function of the seed,
            // so these instants are structural.
            obs::instant("pnr", "pnr.place.temp")
                .arg("step", static_cast<int64_t>(temp_steps))
                .arg("accepted",
                     static_cast<int64_t>(acc_this_temp));
            obs::count("pnr.place.temp_steps");
            // VPR temperature update keyed on acceptance rate.
            double alpha;
            if (rate > 0.96)
                alpha = 0.5;
            else if (rate > 0.8)
                alpha = 0.9;
            else if (rate > 0.15)
                alpha = 0.95;
            else
                alpha = 0.8;
            t *= alpha;
            // Keep acceptance near 0.44 by shrinking the window.
            rangeLimit = std::max(
                4, std::min(static_cast<int>(max_sites),
                            static_cast<int>(rangeLimit *
                                             (1.0 - 0.44 + rate))));
            if (totalCost < best_cost) {
                best_cost = totalCost;
                best_site_idx = cellSiteIdx;
            }
            ++temp_steps;
        }

        // Restore the best placement seen (annealing may drift after
        // its best point). The running cost is exact, so best_cost is
        // the returned placement's cost.
        if (best_cost < totalCost) {
            for (size_t ci = 0; ci < n; ++ci)
                place_.pos[ci] = sites[cellKind[ci]][best_site_idx[ci]];
        }

        res.place = place_;
        res.finalCost = best_cost;
        res.movesAttempted = attempted;
        res.movesAccepted = accepted;
        return res;
    }

  private:
    /**
     * Cost of net @p ni with cell @p a at @p pa and cell @p b at
     * @p pb instead of their current positions (-1 = no overlay).
     */
    double
    costWith(int ni, int a, Pos pa, int b, Pos pb) const
    {
        int first = netPinStart[ni], last = netPinStart[ni + 1];
        if (first == last)
            return 0;
        int min_c = 1 << 30, max_c = -1, min_r = 1 << 30, max_r = -1;
        for (int e = first; e < last; ++e) {
            int cell = netPins[e];
            auto [c, r] = cell == a   ? pa
                          : cell == b ? pb
                                      : place_.pos[cell];
            min_c = std::min(min_c, c);
            max_c = std::max(max_c, c);
            min_r = std::min(min_r, r);
            max_r = std::max(max_r, r);
        }
        return boxCost(dev, netWeight[ni], min_c, max_c, min_r, max_r);
    }

    /**
     * Cost delta of swapping cell @p ci with whatever occupies
     * sites[k][target]. Placement state is untouched; each distinct
     * net on the two cells is rescanned once (a per-net stamp skips
     * repeats) and its new cost is kept in `touched` for commit().
     */
    double
    evaluate(int ci, int k, int target)
    {
        int other = occupant[k][target];
        Pos to = sites[k][target];
        Pos from = place_.pos[ci];
        ++stamp;
        touched.clear();
        double delta = 0;
        for (int cell : {ci, other}) {
            if (cell < 0)
                continue;
            for (int e = cellNetStart[cell]; e < cellNetStart[cell + 1];
                 ++e) {
                int ni = cellNets[e];
                if (netStamp[ni] == stamp)
                    continue;
                netStamp[ni] = stamp;
                double fresh = costWith(ni, ci, to, other, from);
                touched.emplace_back(ni, fresh);
                delta += fresh - netCost[ni];
            }
        }
        return delta;
    }

    /** Apply the swap evaluate() just scored as @p delta. */
    void
    commit(int ci, int k, int target, double delta)
    {
        int old_site = cellSiteIdx[ci];
        int other = occupant[k][target];
        occupant[k][old_site] = other;
        occupant[k][target] = ci;
        cellSiteIdx[ci] = target;
        place_.pos[ci] = sites[k][target];
        if (other >= 0) {
            cellSiteIdx[other] = old_site;
            place_.pos[other] = sites[k][old_site];
        }
        for (auto [ni, fresh] : touched)
            netCost[ni] = fresh;
        totalCost += delta;
    }

    double
    initialTemperature()
    {
        // Score random swaps to estimate the cost-delta scale.
        double sum = 0, sq = 0;
        const int samples = 64;
        for (int i = 0; i < samples; ++i) {
            int ci = static_cast<int>(rng.below(net.cells.size()));
            int k = cellKind[ci];
            if (sites[k].size() < 2)
                continue;
            int target =
                static_cast<int>(rng.below(sites[k].size()));
            if (target == cellSiteIdx[ci])
                continue;
            double delta = evaluate(ci, k, target);
            sum += delta;
            sq += delta * delta;
        }
        double mean = sum / samples;
        double var = std::max(1.0, sq / samples - mean * mean);
        return 20.0 * std::sqrt(var);
    }

    bool
    tryMove(double t)
    {
        int ci = static_cast<int>(rng.below(net.cells.size()));
        int k = cellKind[ci];
        if (sites[k].size() < 2)
            return false;
        int old_site = cellSiteIdx[ci];
        // Pick within the range window around the current site (the
        // site list is row-major, so index distance tracks physical
        // locality).
        int span = std::min<int>(rangeLimit,
                                 static_cast<int>(sites[k].size()) - 1);
        int lo = std::max(0, old_site - span);
        int hi = std::min(static_cast<int>(sites[k].size()) - 1,
                          old_site + span);
        int target =
            lo + static_cast<int>(rng.below(
                     static_cast<uint64_t>(hi - lo + 1)));
        if (target == old_site)
            return false;

        double delta = evaluate(ci, k, target);
        if (delta > 0) {
            double u = rng.uniform();
            // delta > 38t bounds exp(-delta/t) below exp(-37) < 2^-53,
            // the smallest nonzero u: a certain reject, without exp.
            if (u > 0 && delta > 38 * t)
                return false;
            if (!(u < std::exp(-delta / t)))
                return false;
        }
        commit(ci, k, target, delta);
        return true;
    }

    const Netlist &net;
    const Device &dev;
    PlacerOptions opts;
    Rng rng;

    std::vector<Pos> sites[3];
    std::vector<int> occupant[3];
    std::vector<int> cellSiteIdx;
    Placement place_;

    std::vector<int> cellKind;
    std::vector<int> cellNetStart, cellNets;
    std::vector<int> netPinStart, netPins;
    std::vector<double> netWeight;

    std::vector<double> netCost;
    double totalCost = 0;
    int rangeLimit = 1 << 20;

    /** evaluate() scratch: nets already rescanned for this move
     * (64-bit so the stamp never wraps), and their new costs. */
    std::vector<uint64_t> netStamp;
    uint64_t stamp = 0;
    std::vector<std::pair<int, double>> touched;
};

/** Seed for restart @p r; restart 0 keeps the caller's seed. */
uint64_t
restartSeed(uint64_t seed, uint64_t r)
{
    return seed + 0x9E3779B97F4A7C15ull * r;
}

} // namespace

PlaceResult
place(const Netlist &net, const Device &dev, const Rect &region,
      const PlacerOptions &opts)
{
    // Best cost wins; ties go to the lowest restart index.
    PlaceResult best;
    uint64_t attempted = 0, accepted = 0;
    for (int r = 0; r < std::max(1, opts.restarts); ++r) {
        obs::Span span("pnr", "pnr.place.restart");
        span.arg("restart", static_cast<int64_t>(r));
        PlacerOptions o = opts;
        o.seed = restartSeed(opts.seed, r);
        PlaceResult res = Annealer(net, dev, region, o).run();
        span.arg("moves", static_cast<int64_t>(res.movesAttempted));
        obs::count("pnr.place.restarts");
        attempted += res.movesAttempted;
        accepted += res.movesAccepted;
        if (r == 0 || res.finalCost < best.finalCost)
            best = std::move(res);
    }
    obs::count("pnr.place.moves.attempted",
               static_cast<int64_t>(attempted));
    obs::count("pnr.place.moves.accepted",
               static_cast<int64_t>(accepted));
    best.movesAttempted = attempted;
    best.movesAccepted = accepted;
    return best;
}

double
placementCost(const Netlist &net, const Device &dev, const Placement &p)
{
    double total = 0;
    for (const auto &nn : net.nets) {
        int min_c = 1 << 30, max_c = -1, min_r = 1 << 30, max_r = -1;
        auto touch = [&](int cell) {
            auto [c, r] = p.pos[cell];
            min_c = std::min(min_c, c);
            max_c = std::max(max_c, c);
            min_r = std::min(min_r, r);
            max_r = std::max(max_r, r);
        };
        if (nn.driver >= 0)
            touch(nn.driver);
        for (int s : nn.sinks)
            touch(s);
        if (max_c < 0)
            continue;
        total += boxCost(dev, widthFactor(nn.width), min_c, max_c, min_r,
                         max_r);
    }
    return total;
}

} // namespace pnr
} // namespace pld
