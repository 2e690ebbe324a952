/**
 * @file
 * Simulated-annealing placer (VPR-style).
 *
 * This is where the paper's compile-time physics lives: placement is
 * solved by a super-linear stochastic heuristic, so placing a small
 * page-sized netlist into an 18k-LUT page is dramatically cheaper
 * than placing a whole application into the full user region — the
 * mechanism behind PLD's separate-compilation speedup (Sec 4.1).
 *
 * Each temperature attempts max(64, effort * n^1.2) swap moves over
 * n cells. Moves are evaluate-then-commit: a move rescans only the
 * nets on the two swapped cells, with their candidate positions
 * overlaid, and writes state only when accepted; costs are multiples
 * of 1/32, so the running total is exact. Optional multi-seed restarts
 * run one after another on the calling thread and keep the best-cost
 * placement.
 */

#ifndef PLD_PNR_PLACER_H
#define PLD_PNR_PLACER_H

#include <cstdint>
#include <vector>

#include "fabric/device.h"
#include "netlist/netlist.h"

namespace pld {
namespace pnr {

/** Per-cell tile coordinates. */
struct Placement
{
    std::vector<std::pair<int, int>> pos; // (col,row) per cell
};

struct PlacerOptions
{
    /** Scales annealing moves; 1.0 is the default schedule. */
    double effort = 1.0;
    uint64_t seed = 1;
    /**
     * Independent annealing runs (distinct derived seeds), in index
     * order; the best-cost result wins, ties broken by the lowest
     * restart index.
     */
    int restarts = 1;
    /** Read by nothing (restarts run on the calling thread); kept
     * because perfbench sets it. */
    unsigned threads = 1;
};

struct PlaceResult
{
    Placement place;
    double finalCost = 0;
    double initialCost = 0;
    /** Summed over all restarts (total algorithmic work). */
    uint64_t movesAttempted = 0;
    uint64_t movesAccepted = 0;
};

/**
 * Place @p net into @p region of @p dev. fatal()s if the region lacks
 * capacity for the netlist's site demands (the paper's "operator does
 * not fit the page" developer burden).
 */
PlaceResult place(const netlist::Netlist &net,
                  const fabric::Device &dev, const fabric::Rect &region,
                  const PlacerOptions &opts);

/** Wirelength cost of an existing placement (for tests/reports). */
double placementCost(const netlist::Netlist &net,
                     const fabric::Device &dev, const Placement &p);

} // namespace pnr
} // namespace pld

#endif // PLD_PNR_PLACER_H
