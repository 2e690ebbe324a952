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
 * n cells. Two levers keep the inner loop fast and the wall time
 * scalable: evaluate-then-commit moves (a move rescans only the nets
 * on the two swapped cells, with their candidate positions overlaid,
 * and writes state only when accepted; costs are multiples of 1/32, so
 * the running total is exact), and multi-seed restarts that run
 * concurrently and keep the best-cost placement. Restart results are
 * independent of the thread count, so placements are bit-identical at
 * threads=1 and threads=N for the same seed.
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
     * Independent annealing runs (distinct derived seeds); the
     * best-cost result wins, ties broken by restart index so the
     * outcome never depends on scheduling.
     */
    int restarts = 1;
    /** Concurrent restarts: 0 = thread-budget auto, 1 = serial,
     * N = exactly N threads. */
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
    /** Wall-clock of the whole placement (restarts overlap). */
    double seconds = 0;
    /** Summed busy time across restarts (single-node cost). */
    double cpuSeconds = 0;
    int restartsRun = 1;
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
