/**
 * @file
 * Place-and-route engine: the backend "Vivado" of the reproduction.
 *
 * Orchestrates placement, routing, timing, and bitstream generation
 * for one region (a page under the abstract shell, or the whole user
 * area for monolithic compiles) on the calling thread, and reports
 * per-stage time — the numbers Table 2 is built from.
 */

#ifndef PLD_PNR_ENGINE_H
#define PLD_PNR_ENGINE_H

#include "common/diag.h"
#include "pnr/placer.h"
#include "pnr/router.h"
#include "pnr/timing.h"

namespace pld {
namespace pnr {

/** A generated configuration image (xclbin stand-in). */
struct Bitstream
{
    size_t bytes = 0;
    uint64_t hash = 0;
};

struct PnrOptions
{
    double effort = 1.0;
    uint64_t seed = 1;
    /**
     * Use the Vitis abstract-shell mechanism (Sec 4.1): compile sees
     * only the target region. When false the engine additionally
     * loads and checks the full device context, slowing page
     * compiles exactly the way the paper describes.
     */
    bool abstractShell = true;
    int channelCapacity = 64;
    /** Independent annealing restarts; best-cost placement wins. */
    int placeRestarts = 1;
    /** Rip-up/reroute negotiation iterations (retry ladders raise
     * this to push through congestion). */
    int routeMaxIters = 8;
    /**
     * Required clock in MHz; 0 disables the check. When set, an
     * achieved Fmax below it is a structured TimingMiss error in the
     * result status (paged -O1 compiles require the 200 MHz overlay
     * clock).
     */
    double requiredFmaxMHz = 0;
    /**
     * Fault-injection hooks, set by the compile manager (never
     * directly by users): force the routing result infeasible /
     * multiply the achieved Fmax by a derate < 1. They model the
     * failure at the reporting boundary so every downstream recovery
     * path sees exactly what a congested or slow design produces.
     */
    bool injectRouteFail = false;
    double injectFmaxDerate = 1.0;
    TimingOptions timing;
};

struct PnrResult
{
    Placement place;
    RouteResult routing;
    TimingResult timing;
    Bitstream bits;
    /** Wall-clock seconds per stage. */
    double placeSeconds = 0;
    double routeSeconds = 0;
    double bitgenSeconds = 0;
    double contextSeconds = 0; ///< full-context load when no shell
    /** Thread-CPU seconds of placement and routing: busy time of the
     * calling thread, which runs both (the own-node cost). */
    double placeCpuSeconds = 0;
    double routeCpuSeconds = 0;
    /** Annealing moves attempted across all restarts (deterministic
     * work proxy for compile-time scaling tests). */
    uint64_t placeMoves = 0;
    /** Achieved Fmax meets PnrOptions::requiredFmaxMHz (vacuously
     * true when no clock is required). */
    bool timingMet = true;
    /** Feasible routing AND timing met. */
    bool success = false;
    /**
     * Structured outcome: route infeasibility and timing misses are
     * Error diagnostics here, not log lines — status.ok() is false
     * whenever success is, so callers cannot silently ignore a
     * failed backend run.
     */
    CompileStatus status;
};

/**
 * Run the full backend on @p net targeted at @p region.
 */
PnrResult placeAndRoute(const netlist::Netlist &net,
                        const fabric::Device &dev,
                        const fabric::Rect &region,
                        const PnrOptions &opts);

/** Deterministic bitstream image for a routed design. */
Bitstream generateBitstream(const netlist::Netlist &net,
                            const fabric::Rect &region);

} // namespace pnr
} // namespace pld

#endif // PLD_PNR_ENGINE_H
