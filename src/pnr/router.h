/**
 * @file
 * Negotiated-congestion router (PathFinder-style) over a coarse
 * channel model.
 *
 * Each fabric tile offers a fixed amount of routing capacity; nets
 * demand capacity proportional to bus width along an L-shaped path
 * from driver to each sink. Overused tiles accumulate history cost
 * and overused nets are ripped up and rerouted until the solution is
 * feasible — the second super-linear stage of FPGA compilation.
 *
 * The negotiation loop is batch-synchronous: every net in an
 * iteration routes against the congestion state frozen at the
 * iteration start, and the batch's paths then add their demand in
 * worklist order. Nets never see each other's demand within a batch,
 * so a net's path does not depend on where it sits in the worklist.
 */

#ifndef PLD_PNR_ROUTER_H
#define PLD_PNR_ROUTER_H

#include "pnr/placer.h"

namespace pld {
namespace pnr {

struct RouterOptions
{
    /** Routing capacity units per tile. */
    int channelCapacity = 64;
    /** Maximum rip-up/reroute iterations. */
    int maxIters = 8;
    /** Read by nothing (the router draws no random numbers); kept
     * because perfbench sets it. */
    uint64_t seed = 1;
    /** Read by nothing (every batch routes on the calling thread);
     * kept because perfbench sets it. */
    unsigned threads = 1;
};

struct RouteResult
{
    bool feasible = false;
    int iterations = 0;
    int64_t totalWirelength = 0; ///< tile-segments used (width-scaled)
    int overusedTiles = 0;       ///< remaining after last iteration
    double maxUtilization = 0;   ///< peak tile demand / capacity
    /** Tiles crossed by each net, in routing order (determinism
     * checks and downstream analysis). */
    std::vector<std::vector<std::pair<int, int>>> routes;
};

/** Route every net of @p net under placement @p place. */
RouteResult route(const netlist::Netlist &net,
                  const fabric::Device &dev, const Placement &place,
                  const RouterOptions &opts);

} // namespace pnr
} // namespace pld

#endif // PLD_PNR_ROUTER_H
