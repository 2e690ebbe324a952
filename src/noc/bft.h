/**
 * @file
 * Deflection-routed butterfly-fat-tree linking network (Sec 4.3).
 *
 * The linking network is PLD's software-linker analogue: it carries
 * latency-insensitive stream traffic between separately compiled
 * pages. Following Hoplite-style lightweight NoCs, flits are single
 * words, switches are bufferless, and contention is resolved by
 * deflection (the losing flit is misrouted and keeps circulating
 * instead of being buffered).
 *
 * Each leaf owns a standard leaf interface: per-output-port
 * destination registers that prepend the packet header. The registers
 * are themselves set by config packets sent through the network, so
 * re-linking operators "only [needs] a few packets per page" and no
 * recompilation (Sec 4.3).
 */

#ifndef PLD_NOC_BFT_H
#define PLD_NOC_BFT_H

#include <cstdint>
#include <memory>
#include <vector>

#include "dataflow/stream.h"

namespace pld {
namespace noc {

/** Single-word network flit. */
struct Flit
{
    bool valid = false;
    uint16_t dstLeaf = 0;
    uint8_t dstPort = 0;
    uint16_t srcLeaf = 0; ///< for the delivery ack (credit return)
    uint8_t srcPort = 0;
    bool config = false;
    uint32_t data = 0;
    uint32_t age = 0; ///< hop count (deflection diagnostics)
};

/** Aggregate network statistics. */
struct NocStats
{
    uint64_t injected = 0;
    uint64_t delivered = 0;
    uint64_t deflections = 0;
    uint64_t configApplied = 0;
    uint64_t totalHops = 0;
    /** Cycles in which stepCycle() visited any leaf or switch. */
    uint64_t activeCycles = 0;
};

/**
 * The network. Leaves are numbered 0..numLeaves-1; each has
 * `portsPerLeaf` logical stream ports in each direction.
 *
 * Usage per cycle: operators push words into outPort()s and pop from
 * inPort()s; stepCycle() moves flits one hop.
 *
 * A cycle costs time in proportion to what can move, not to the size
 * of the fabric: stepCycle() visits only the leaves in the active set
 * and the switches next to a valid flit (DESIGN.md §2, "Activity-driven
 * stepping").
 */
class BftNoc
{
  public:
    BftNoc(int num_leaves, int ports_per_leaf = 4,
           size_t fifo_depth = 16);
    /** Ports and the active set point into the network's own state. */
    BftNoc(const BftNoc &) = delete;
    BftNoc &operator=(const BftNoc &) = delete;

    int numLeaves() const { return nLeaves; }
    int portsPerLeaf() const { return nPorts; }

    /** Directly program a leaf's destination register (tests). */
    void setRoute(int leaf, int out_port, int dst_leaf, int dst_port);

    /**
     * Queue a config packet from the DMA leaf: when it arrives at
     * @p dst_leaf it programs register @p out_port with
     * (@p route_leaf, @p route_port). This is how the linker links.
     */
    void sendConfig(int src_leaf, int dst_leaf, int out_port,
                    int route_leaf, int route_port);

    /** Operator-facing ports: one object per (leaf, port, direction),
     * so repeated calls return the same pointer. */
    dataflow::StreamPort *inPort(int leaf, int port);
    dataflow::StreamPort *outPort(int leaf, int port);

    /** Advance the network one clock cycle. */
    void stepCycle();

    /**
     * True when stepCycle() would visit a leaf or a switch: a leaf is
     * in the active set or a switch holds a flit. When false,
     * stepCycle() changes nothing, not even activeCycles.
     */
    bool canAct() const;

    /**
     * Leaves whose port FIFOs the last stepCycle() changed: a word
     * entered an input FIFO (ejection or skid drain) or left an
     * output FIFO (injection). The page behind such a leaf may now be
     * able to read or write.
     */
    const std::vector<int> &touchedLeaves() const { return touched; }

    /** True when no flit is in flight and no config is pending. */
    bool idle() const;

    /**
     * True when leaf @p leaf has no outbound traffic anywhere in the
     * system: nothing queued for injection, no outstanding stream
     * credit (every injected flit acked), no config packet pending or
     * in flight, and no deflected flit awaiting re-entry. This is the
     * quiesce condition a hot-swap waits for before reconfiguring the
     * page behind the leaf — inbound words parked in the leaf's input
     * FIFOs are deliberately NOT part of it (they belong to the leaf
     * interface, survive reconfiguration, and may keep arriving from
     * still-running producers).
     */
    bool leafQuiet(int leaf) const;

    /**
     * True when no flit is moving through the network fabric itself:
     * switch link registers, deflected-flit re-entry slots, and the
     * config path are all empty. Words parked inside leaf interfaces
     * (input FIFOs, injection FIFOs, skid buffers, and their credit
     * bits) do NOT count — that state lives outside the reconfigured
     * region and survives partial reconfiguration in place, which is
     * exactly why a frozen fabric can be checkpointed: with every
     * consumer paused, full idle() may be unreachable (a producer's
     * queued words cannot inject into a full peer FIFO), but
     * transitIdle() always is, because stream credits bound each
     * port to one in-flight flit with a guaranteed skid slot.
     */
    bool transitIdle() const;

    /**
     * Per-leaf form of transitIdle(): no deflected flit awaiting
     * re-entry and no config packet pending or in flight at leaf
     * @p leaf. The quiesce condition for reconfiguring a page on a
     * FROZEN fabric (checkpoint reinstatement), where leafQuiet()'s
     * empty-injection-FIFO requirement could never be met.
     */
    bool leafTransitQuiet(int leaf) const;

    const NocStats &stats() const { return stats_; }

  private:
    struct Leaf
    {
        std::vector<dataflow::WordFifo> inFifos;
        std::vector<dataflow::WordFifo> outFifos;
        std::vector<std::pair<int, int>> destReg; // per out port
        std::vector<Flit> pendingConfig;
        /**
         * Credit-based stream flow control: one outstanding flit per
         * output port. Deflection routing can reorder flits taking
         * different paths, so the leaf interface serializes each
         * stream (inject the next word only after the previous one
         * was delivered) — the ack protocol real stream clients use
         * on deflection NoCs. This is also the single-port bandwidth
         * bottleneck behind Table 3's -O1 slowdown.
         */
        std::vector<uint8_t> inflight;
        /**
         * Skid buffer per input port: a flit arriving to a full FIFO
         * waits here (holding its stream credit) instead of bouncing
         * back into the network, which would congest shared switches.
         * Streams are point-to-point, so one slot per port suffices.
         */
        std::vector<Flit> skid;
        uint8_t configInflight = 0;
        bool touched = false; ///< listed in `touched` this cycle
        int rrNext = 0;   ///< round-robin injection pointer
        Flit reinsert;    ///< deflected-at-leaf flit awaiting re-entry
    };

    /** The three output link registers of a switch. */
    struct Links
    {
        Flit upOut;      // to parent
        Flit downOut[2]; // to children
    };

    /**
     * One internal switch of the binary fat tree. Node i covers the
     * leaf range [lo, hi); children are nodes or leaves.
     */
    struct Switch
    {
        int lo = 0, hi = 0;
        int parent = -1;   // -1 = root
        int left = -1, right = -1; // child switch ids; -1 = leaf level
        Links out;         // link registers (current cycle contents)
        bool queued = false; ///< in this cycle's update list
    };

    int leafParent(int leaf) const; ///< switch above a leaf
    /** Mark @p leaf as able to act in the next visit. */
    void
    wake(int leaf)
    {
        active[static_cast<size_t>(leaf) >> 6] |= 1ull << (leaf & 63);
    }
    bool leafCanAct(const Leaf &leaf) const;
    /** Record that leaf @p li's port FIFOs changed this cycle. */
    void touch(int li);
    void stepLeaf(int li);
    bool stepLeaves();
    Links routeSwitch(int si);
    bool stepSwitches();

    int nLeaves;
    int nPorts;
    size_t fifoDepth;
    std::vector<Leaf> leaves;
    std::vector<Switch> switches;
    /** One bit per leaf that may act on its next visit. */
    std::vector<uint64_t> active;
    /** Switches holding at least one valid flit, in no order. */
    std::vector<int> live;
    /** This cycle's switch update: ids and their next registers. */
    std::vector<int> updates;
    std::vector<Links> nextLinks;
    /** Flit each leaf injects this cycle; valid only for the leaves
     * listed in `injecting`. */
    std::vector<Flit> inject;
    std::vector<int> injecting;
    /** Leaves whose port FIFOs changed in the last stepCycle(). */
    std::vector<int> touched;
    /** Port objects by ((leaf * nPorts + port) * 2 + is_out), built
     * on first request. */
    std::vector<std::unique_ptr<dataflow::StreamPort>> ports;
    NocStats stats_;
};

} // namespace noc
} // namespace pld

#endif // PLD_NOC_BFT_H
