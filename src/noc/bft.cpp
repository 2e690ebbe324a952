#include "noc/bft.h"

#include <bit>

#include "common/logging.h"

namespace pld {
namespace noc {

using dataflow::WordFifo;

namespace {

int
roundUpPow2(int v)
{
    int p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Operator end of a leaf input FIFO. A read that frees room for the
 * word parked in the port's skid slot wakes the leaf. */
class LeafInPort final : public dataflow::StreamPort
{
  public:
    LeafInPort(WordFifo &fifo, const Flit &skid, uint64_t &active,
               uint64_t bit)
        : fifo(fifo), skid(skid), active(active), bit(bit)
    {
    }

    bool canRead() const override { return fifo.canPop(); }
    bool canWrite() const override { return false; }

    uint32_t
    read() override
    {
        if (skid.valid)
            active |= bit;
        return fifo.pop();
    }

    void write(uint32_t) override { pld_panic("write to read port"); }

  private:
    WordFifo &fifo;
    const Flit &skid;
    uint64_t &active;
    uint64_t bit;
};

/** Operator end of a leaf output FIFO. Every write wakes the leaf. */
class LeafOutPort final : public dataflow::StreamPort
{
  public:
    LeafOutPort(WordFifo &fifo, uint64_t &active, uint64_t bit)
        : fifo(fifo), active(active), bit(bit)
    {
    }

    bool canRead() const override { return false; }
    bool canWrite() const override { return fifo.canPush(); }
    uint32_t read() override { pld_panic("read from write port"); }

    void
    write(uint32_t w) override
    {
        fifo.push(w);
        active |= bit;
    }

  private:
    WordFifo &fifo;
    uint64_t &active;
    uint64_t bit;
};

} // namespace

BftNoc::BftNoc(int num_leaves, int ports_per_leaf, size_t fifo_depth)
    : nLeaves(roundUpPow2(std::max(2, num_leaves))),
      nPorts(ports_per_leaf), fifoDepth(fifo_depth)
{
    leaves.resize(nLeaves);
    for (auto &leaf : leaves) {
        for (int p = 0; p < nPorts; ++p) {
            leaf.inFifos.emplace_back(fifoDepth);
            leaf.outFifos.emplace_back(fifoDepth);
        }
        leaf.destReg.assign(nPorts, {-1, -1});
        leaf.inflight.assign(nPorts, 0);
        leaf.skid.assign(nPorts, Flit{});
    }
    active.assign((static_cast<size_t>(nLeaves) + 63) / 64, 0);
    inject.assign(nLeaves, Flit{});
    ports.resize(static_cast<size_t>(nLeaves) * nPorts * 2);

    // Heap-shaped binary tree: switch 0 is the root over [0, L).
    int num_switches = nLeaves - 1;
    switches.resize(num_switches);
    // Build ranges breadth-first.
    switches[0].lo = 0;
    switches[0].hi = nLeaves;
    switches[0].parent = -1;
    for (int i = 0; i < num_switches; ++i) {
        Switch &s = switches[i];
        int span = s.hi - s.lo;
        if (span > 2) {
            s.left = 2 * i + 1;
            s.right = 2 * i + 2;
            switches[s.left].lo = s.lo;
            switches[s.left].hi = s.lo + span / 2;
            switches[s.left].parent = i;
            switches[s.right].lo = s.lo + span / 2;
            switches[s.right].hi = s.hi;
            switches[s.right].parent = i;
        } else {
            s.left = -1; // children are leaves lo and lo+1
            s.right = -1;
        }
    }
}

int
BftNoc::leafParent(int leaf) const
{
    // Bottom-level switches are the last nLeaves/2 heap entries.
    return (nLeaves - 1) - nLeaves / 2 + leaf / 2;
}

void
BftNoc::setRoute(int leaf, int out_port, int dst_leaf, int dst_port)
{
    leaves[leaf].destReg[out_port] = {dst_leaf, dst_port};
    wake(leaf);
}

void
BftNoc::sendConfig(int src_leaf, int dst_leaf, int out_port,
                   int route_leaf, int route_port)
{
    Flit f;
    f.valid = true;
    f.config = true;
    f.dstLeaf = static_cast<uint16_t>(dst_leaf);
    f.dstPort = static_cast<uint8_t>(out_port);
    f.data = (static_cast<uint32_t>(route_leaf) << 8) |
             static_cast<uint32_t>(route_port & 0xFF);
    leaves[src_leaf].pendingConfig.push_back(f);
    wake(src_leaf);
}

dataflow::StreamPort *
BftNoc::inPort(int leaf, int port)
{
    auto &slot = ports[(static_cast<size_t>(leaf) * nPorts + port) * 2];
    if (!slot) {
        Leaf &l = leaves[leaf];
        slot = std::make_unique<LeafInPort>(
            l.inFifos[port], l.skid[port],
            active[static_cast<size_t>(leaf) >> 6], 1ull << (leaf & 63));
    }
    return slot.get();
}

dataflow::StreamPort *
BftNoc::outPort(int leaf, int port)
{
    auto &slot =
        ports[(static_cast<size_t>(leaf) * nPorts + port) * 2 + 1];
    if (!slot) {
        slot = std::make_unique<LeafOutPort>(
            leaves[leaf].outFifos[port],
            active[static_cast<size_t>(leaf) >> 6], 1ull << (leaf & 63));
    }
    return slot.get();
}

void
BftNoc::stepCycle()
{
    for (int li : touched)
        leaves[li].touched = false;
    touched.clear();
    bool leaves_moved = stepLeaves();
    bool switches_moved = stepSwitches();
    if (leaves_moved || switches_moved)
        ++stats_.activeCycles;
}

bool
BftNoc::canAct() const
{
    if (!live.empty())
        return true;
    for (uint64_t w : active) {
        if (w != 0)
            return true;
    }
    return false;
}

void
BftNoc::touch(int li)
{
    if (!leaves[li].touched) {
        leaves[li].touched = true;
        touched.push_back(li);
    }
}

bool
BftNoc::stepLeaves()
{
    // Visit active leaves in increasing index, re-reading each bitset
    // word after every visit: a visit can return a credit to a
    // higher-numbered leaf, which must still inject this cycle.
    bool visited = false;
    for (size_t w = 0; w < active.size(); ++w) {
        uint64_t done = 0; // bits at or below the last visited leaf
        for (uint64_t bits; (bits = active[w] & ~done) != 0;) {
            int b = std::countr_zero(bits);
            int li = static_cast<int>(w) * 64 + b;
            stepLeaf(li);
            visited = true;
            if (!leafCanAct(leaves[li]))
                active[w] &= ~(1ull << b);
            done = (2ull << b) - 1;
        }
    }
    return visited;
}

bool
BftNoc::leafCanAct(const Leaf &leaf) const
{
    if (leaf.reinsert.valid ||
        (!leaf.pendingConfig.empty() && leaf.configInflight == 0))
        return true;
    for (int p = 0; p < nPorts; ++p) {
        if (leaf.outFifos[p].canPop() && leaf.destReg[p].first >= 0 &&
            leaf.inflight[p] == 0)
            return true;
        if (leaf.skid[p].valid && leaf.inFifos[p].canPush())
            return true;
    }
    return false;
}

void
BftNoc::stepLeaf(int li)
{
    Leaf &leaf = leaves[li];

    // Drain skid buffers into input FIFOs, returning credits.
    for (int p = 0; p < nPorts; ++p) {
        Flit &held = leaf.skid[p];
        if (held.valid && leaf.inFifos[p].canPush()) {
            leaf.inFifos[p].push(held.data);
            touch(li);
            ++stats_.delivered;
            stats_.totalHops += held.age;
            leaves[held.srcLeaf].inflight[held.srcPort] = 0;
            wake(held.srcLeaf);
            held.valid = false;
        }
    }

    // Injection priority: deflected flit, config, then data
    // (round-robin over output ports).
    Flit &out = inject[li];
    if (leaf.reinsert.valid) {
        out = leaf.reinsert;
        leaf.reinsert.valid = false;
    } else if (!leaf.pendingConfig.empty() && leaf.configInflight == 0) {
        out = leaf.pendingConfig.front();
        out.srcLeaf = static_cast<uint16_t>(li);
        leaf.pendingConfig.erase(leaf.pendingConfig.begin());
        leaf.configInflight = 1;
        ++stats_.injected;
    } else {
        for (int k = 0; k < nPorts; ++k) {
            int p = (leaf.rrNext + k) % nPorts;
            if (leaf.outFifos[p].canPop() &&
                leaf.destReg[p].first >= 0 && leaf.inflight[p] == 0) {
                out = Flit{};
                out.valid = true;
                out.dstLeaf =
                    static_cast<uint16_t>(leaf.destReg[p].first);
                out.dstPort =
                    static_cast<uint8_t>(leaf.destReg[p].second);
                out.srcLeaf = static_cast<uint16_t>(li);
                out.srcPort = static_cast<uint8_t>(p);
                out.data = leaf.outFifos[p].pop();
                touch(li);
                leaf.inflight[p] = 1;
                leaf.rrNext = (p + 1) % nPorts;
                ++stats_.injected;
                break;
            }
        }
    }
    if (out.valid)
        injecting.push_back(li);

    // Ejection: flit arriving from the parent switch's down port.
    // Switch registers still hold this cycle's contents here.
    const Flit &arriving =
        switches[leafParent(li)].out.downOut[li % 2];
    if (!arriving.valid)
        return;
    if (arriving.dstLeaf != static_cast<uint16_t>(li)) {
        // Deflected into the wrong leaf: bounce it back.
        Flit f = arriving;
        ++f.age;
        leaf.reinsert = f;
        ++stats_.deflections;
    } else if (arriving.config) {
        leaf.destReg[arriving.dstPort] = {
            static_cast<int>(arriving.data >> 8),
            static_cast<int>(arriving.data & 0xFF)};
        ++stats_.configApplied;
        ++stats_.delivered;
        stats_.totalHops += arriving.age;
        leaves[arriving.srcLeaf].configInflight = 0;
        wake(arriving.srcLeaf);
    } else if (leaf.inFifos[arriving.dstPort].canPush()) {
        leaf.inFifos[arriving.dstPort].push(arriving.data);
        touch(li);
        ++stats_.delivered;
        stats_.totalHops += arriving.age;
        leaves[arriving.srcLeaf].inflight[arriving.srcPort] = 0;
        wake(arriving.srcLeaf);
    } else {
        // Destination FIFO full: park in the skid buffer
        // (streams are point-to-point, so the slot is free).
        pld_assert(!leaf.skid[arriving.dstPort].valid,
                   "two producers on one stream port");
        leaf.skid[arriving.dstPort] = arriving;
    }
}

BftNoc::Links
BftNoc::routeSwitch(int si)
{
    const Switch &s = switches[si];
    Links next;

    // Gather inputs: parent-down first (oldest traffic), then the
    // two child-up inputs.
    Flit inputs[3];
    int n = 0;
    if (s.parent >= 0) {
        const Switch &pp = switches[s.parent];
        const Flit &down = pp.out.downOut[si == pp.left ? 0 : 1];
        if (down.valid)
            inputs[n++] = down;
    }
    if (s.left >= 0) {
        if (switches[s.left].out.upOut.valid)
            inputs[n++] = switches[s.left].out.upOut;
        if (switches[s.right].out.upOut.valid)
            inputs[n++] = switches[s.right].out.upOut;
    } else {
        if (inject[s.lo].valid)
            inputs[n++] = inject[s.lo];
        if (inject[s.lo + 1].valid)
            inputs[n++] = inject[s.lo + 1];
    }

    int mid = (s.lo + s.hi) / 2;
    for (int i = 0; i < n; ++i) {
        Flit f = inputs[i];
        ++f.age;
        Flit *want;
        if (f.dstLeaf >= s.lo && f.dstLeaf < mid)
            want = &next.downOut[0];
        else if (f.dstLeaf >= mid && f.dstLeaf < s.hi)
            want = &next.downOut[1];
        else
            want = &next.upOut;
        if (!want->valid) {
            *want = f;
            continue;
        }
        // Deflect to any free output.
        ++stats_.deflections;
        if (s.parent >= 0 && !next.upOut.valid)
            next.upOut = f;
        else if (!next.downOut[0].valid)
            next.downOut[0] = f;
        else if (!next.downOut[1].valid)
            next.downOut[1] = f;
        else
            pld_panic("deflection invariant violated");
    }
    return next;
}

bool
BftNoc::stepSwitches()
{
    // Only a switch with a valid input can hold a flit next cycle: a
    // neighbour of a live switch whose register points at it, or the
    // parent of an injecting leaf.
    updates.clear();
    auto queue = [&](int si) {
        if (!switches[si].queued) {
            switches[si].queued = true;
            updates.push_back(si);
        }
    };
    for (int si : live) {
        const Switch &s = switches[si];
        if (s.out.upOut.valid && s.parent >= 0)
            queue(s.parent);
        if (s.left >= 0 && s.out.downOut[0].valid)
            queue(s.left);
        if (s.left >= 0 && s.out.downOut[1].valid)
            queue(s.right);
    }
    for (int li : injecting)
        queue(leafParent(li));
    if (updates.empty() && live.empty())
        return false;

    // Compute every next register from the current ones, then clear
    // the old flits and write the new registers.
    nextLinks.resize(updates.size());
    for (size_t k = 0; k < updates.size(); ++k) {
        switches[updates[k]].queued = false;
        nextLinks[k] = routeSwitch(updates[k]);
    }
    for (int si : live)
        switches[si].out = Links{};
    live.clear();
    for (size_t k = 0; k < updates.size(); ++k) {
        Switch &s = switches[updates[k]];
        const Links &l = nextLinks[k];
        s.out = l;
        if (!l.upOut.valid && !l.downOut[0].valid && !l.downOut[1].valid)
            continue;
        live.push_back(updates[k]);
        if (s.left < 0) {
            if (l.downOut[0].valid)
                wake(s.lo);
            if (l.downOut[1].valid)
                wake(s.lo + 1);
        }
    }
    for (int li : injecting)
        inject[li].valid = false;
    injecting.clear();
    return true;
}

bool
BftNoc::idle() const
{
    if (!live.empty())
        return false;
    for (const auto &leaf : leaves) {
        if (leaf.reinsert.valid || !leaf.pendingConfig.empty())
            return false;
        for (const auto &f : leaf.skid) {
            if (f.valid)
                return false;
        }
        for (const auto &f : leaf.outFifos) {
            if (f.canPop())
                return false;
        }
    }
    return true;
}

bool
BftNoc::transitIdle() const
{
    if (!live.empty())
        return false;
    for (const auto &leaf : leaves) {
        if (leaf.reinsert.valid || !leaf.pendingConfig.empty() ||
            leaf.configInflight != 0)
            return false;
    }
    return true;
}

bool
BftNoc::leafTransitQuiet(int leaf) const
{
    const Leaf &l = leaves[static_cast<size_t>(leaf)];
    return !l.reinsert.valid && l.pendingConfig.empty() &&
           l.configInflight == 0;
}

bool
BftNoc::leafQuiet(int leaf) const
{
    const Leaf &l = leaves[static_cast<size_t>(leaf)];
    if (l.reinsert.valid || !l.pendingConfig.empty() ||
        l.configInflight != 0)
        return false;
    for (uint8_t c : l.inflight) {
        if (c != 0)
            return false;
    }
    for (const auto &f : l.outFifos) {
        if (f.canPop())
            return false;
    }
    return true;
}

} // namespace noc
} // namespace pld
