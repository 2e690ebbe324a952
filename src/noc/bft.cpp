#include "noc/bft.h"

#include "common/logging.h"

namespace pld {
namespace noc {

using dataflow::FifoReadPort;
using dataflow::FifoWritePort;

namespace {

int
roundUpPow2(int v)
{
    int p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

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
}

dataflow::StreamPort *
BftNoc::inPort(int leaf, int port)
{
    portWrappers.push_back(
        std::make_unique<FifoReadPort>(leaves[leaf].inFifos[port]));
    return portWrappers.back().get();
}

dataflow::StreamPort *
BftNoc::outPort(int leaf, int port)
{
    portWrappers.push_back(
        std::make_unique<FifoWritePort>(leaves[leaf].outFifos[port]));
    return portWrappers.back().get();
}

void
BftNoc::stepCycle()
{
    // Snapshot last cycle's link registers without reallocating:
    // static topology fields are identical in both buffers, so a
    // swap is a valid snapshot.
    scratch.swap(switches);
    if (switches.size() != scratch.size())
        switches = scratch; // first cycle: clone topology
    const std::vector<Switch> &old = scratch;

    // Leaf injection slots for this cycle.
    if (injectScratch.size() != static_cast<size_t>(nLeaves))
        injectScratch.assign(nLeaves, Flit{});
    std::vector<Flit> &inject = injectScratch;
    for (auto &f : inject)
        f.valid = false;

    for (int li = 0; li < nLeaves; ++li) {
        Leaf &leaf = leaves[li];

        // Drain skid buffers into input FIFOs, returning credits.
        for (int p = 0; p < nPorts; ++p) {
            Flit &held = leaf.skid[p];
            if (held.valid && leaf.inFifos[p].canPush()) {
                leaf.inFifos[p].push(held.data);
                ++stats_.delivered;
                stats_.totalHops += held.age;
                leaves[held.srcLeaf].inflight[held.srcPort] = 0;
                held.valid = false;
            }
        }

        // Injection priority: deflected flit, config, then data
        // (round-robin over output ports).
        if (leaf.reinsert.valid) {
            inject[li] = leaf.reinsert;
            leaf.reinsert.valid = false;
        } else if (!leaf.pendingConfig.empty() &&
                   leaf.configInflight == 0) {
            inject[li] = leaf.pendingConfig.front();
            inject[li].srcLeaf = static_cast<uint16_t>(li);
            leaf.pendingConfig.erase(leaf.pendingConfig.begin());
            leaf.configInflight = 1;
            ++stats_.injected;
        } else {
            for (int k = 0; k < nPorts; ++k) {
                int p = (leaf.rrNext + k) % nPorts;
                if (leaf.outFifos[p].canPop() &&
                    leaf.destReg[p].first >= 0 &&
                    leaf.inflight[p] == 0) {
                    Flit f;
                    f.valid = true;
                    f.dstLeaf = static_cast<uint16_t>(
                        leaf.destReg[p].first);
                    f.dstPort = static_cast<uint8_t>(
                        leaf.destReg[p].second);
                    f.srcLeaf = static_cast<uint16_t>(li);
                    f.srcPort = static_cast<uint8_t>(p);
                    f.data = leaf.outFifos[p].pop();
                    leaf.inflight[p] = 1;
                    inject[li] = f;
                    leaf.rrNext = (p + 1) % nPorts;
                    ++stats_.injected;
                    break;
                }
            }
        }

        // Ejection: flit arriving from the parent switch's down port.
        const Switch &ps = old[leafParent(li)];
        const Flit &arriving = ps.downOut[li % 2];
        if (arriving.valid) {
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
            } else if (leaf.inFifos[arriving.dstPort].canPush()) {
                leaf.inFifos[arriving.dstPort].push(arriving.data);
                ++stats_.delivered;
                stats_.totalHops += arriving.age;
                leaves[arriving.srcLeaf]
                    .inflight[arriving.srcPort] = 0;
            } else {
                // Destination FIFO full: park in the skid buffer
                // (streams are point-to-point, so the slot is free).
                pld_assert(!leaf.skid[arriving.dstPort].valid,
                           "two producers on one stream port");
                leaf.skid[arriving.dstPort] = arriving;
            }
        }
    }

    // Switch update: compute new link registers from old ones.
    for (size_t si = 0; si < switches.size(); ++si) {
        Switch &s = switches[si];
        const Switch &os = old[si];
        s.upOut = Flit{};
        s.downOut[0] = Flit{};
        s.downOut[1] = Flit{};

        // Gather inputs: parent-down first (oldest traffic), then the
        // two child-up inputs.
        Flit inputs[3];
        int n = 0;
        if (s.parent >= 0) {
            const Switch &pp = old[s.parent];
            int side = (si == static_cast<size_t>(
                                  switches[s.parent].left))
                           ? 0
                           : 1;
            if (pp.downOut[side].valid)
                inputs[n++] = pp.downOut[side];
        }
        if (os.left >= 0) {
            if (old[os.left].upOut.valid)
                inputs[n++] = old[os.left].upOut;
            if (old[os.right].upOut.valid)
                inputs[n++] = old[os.right].upOut;
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
                want = &s.downOut[0];
            else if (f.dstLeaf >= mid && f.dstLeaf < s.hi)
                want = &s.downOut[1];
            else
                want = &s.upOut;
            if (!want->valid) {
                *want = f;
                continue;
            }
            // Deflect to any free output.
            ++stats_.deflections;
            if (s.parent >= 0 && !s.upOut.valid)
                s.upOut = f;
            else if (!s.downOut[0].valid)
                s.downOut[0] = f;
            else if (!s.downOut[1].valid)
                s.downOut[1] = f;
            else
                pld_panic("deflection invariant violated");
        }
    }
}

bool
BftNoc::idle() const
{
    for (const auto &s : switches) {
        if (s.upOut.valid || s.downOut[0].valid || s.downOut[1].valid)
            return false;
    }
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
    for (const auto &s : switches) {
        if (s.upOut.valid || s.downOut[0].valid || s.downOut[1].valid)
            return false;
    }
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
