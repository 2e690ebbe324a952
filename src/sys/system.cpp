#include "sys/system.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace pld {
namespace sys {

using dataflow::FifoReadPort;
using dataflow::FifoWritePort;
using dataflow::WordFifo;
using interp::RunStatus;

namespace {

/** Stream ports of each NoC leaf interface, and their FIFO depth. */
constexpr int kNocPortsPerLeaf = 6;
constexpr size_t kNocFifoDepth = 16;
/** Direct-link FIFO depth for monolithic designs. */
constexpr size_t kDirectFifoDepth = 64;
/** First NoC leaf used for DMA endpoints. */
constexpr int kDmaLeafBase = 24;

// Hot-swap engine (DESIGN.md §11).
/** Payload bytes per CRC-framed config packet. */
constexpr size_t kSwapPacketBytes = 128;
/** Cycles per packet: one 32-bit config word per cycle over the
 * ICAP-style channel. */
constexpr uint64_t kSwapPacketCycles = kSwapPacketBytes / 4;
/** Retransmissions allowed per packet before the attempt aborts. */
constexpr int kSwapMaxRetransmits = 4;
/** Swap attempts (stream + activate) before quarantine. */
constexpr int kSwapMaxAttempts = 2;
/** Cycles the sender waits for an ack before declaring a drop. */
constexpr uint64_t kSwapAckTimeoutCycles = 16;
/** Base retransmit backoff in cycles (doubles per retry). */
constexpr uint64_t kSwapBackoffBase = 2;
/** Cycles to wait for the target leaf to quiesce before abort. */
constexpr uint64_t kSwapDrainTimeoutCycles = 100000;
/** Cycles from last packet accepted to the page reporting up. */
constexpr uint64_t kSwapActivationCycles = 8;

/** Config packets streamed for an image of @p bytes (0 = unknown
 * size, streamed as one packet). */
uint64_t
imagePackets(uint64_t bytes)
{
    return std::max<uint64_t>(
        1, (bytes + kSwapPacketBytes - 1) / kSwapPacketBytes);
}

/** Budget a HW page gains per cycle, and its cap. */
constexpr double kBudgetPerCycle = 1.0;
constexpr double kBudgetCap = 8.0;
/** Operations a HW page is charged for a poll that moves nothing. */
constexpr double kBlockedPollOps = 0.25;

/** A HW page's budget after its per-cycle increment. The run loop,
 * the timer computation and replay() all step the budget through
 * these two helpers, so skipped cycles replay bit for bit. */
double
budgetTick(double budget)
{
    return std::min(budget + kBudgetPerCycle, kBudgetCap);
}

/** Budget a HW page spends on a poll that did @p ops operations. */
double
pollCharge(uint64_t ops, double cycles_per_op)
{
    return std::max<double>(double(ops), kBlockedPollOps) *
           cycles_per_op;
}

} // namespace

const char *
swapOutcomeName(SwapOutcome o)
{
    switch (o) {
      case SwapOutcome::Swapped: return "swapped";
      case SwapOutcome::RolledBack: return "rolled_back";
      case SwapOutcome::Quarantined: return "quarantined";
      case SwapOutcome::Rejected: return "rejected";
    }
    return "?";
}

SystemSim::SystemSim(const ir::Graph &g,
                     const std::vector<PageBinding> &bindings,
                     const SystemConfig &cfg)
    : g(g), cfg(cfg),
      injector(cfg.faults.empty() ? FaultPlan::fromEnv() : cfg.faults)
{
    pld_assert(bindings.size() == g.ops.size(),
               "need one page binding per operator");
    pages.resize(bindings.size());
    for (size_t i = 0; i < bindings.size(); ++i)
        pages[bindings[i].opIdx].binding = bindings[i];
    for (size_t oi = 0; oi < g.ops.size(); ++oi)
        pages[oi].fn = &g.ops[oi].fn;

    hostIn.resize(g.extInputs.size());
    hostInPos.assign(g.extInputs.size(), 0);
    hostOut.resize(g.extOutputs.size());

    if (cfg.useNoc)
        buildNocSystem();
    else
        buildDirectSystem();
    for (auto &page : pages)
        restartPage(page, 0);
    awake.assign((pages.size() + 63) / 64, 0);
}

void
SystemSim::buildNocSystem()
{
    int needed = kDmaLeafBase +
                 static_cast<int>(g.extInputs.size() +
                                  g.extOutputs.size());
    net = std::make_unique<noc::BftNoc>(std::max(32, needed),
                                        kNocPortsPerLeaf, kNocFifoDepth);

    // Operator ports hang off their page's leaf interface.
    leafPage.assign(static_cast<size_t>(net->numLeaves()), -1);
    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        int leaf = pages[oi].binding.pageId;
        pld_assert(leaf >= 0 && leaf < kDmaLeafBase &&
                       leafPage[static_cast<size_t>(leaf)] < 0,
                   "%s: page %d is not a free page leaf",
                   fn.name.c_str(), leaf);
        leafPage[static_cast<size_t>(leaf)] = static_cast<int>(oi);
        pld_assert(static_cast<int>(fn.ports.size()) <=
                       kNocPortsPerLeaf,
                   "%s has more ports than the leaf interface",
                   fn.name.c_str());
        for (size_t pi = 0; pi < fn.ports.size(); ++pi) {
            pages[oi].ports.push_back(
                fn.ports[pi].dir == ir::PortDir::In
                    ? net->inPort(leaf, int(pi))
                    : net->outPort(leaf, int(pi)));
        }
    }

    // DMA endpoints.
    for (size_t i = 0; i < g.extInputs.size(); ++i) {
        int leaf = kDmaLeafBase + static_cast<int>(i);
        extInPorts.push_back(net->outPort(leaf, 0));
    }
    for (size_t j = 0; j < g.extOutputs.size(); ++j) {
        int leaf = kDmaLeafBase +
                   static_cast<int>(g.extInputs.size() + j);
        extOutPorts.push_back(net->inPort(leaf, 0));
    }
    // DMA words reach pages through the network, which wakes them.
    extInPage.assign(g.extInputs.size(), -1);
    extOutPage.assign(g.extOutputs.size(), -1);

    // Linking: the loader sends config packets from the DMA leaf
    // programming every producer's destination register (Sec 4.3).
    int linker_leaf = kDmaLeafBase;
    int link_idx = 0;
    for (const auto &l : g.links) {
        int src_leaf, src_port;
        if (l.src.isExternal()) {
            src_leaf = kDmaLeafBase + l.src.port;
            src_port = 0;
        } else {
            src_leaf = pages[l.src.op].binding.pageId;
            src_port = l.src.port;
        }
        int dst_leaf, dst_port;
        if (l.dst.isExternal()) {
            dst_leaf = kDmaLeafBase +
                       static_cast<int>(g.extInputs.size()) +
                       l.dst.port;
            dst_port = 0;
        } else {
            dst_leaf = pages[l.dst.op].binding.pageId;
            dst_port = l.dst.port;
        }
        net->sendConfig(linker_leaf, src_leaf, src_port, dst_leaf,
                        dst_port);
        // Each config packet is one reconfiguration event (Sec 4.3).
        obs::instant("sys", "sys.link.cfg")
            .arg("link", static_cast<int64_t>(link_idx++))
            .arg("dst_leaf", static_cast<int64_t>(dst_leaf));
        obs::count("sys.config_packets");
    }
}

void
SystemSim::buildDirectSystem()
{
    // Monolithic designs: dedicated FIFO per link (Sec 6.3 kernel
    // generator), no network.
    directFifos.reserve(g.links.size());
    for (const auto &l : g.links) {
        bool external = l.src.isExternal() || l.dst.isExternal();
        directFifos.push_back(std::make_unique<WordFifo>(
            external ? 0 : kDirectFifoDepth));
        if (external)
            continue;
        // A page's progress may let the page at the far end of any of
        // its links read or write.
        for (auto [a, b] : {std::pair{l.src.op, l.dst.op},
                            std::pair{l.dst.op, l.src.op}}) {
            auto &peers = pages[static_cast<size_t>(a)].peers;
            if (std::find(peers.begin(), peers.end(), size_t(b)) ==
                peers.end())
                peers.push_back(static_cast<size_t>(b));
        }
    }

    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        const auto &fn = g.ops[oi].fn;
        for (size_t pi = 0; pi < fn.ports.size(); ++pi) {
            ir::Endpoint ep{static_cast<int>(oi),
                            static_cast<int>(pi)};
            if (fn.ports[pi].dir == ir::PortDir::In) {
                int li = g.linkInto(ep);
                portStorage.push_back(std::make_unique<FifoReadPort>(
                    *directFifos[li]));
            } else {
                int li = g.linkFrom(ep);
                portStorage.push_back(std::make_unique<FifoWritePort>(
                    *directFifos[li]));
            }
            pages[oi].ports.push_back(portStorage.back().get());
        }
    }

    for (size_t i = 0; i < g.extInputs.size(); ++i) {
        int li = g.linkFrom({ir::Endpoint::kExternal,
                             static_cast<int>(i)});
        portStorage.push_back(
            std::make_unique<FifoWritePort>(*directFifos[li]));
        extInPorts.push_back(portStorage.back().get());
        const ir::Endpoint &dst = g.links[li].dst;
        extInPage.push_back(dst.isExternal() ? -1 : dst.op);
    }
    for (size_t j = 0; j < g.extOutputs.size(); ++j) {
        int li = g.linkInto({ir::Endpoint::kExternal,
                             static_cast<int>(j)});
        portStorage.push_back(
            std::make_unique<FifoReadPort>(*directFifos[li]));
        extOutPorts.push_back(portStorage.back().get());
        const ir::Endpoint &src = g.links[li].src;
        extOutPage.push_back(src.isExternal() ? -1 : src.op);
    }
}

void
SystemSim::loadInput(int ext_idx, const std::vector<uint32_t> &words)
{
    auto &buf = hostIn[static_cast<size_t>(ext_idx)];
    auto &pos = hostInPos[static_cast<size_t>(ext_idx)];
    // Drop the words the DMA engine already sent, so a long-lived
    // system rerunning batches does not keep every batch's input.
    buf.erase(buf.begin(), buf.begin() + static_cast<ptrdiff_t>(pos));
    pos = 0;
    buf.insert(buf.end(), words.begin(), words.end());
}

bool
SystemSim::anyInputReadable(const Page &page) const
{
    for (size_t pi = 0; pi < page.fn->ports.size(); ++pi) {
        if (page.fn->ports[pi].dir == ir::PortDir::In &&
            page.ports[pi]->canRead())
            return true;
    }
    return false;
}

void
SystemSim::rearmPages()
{
    bool new_input = false;
    for (size_t i = 0; i < hostIn.size(); ++i)
        new_input |= hostInPos[i] < hostIn[i].size();
    if (!new_input)
        return;
    // A completed page is reset to its entry state so the next batch
    // re-runs it; pages that never finished keep their progress.
    // A restartable page that starved out (a function-changing swap
    // or a quarantine landed mid-stream) counted as quiescent for
    // run() completion and must equally restart from entry: without
    // this, a quarantined page carries a half-executed fallback core
    // into the next batch and consumes the wrong number of words.
    // Re-arming from page.binding keeps a quarantined page pinned to
    // its softcore image — the binding was rewritten at quarantine.
    for (auto &page : pages) {
        if (page.done || (page.restartable && page.starved))
            restartPage(page, 0);
    }
}

void
SystemSim::setFn(Page &page, std::unique_ptr<ir::OperatorFn> fn)
{
    page.ownedFn = std::move(fn);
    page.fn = page.ownedFn.get();
    page.exec.reset();
}

void
SystemSim::restartPage(Page &page, uint64_t run_cycle)
{
    if (page.binding.impl == PageImpl::Hw) {
        page.core.reset();
        // The executor keeps the page function's Program across
        // restarts; a function change drops it (setFn).
        if (page.exec)
            page.exec->reset();
        else
            page.exec = std::make_unique<interp::OperatorExec>(
                *page.fn, page.ports);
    } else {
        page.exec.reset();
        page.core = std::make_unique<rv32::Core>(page.binding.elf,
                                                 page.ports);
    }
    page.budget = 0;
    page.done = false;
    page.starved = false;
    page.doneMarked = false;
    page.coreSyncRun = run_cycle;
    page.coreSyncCycles = 0;
}

bool
SystemSim::isBusy(const Page &page)
{
    return !page.done &&
           (page.paused || !(page.restartable && page.starved));
}

void
SystemSim::recountBusy()
{
    busyPages = 0;
    for (const Page &page : pages)
        busyPages += isBusy(page) ? 1 : 0;
}

bool
SystemSim::stepPages(uint64_t cycle)
{
    // Visit the awake pages in increasing index, re-reading each
    // bitset word after every visit: with direct links a visit can
    // wake a higher-indexed peer, which still runs this cycle, as in
    // an index-order loop over every page; a lower-indexed one runs
    // next cycle.
    for (size_t w = 0; w < awake.size(); ++w) {
        uint64_t visited = 0; // bits at or below the last visit
        for (uint64_t bits; (bits = awake[w] & ~visited) != 0;) {
            int b = std::countr_zero(bits);
            awake[w] &= ~(1ull << b);
            visitPage(w * 64 + static_cast<size_t>(b), cycle);
            visited = (2ull << b) - 1;
        }
    }
    return busyPages == 0;
}

void
SystemSim::visitPage(size_t page_idx, uint64_t cycle)
{
    Page &page = pages[page_idx];
    if (cycle > page.syncedTo)
        replay(page, cycle);
    page.syncedTo = cycle + 1;
    page.sleep = Sleep::Awake;
    if (page.done || page.paused) {
        page.sleep = Sleep::Idle;
        return;
    }
    // busyPages follows the page's done and starved flags below.
    if (page.restartable && page.starved) {
        if (!anyInputReadable(page)) {
            // Quiescent: a restarted page with no work.
            page.sleep = Sleep::Starved;
            return;
        }
        page.starved = false;
        ++busyPages;
    }
    // Whether the page may have moved a word through one of its FIFOs
    // (direct links wake the peers at their other ends).
    bool streamed = false;
    const auto block = [&](bool on_read, int port) {
        ++statStalls;
        if (page.restartable && on_read && !anyInputReadable(page)) {
            page.starved = true;
            --busyPages;
        }
        page.sleep = page.starved ? Sleep::Starved : Sleep::Blocked;
        page.waitPort = port;
        page.waitWrite = !on_read;
    };
    if (page.binding.impl == PageImpl::Hw) {
        const auto &st = page.exec->stats();
        const uint64_t words = st.streamReads + st.streamWrites;
        page.budget = budgetTick(page.budget);
        while (page.budget > 0 && !page.done) {
            uint64_t before = st.computeOps + st.memOps;
            RunStatus rs = page.exec->run(1);
            uint64_t delta =
                (st.computeOps + st.memOps) - before;
            page.budget -= pollCharge(delta, page.binding.cyclesPerOp);
            if (rs == RunStatus::BlockedOnRead ||
                rs == RunStatus::BlockedOnWrite) {
                block(rs == RunStatus::BlockedOnRead,
                      page.exec->blockedStream());
                break;
            }
            if (page.exec->done()) {
                page.done = true;
            }
        }
        streamed = st.streamReads + st.streamWrites != words;
        if (!page.done && page.sleep == Sleep::Awake) {
            // Computing: the next poll is at the first cycle whose
            // incremented budget is positive.
            uint64_t wait = 1;
            double before = page.budget;
            for (double b = budgetTick(before); b <= 0;
                 b = budgetTick(b)) {
                before = b;
                ++wait;
            }
            // A page due within two cycles stays awake (as does a
            // softcore below): polling it once in between costs no
            // more than a timer.
            if (wait > 2) {
                page.sleep = Sleep::Timer;
                page.wakeAt = cycle + wait;
                page.wakeBudget = before;
            }
        }
    } else {
        while (!page.done &&
               page.core->cycles() - page.coreSyncCycles <
                   cycle - page.coreSyncRun) {
            uint64_t before = page.core->instret();
            rv32::CoreStatus st = page.core->step(16);
            streamed |= page.core->instret() != before;
            if (st == rv32::CoreStatus::Halted) {
                page.done = true;
            } else if (st == rv32::CoreStatus::Trapped) {
                pld_fatal("softcore trapped: %s (pc=0x%x)",
                          page.core->trapReason().c_str(),
                          page.core->pc());
            } else if (st != rv32::CoreStatus::Running) {
                // Blocked on a stream.
                block(st == rv32::CoreStatus::BlockedOnRead,
                      page.core->blockedStream());
                break;
            }
        }
        if (!page.done && page.sleep == Sleep::Awake) {
            // Not due: the core ran ahead of the clock.
            uint64_t due = page.coreSyncRun +
                           (page.core->cycles() - page.coreSyncCycles) +
                           1;
            if (due > cycle + 2) {
                page.sleep = Sleep::Timer;
                page.wakeAt = due;
            }
        }
    }
    if (page.done) {
        page.sleep = Sleep::Idle;
        --busyPages;
        if (!page.doneMarked) {
            page.doneMarked = true;
            obs::instant("sys", "sys.page.done")
                .arg("op", static_cast<int64_t>(page_idx))
                .arg("cycle", static_cast<int64_t>(cycle));
        }
    }
    if (page.sleep == Sleep::Awake)
        wake(page_idx);
    else if (page.sleep == Sleep::Timer)
        timers.emplace(page.wakeAt, page_idx);
    if (streamed) {
        for (size_t peer : page.peers)
            streamEvent(peer);
    }
}

void
SystemSim::replay(Page &page, uint64_t cycle)
{
    if (cycle <= page.syncedTo)
        return;
    pld_assert(page.sleep != Sleep::Awake,
               "an awake page missed a stepped cycle");
    const uint64_t from = page.syncedTo;
    const uint64_t n = cycle - from;
    page.syncedTo = cycle;
    if (page.sleep != Sleep::Blocked && page.sleep != Sleep::Timer)
        return; // starved, done or paused: polls that do nothing
    if (page.binding.impl == PageImpl::Softcore) {
        // A core is stepped only when due. A blocked core retires
        // nothing, so once due it stays due and stalls every cycle.
        if (page.sleep == Sleep::Blocked) {
            uint64_t due =
                page.coreSyncRun +
                (page.core->cycles() - page.coreSyncCycles) + 1;
            statStalls += cycle - std::min(cycle, std::max(from, due));
        }
        return;
    }
    // The polls' own double operations, cycle by cycle. A computing
    // page's incremented budget stays <= 0 until its timer, where its
    // budget was found when the timer was set; a blocked page's
    // budget settles where a cycle leaves it unchanged, after which
    // every remaining cycle repeats the same poll.
    if (page.sleep == Sleep::Timer && cycle == page.wakeAt) {
        page.budget = page.wakeBudget;
        return;
    }
    const double charge = pollCharge(0, page.binding.cyclesPerOp);
    double b = page.budget;
    for (uint64_t i = 0; i < n; ++i) {
        double prev = b;
        b = budgetTick(b);
        bool polled = b > 0;
        if (polled) {
            b -= charge;
            ++statStalls;
        }
        if (b == prev) {
            if (polled)
                statStalls += n - i - 1;
            break;
        }
    }
    page.budget = b;
}

void
SystemSim::wakeIfReady(size_t idx)
{
    const Page &page = pages[idx];
    bool can_act;
    if (page.sleep == Sleep::Blocked) {
        const dataflow::StreamPort *port =
            page.ports[static_cast<size_t>(page.waitPort)];
        can_act = page.waitWrite ? port->canWrite() : port->canRead();
    } else {
        can_act = anyInputReadable(page); // starved
    }
    if (can_act)
        wake(idx);
}

bool
SystemSim::quietCycle() const
{
    for (uint64_t w : awake) {
        if (w != 0)
            return false;
    }
    if (swapActive() || !swapQueue.empty())
        return false;
    if (net && net->canAct())
        return false;
    for (size_t i = 0; i < extInPorts.size(); ++i) {
        if (hostInPos[i] < hostIn[i].size() && extInPorts[i]->canWrite())
            return false;
    }
    for (const dataflow::StreamPort *port : extOutPorts) {
        if (port->canRead())
            return false;
    }
    return true;
}

std::string
SystemSim::faultSite(const Page &page) const
{
    if (cfg.faultScope.empty())
        return page.fn->name;
    return cfg.faultScope + "/" + page.fn->name;
}

RunStats
SystemSim::run(uint64_t max_cycles)
{
    return runInternal(max_cycles, /*slice=*/false);
}

RunStats
SystemSim::runSlice(uint64_t cycles)
{
    return runInternal(cycles, /*slice=*/true);
}

RunStats
SystemSim::runInternal(uint64_t max_cycles, bool slice)
{
    RunStats rs;
    obs::Span run_span("sys", slice ? "sys.slice" : "sys.run");
    ThreadCpuStopwatch host;
    statStalls = 0;

    rearmPages();
    // Re-base every softcore's clock sync so carried-over cores
    // (batch 2+, quarantine fallbacks) track this run's cycle 0.
    for (auto &page : pages) {
        if (page.core) {
            page.coreSyncRun = 0;
            page.coreSyncCycles = page.core->cycles();
        }
    }

    // Linking phase: drain config packets (counts separately; this is
    // the seconds-scale "linking" cost the paper contrasts with
    // recompilation).
    if (net) {
        obs::Span link_span("sys", "sys.link");
        // Transit-idle, not full idle: a checkpointed tenant resumes
        // with words parked in leaf FIFOs, which only drain once the
        // pages below start executing.
        while (!net->transitIdle()) {
            net->stepCycle();
            ++rs.configCycles;
            pld_assert(rs.configCycles < 1000000,
                       "linking never converged");
        }
        link_span.arg("config_cycles",
                      static_cast<int64_t>(rs.configCycles));
    }

    // One flow arrow per external stream: DMA start at cycle 0,
    // finish when the stream's last word moves. The sim is
    // single-threaded and cycle-deterministic, so cycle args are
    // structural.
    uint64_t words_in = 0, words_out = 0;
    std::vector<bool> in_flow_open(extInPorts.size(), false);
    for (size_t i = 0; i < extInPorts.size(); ++i) {
        if (hostInPos[i] < hostIn[i].size()) {
            obs::flowStart("sys", "sys.dma.in", i + 1)
                .arg("stream", static_cast<int64_t>(i))
                .arg("words",
                     static_cast<int64_t>(hostIn[i].size() -
                                          hostInPos[i]));
            in_flow_open[i] = true;
        }
    }

    // Every page is polled on the run's first cycle; after that only
    // the awake ones, the rest replaying their skipped cycles.
    std::fill(awake.begin(), awake.end(), 0);
    timers = {};
    for (size_t i = 0; i < pages.size(); ++i) {
        Page &page = pages[i];
        page.syncedTo = 0;
        page.sleep =
            page.done || page.paused ? Sleep::Idle : Sleep::Awake;
        if (page.sleep == Sleep::Awake)
            wake(i);
    }
    recountBusy();
    // A queued swap pauses its page: apply the page's skipped cycles
    // before @p synced first.
    const auto begin_queued_swap = [&](uint64_t synced) {
        SwapRequest req = std::move(swapQueue.front());
        swapQueue.erase(swapQueue.begin());
        int idx = findPage(req.pageId);
        if (idx >= 0)
            replay(pages[static_cast<size_t>(idx)], synced);
        beginSwap(req.pageId, req.nb, std::move(req.newFn), true);
    };

    uint64_t cycle = 0;
    for (; cycle < max_cycles; ++cycle) {
        fireTimers(cycle);
        // Fast-forward over cycles in which nothing can act to the
        // next timer, or to the end of the run. Never on the first
        // cycle: completion is checked only at the end of a stepped
        // cycle, and a quiet cycle repeats the previous one's check.
        if (cycle > 0 && quietCycle()) {
            cycle = timers.empty()
                        ? max_cycles
                        : std::min(timers.top().first, max_cycles);
            if (cycle == max_cycles)
                break;
            fireTimers(cycle);
        }
        ++rs.steppedCycles;

        // Swap engine: start any due queued swap, then advance it.
        if (!swapActive() && !swapQueue.empty() &&
            swapQueue.front().atCycle <= cycle)
            begin_queued_swap(cycle);
        if (swapActive())
            stepSwap(cycle);

        // DMA: move host words.
        for (size_t i = 0; i < extInPorts.size(); ++i) {
            if (hostInPos[i] < hostIn[i].size() &&
                extInPorts[i]->canWrite()) {
                extInPorts[i]->write(hostIn[i][hostInPos[i]++]);
                ++words_in;
                if (extInPage[i] >= 0)
                    streamEvent(static_cast<size_t>(extInPage[i]));
            }
            if (in_flow_open[i] &&
                hostInPos[i] == hostIn[i].size()) {
                in_flow_open[i] = false;
                obs::flowFinish("sys", "sys.dma.in", i + 1)
                    .arg("stream", static_cast<int64_t>(i))
                    .arg("cycle", static_cast<int64_t>(cycle));
            }
        }
        for (size_t j = 0; j < extOutPorts.size(); ++j) {
            bool drained = false;
            while (extOutPorts[j]->canRead()) {
                hostOut[j].push_back(extOutPorts[j]->read());
                ++words_out;
                drained = true;
            }
            if (drained && extOutPage[j] >= 0)
                streamEvent(static_cast<size_t>(extOutPage[j]));
        }

        bool pages_done = stepPages(cycle);
        if (net) {
            net->stepCycle();
            // Pages behind the leaves whose FIFOs changed poll next
            // cycle, when they would first have seen the change.
            for (int leaf : net->touchedLeaves()) {
                int idx = leafPage[static_cast<size_t>(leaf)];
                if (idx >= 0)
                    streamEvent(static_cast<size_t>(idx));
            }
        }
        // A starved restartable page was quiescent only on the inputs
        // it saw before this cycle's NoC step, which may have just
        // delivered its next word.
        if (pages_done) {
            for (const Page &page : pages)
                pages_done &= page.done || !anyInputReadable(page);
        }

        if (pages_done && !swapActive()) {
            if (!swapQueue.empty()) {
                // Work ran out before the requested start cycle:
                // start the swap now rather than stranding it.
                begin_queued_swap(cycle + 1);
                continue;
            }
            bool inputs_done = true;
            for (size_t i = 0; i < hostIn.size(); ++i)
                inputs_done &= (hostInPos[i] == hostIn[i].size());
            bool drained = !net || net->idle();
            for (size_t j = 0; j < extOutPorts.size() && drained;
                 ++j) {
                drained &= !extOutPorts[j]->canRead();
            }
            if (inputs_done && drained) {
                ++cycle;
                rs.completed = true;
                break;
            }
        }
    }

    // Budgets and stalls of the cycles every sleeping page skipped.
    for (Page &page : pages)
        replay(page, cycle);
    rs.cycles = cycle;
    if (net)
        rs.noc = net->stats();
    run_span.arg("cycles", static_cast<int64_t>(rs.cycles));
    run_span.arg("completed",
                 static_cast<int64_t>(rs.completed ? 1 : 0));
    if (!rs.completed && !slice) {
        // A run that hit max_cycles stalled; make that loud in the
        // trace instead of a silent completed=false. A slice that
        // hit its budget merely yielded back to the scheduler.
        obs::instant("sys", "sys.run.timeout")
            .arg("cycles", static_cast<int64_t>(rs.cycles))
            .arg("max_cycles", static_cast<int64_t>(max_cycles));
        obs::count("sys.run.timeouts");
    }
    obs::count(slice ? "sys.slices" : "sys.runs");
    obs::count("sys.cycles", static_cast<int64_t>(rs.cycles));
    obs::count("sys.config_cycles",
               static_cast<int64_t>(rs.configCycles));
    obs::count("sys.dma.words.in", static_cast<int64_t>(words_in));
    obs::count("sys.dma.words.out", static_cast<int64_t>(words_out));
    obs::count("sys.page.stalls",
               static_cast<int64_t>(statStalls));
    // Simulator speed (linking plus run cycles per CPU second of the
    // simulating thread): a sample, not a counter, because it is host
    // time.
    double host_s = host.seconds();
    if (host_s > 0)
        obs::record("sys.sim.cycles_per_host_second",
                    double(rs.cycles + rs.configCycles) / host_s);
    return rs;
}

std::vector<uint32_t>
SystemSim::takeOutput(int ext_idx)
{
    return std::move(hostOut[static_cast<size_t>(ext_idx)]);
}

// ---------------------------------------------------------------------
// Hot-swap engine
// ---------------------------------------------------------------------

int
SystemSim::findPage(int page_id) const
{
    for (size_t i = 0; i < pages.size(); ++i) {
        if (pages[i].binding.pageId == page_id)
            return static_cast<int>(i);
    }
    return -1;
}

bool
SystemSim::pageQuarantined(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].quarantined;
}

PageImpl
SystemSim::pageImpl(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].binding.impl;
}

const PageBinding &
SystemSim::pageBinding(int page_id) const
{
    int idx = findPage(page_id);
    pld_assert(idx >= 0, "no page at leaf %d", page_id);
    return pages[static_cast<size_t>(idx)].binding;
}

uint64_t
SystemSim::watchdogBudget() const
{
    // Generous enough that a fault-free stream — even one that
    // retransmits every packet to the limit — never trips it, so the
    // watchdog only ever reports genuine hangs.
    uint64_t max_backoff = kSwapBackoffBase << kSwapMaxRetransmits;
    uint64_t per_tx =
        1 + kSwapPacketCycles + kSwapAckTimeoutCycles + max_backoff;
    uint64_t per_packet = per_tx * (kSwapMaxRetransmits + 1);
    return swap.packetsTotal * per_packet + kSwapDmaStallCycles +
           kSwapActivationCycles + 256;
}

SwapResult
SystemSim::swapPage(int page_id, const PageBinding &nb,
                    const ir::OperatorFn *new_fn)
{
    std::unique_ptr<ir::OperatorFn> fn_copy;
    if (new_fn)
        fn_copy = std::make_unique<ir::OperatorFn>(*new_fn);
    beginSwap(page_id, nb, std::move(fn_copy), false);
    driveSwap();
    return swapLog.back();
}

uint64_t
SystemSim::driveSwap()
{
    uint64_t cycles = 0;
    while (swapActive()) {
        stepSwap(0);
        net->stepCycle();
        pld_assert(++cycles < 100000000ull, "swap never terminated");
    }
    return cycles;
}

SwapRequestResult
SystemSim::requestSwap(int page_id, const PageBinding &nb,
                       uint64_t at_cycle, const ir::OperatorFn *new_fn)
{
    // Validate at queueing time: a conflicting or doomed request is
    // rejected with a structured diagnostic instead of being queued
    // and failing long after the caller stopped looking.
    const auto reject = [&](CompileCode code, bool retriable,
                            std::string why) {
        SwapRequestResult rr;
        rr.diag.code = code;
        rr.diag.stage = CompileStage::Swap;
        rr.diag.severity = DiagSeverity::Error;
        rr.diag.page = page_id;
        rr.diag.retriable = retriable;
        rr.diag.detail = std::move(why);
        obs::count("sys.swap.request_rejected");
        obs::instant("sys", "sys.swap.request_rejected")
            .arg("page", static_cast<int64_t>(page_id))
            .arg("why", rr.diag.detail);
        return rr;
    };

    if (swapQueue.size() >= kSwapQueueDepth)
        return reject(CompileCode::SwapRejected, /*retriable=*/true,
                      "pending-swap queue full (" +
                          std::to_string(kSwapQueueDepth) +
                          " entries); retry after a queued swap "
                          "completes");
    int idx = findPage(page_id);
    if (idx < 0)
        return reject(CompileCode::SwapRejected, /*retriable=*/false,
                      "no page at leaf " + std::to_string(page_id));
    if (pages[static_cast<size_t>(idx)].quarantined)
        return reject(CompileCode::SwapRejected, /*retriable=*/false,
                      "page is quarantined (pinned to its softcore "
                      "fallback); swaps are rejected");
    for (const auto &q : swapQueue) {
        if (q.pageId == page_id)
            return reject(
                CompileCode::SwapRejected, /*retriable=*/true,
                "a queued swap already targets this page; "
                "conflicting images cannot be queued");
    }
    if (swapActive() &&
        pages[swap.pageIdx].binding.pageId == page_id)
        return reject(CompileCode::SwapRejected, /*retriable=*/true,
                      "a swap of this page is in flight");

    SwapRequest req;
    req.pageId = page_id;
    req.nb = nb;
    if (new_fn)
        req.newFn = std::make_unique<ir::OperatorFn>(*new_fn);
    req.atCycle = at_cycle;
    swapQueue.push_back(std::move(req));
    SwapRequestResult rr;
    rr.accepted = true;
    rr.diag.stage = CompileStage::Swap;
    return rr;
}

uint64_t
SystemSim::drainForCheckpoint()
{
    if (!net)
        return 0;
    // A partial reconfiguration caught mid-stream cannot be
    // checkpointed — run the active swap to completion first (the
    // engine's own watchdog bounds this: it retries, rolls back, or
    // quarantines, but always terminates).
    uint64_t spent = driveSwap();
    // Then quiesce the network fabric, not the leaf interfaces: with
    // every page frozen, words queued in leaf FIFOs cannot move (and
    // do not need to — that state survives reconfiguration in
    // place), but flits in switch registers must land before the
    // grid can be handed to another tenant.
    while (!net->transitIdle() && spent < kSwapDrainTimeoutCycles) {
        net->stepCycle();
        ++spent;
    }
    obs::count("sys.checkpoint.drain_cycles",
               static_cast<int64_t>(spent));
    return spent;
}

void
SystemSim::beginSwap(int page_id, const PageBinding &nb,
                     std::unique_ptr<ir::OperatorFn> new_fn,
                     bool in_run)
{
    pld_assert(net, "hot swap requires the NoC overlay (useNoc)");
    pld_assert(!swapActive(), "one swap at a time");
    swap = SwapState{};
    swap.inRun = in_run;
    swap.nb = nb;
    swap.newFn = std::move(new_fn);
    obs::count("sys.swap.requests");

    int idx = findPage(page_id);
    if (idx < 0 || pages[static_cast<size_t>(idx)].quarantined) {
        swap.result.outcome = SwapOutcome::Rejected;
        obs::count("sys.swap.rejected");
        obs::instant("sys", "sys.swap.rejected")
            .arg("page", static_cast<int64_t>(page_id));
        swapLog.push_back(swap.result);
        return;
    }
    swap.pageIdx = static_cast<size_t>(idx);
    Page &page = pages[swap.pageIdx];
    page.paused = true;
    page.sleep = Sleep::Idle;
    awake[swap.pageIdx >> 6] &= ~(1ull << (swap.pageIdx & 63));
    recountBusy();
    swap.site = faultSite(page);
    swap.packetsTotal = imagePackets(nb.imageBytes);
    swap.phase = SwapPhase::Draining;
    swap.span = std::make_unique<obs::Span>("sys", "sys.swap");
    swap.span->arg("op", page.fn->name)
        .arg("page", static_cast<int64_t>(page_id))
        .arg("packets", static_cast<int64_t>(swap.packetsTotal));
    obs::instant("sys", "sys.swap.begin")
        .arg("op", page.fn->name)
        .arg("page", static_cast<int64_t>(page_id))
        .arg("packets", static_cast<int64_t>(swap.packetsTotal));
}

void
SystemSim::startAttempt()
{
    Page &page = pages[swap.pageIdx];
    swap.phase = SwapPhase::Streaming;
    swap.packetIdx = 0;
    swap.txCur = 0;
    // One cycle to begin the first transmission, then its words.
    swap.timer = 1 + kSwapPacketCycles;
    swap.awaitingAck = false;
    swap.result.attempts = swap.attempt + 1;
    swap.watchdogDeadline = swap.elapsed + watchdogBudget();
    obs::instant("sys", "sys.swap.attempt")
        .arg("op", page.fn->name)
        .arg("attempt", static_cast<int64_t>(swap.attempt));
    if (injector.fires(FaultKind::DmaStall, swap.site,
                       swap.attempt * kFaultAttemptStride)) {
        swap.timer += kSwapDmaStallCycles;
        ++swap.result.dmaStalls;
        obs::count("sys.swap.dma_stalls");
    }
}

void
SystemSim::scheduleRetransmit()
{
    ++swap.txCur;
    if (swap.txCur > kSwapMaxRetransmits) {
        attemptFailed();
        return;
    }
    ++swap.result.retransmits;
    obs::count("sys.swap.retransmits");
    // Back off, then begin the retransmission and stream its words.
    swap.timer =
        (kSwapBackoffBase << (swap.txCur - 1)) + 1 + kSwapPacketCycles;
}

void
SystemSim::transmissionResolved()
{
    // Fault coordinate: swap attempt in the high bits, transmission
    // index in the low bits (clamped to the stride), packet ordinal
    // as the salt — the runtime mirror of the compile-ladder scheme.
    int coord = swap.attempt * kFaultAttemptStride +
                std::min(swap.txCur, kFaultAttemptStride - 1);
    uint64_t salt = swap.packetIdx;

    // Frame the packet: payload derived from the image content hash,
    // CRC-32 over the payload (the real check, not a modelled one).
    // Each 8-byte word hashes (image hash, packet, offset); FNV is
    // sequential, so the state after the first two is shared.
    Hasher packet;
    packet.u64(swap.nb.imageHash);
    packet.u64(swap.packetIdx);
    std::array<uint8_t, kSwapPacketBytes> payload;
    for (size_t i = 0; i < payload.size(); i += 8) {
        Hasher h = packet;
        h.u64(i);
        uint64_t w = h.digest();
        for (size_t b = 0; b < 8 && i + b < payload.size(); ++b)
            payload[i + b] = static_cast<uint8_t>(w >> (8 * b));
    }
    uint32_t frame_crc = crc32(payload.data(), payload.size());

    const bool faults = injector.enabled();
    if (faults &&
        injector.fires(FaultKind::ConfigDrop, swap.site, coord, salt)) {
        // Packet lost in flight: the sender only learns via ack
        // timeout, then retransmits.
        ++swap.result.drops;
        obs::count("sys.swap.drops");
        swap.timer = kSwapAckTimeoutCycles;
        swap.awaitingAck = true;
        return;
    }
    if (faults && injector.fires(FaultKind::ConfigCorrupt, swap.site,
                                 coord, salt)) {
        // Bit flip in flight; the page's CRC check catches it and
        // NAKs immediately.
        payload[static_cast<size_t>(coord) % payload.size()] ^=
            static_cast<uint8_t>(1u << (salt % 8));
        pld_assert(crc32(payload.data(), payload.size()) != frame_crc,
                   "CRC-32 failed to detect a single-bit corruption");
        ++swap.result.crcErrors;
        obs::count("sys.swap.crc_errors");
        scheduleRetransmit();
        return;
    }
    // Accepted: CRC verified, commit and move to the next packet.
    pld_assert(crc32(payload.data(), payload.size()) == frame_crc,
               "clean packet failed its own CRC");
    ++swap.result.packets;
    obs::count("sys.swap.packets");
    swap.txCur = 0;
    ++swap.packetIdx;
    if (swap.packetIdx == swap.packetsTotal) {
        swap.phase = SwapPhase::Activating;
        swap.timer = kSwapActivationCycles;
    } else {
        swap.timer = 1 + kSwapPacketCycles;
    }
}

void
SystemSim::attemptFailed()
{
    Page &page = pages[swap.pageIdx];
    // Roll back: re-stream the previous image fault-free (its frames
    // are known-good and the config channel fault window has passed);
    // the page's execution context was never torn down, so only the
    // streaming time is charged.
    ++swap.result.rollbacks;
    obs::count("sys.swap.rollbacks");
    obs::instant("sys", "sys.swap.rollback")
        .arg("op", page.fn->name)
        .arg("attempt", static_cast<int64_t>(swap.attempt));
    swap.phase = SwapPhase::RollingBack;
    // Each old packet costs its words plus a begin cycle; the next
    // attempt starts one cycle after the last of them.
    swap.timer =
        imagePackets(page.binding.imageBytes) * (kSwapPacketCycles + 1) + 1;
}

void
SystemSim::stepSwap(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    ++swap.elapsed;
    if (swap.phase == SwapPhase::Idle)
        return;
    if (swap.phase == SwapPhase::Draining) {
        // A live (in-run) swap waits for the page's outbound traffic
        // to drain — the page keeps executing and empties its own
        // queues. A synchronous swap runs against a frozen fabric
        // (checkpoint reinstatement): queued words can never drain
        // and never need to, so only in-transit traffic gates it.
        if (swap.inRun ? net->leafQuiet(page.binding.pageId)
                       : net->leafTransitQuiet(page.binding.pageId)) {
            startAttempt();
            return;
        }
        if (swap.elapsed > kSwapDrainTimeoutCycles) {
            // The leaf never quiesced: abort before any image bits
            // were committed. The old page was never touched.
            swap.result.watchdogFired = true;
            obs::count("sys.swap.watchdog_fired");
            finishSwap(SwapOutcome::RolledBack, run_cycle);
        }
        return;
    }
    if (swap.phase != SwapPhase::RollingBack &&
        swap.elapsed >= swap.watchdogDeadline) {
        swap.result.watchdogFired = true;
        obs::count("sys.swap.watchdog_fired");
        attemptFailed();
        return;
    }
    // After the drain every phase waits on the one timer, then acts.
    if (swap.timer == 0 || --swap.timer > 0)
        return;
    switch (swap.phase) {
      case SwapPhase::Streaming:
        if (swap.awaitingAck) {
            swap.awaitingAck = false;
            scheduleRetransmit(); // drop confirmed by timeout
        } else {
            transmissionResolved();
        }
        return;
      case SwapPhase::Activating:
        if (injector.fires(FaultKind::PageHang, swap.site,
                           swap.attempt * kFaultAttemptStride)) {
            // The page never reports up; the timer stays at 0, so
            // only the watchdog ends the attempt.
            obs::instant("sys", "sys.swap.hang")
                .arg("op", page.fn->name)
                .arg("attempt", static_cast<int64_t>(swap.attempt));
            return;
        }
        finishSwap(SwapOutcome::Swapped, run_cycle);
        return;
      case SwapPhase::RollingBack:
        if (swap.attempt + 1 < kSwapMaxAttempts) {
            ++swap.attempt;
            startAttempt();
        } else {
            finishSwap(SwapOutcome::Quarantined, run_cycle);
        }
        return;
      default:
        return;
    }
}

void
SystemSim::installImage(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    PageBinding nb = swap.nb;
    nb.opIdx = page.binding.opIdx;
    nb.pageId = page.binding.pageId; // swaps never relocate a page
    bool fn_changed = swap.newFn != nullptr;
    if (fn_changed)
        setFn(page, std::move(swap.newFn));
    bool restart = fn_changed || nb.impl != page.binding.impl;
    bool same_image =
        nb.imageHash != 0 && nb.imageHash == page.binding.imageHash;
    page.binding = nb;
    if (!restart && nb.impl == PageImpl::Hw) {
        // Same function, re-timed/re-placed image — the operator's
        // architectural stream state lives in the leaf interface (not
        // reconfigured), so execution resumes where the drain left
        // it; only cyclesPerOp changes.
        return;
    }
    if (!restart && same_image) {
        // Checkpoint/restore: re-instating the *identical* softcore
        // image (same content hash — the eviction/reinstate path of
        // the tenant scheduler) restores the read-back core state
        // instead of resetting to the entry point, so an evicted
        // tenant resumes mid-batch exactly where its drain left it.
        // Only the clock sync is re-based; the streaming cost was
        // already charged by the swap engine.
        page.coreSyncRun = run_cycle;
        page.coreSyncCycles = page.core->cycles();
        return;
    }
    restartPage(page, run_cycle);
    page.restartable = true;
}

void
SystemSim::installFallback(uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    page.quarantined = true;
    obs::count("sys.swap.quarantined");
    // Prefer the new image's fallback binary (it implements the
    // edited function); fall back to the old binding's; with neither,
    // pin the old image in place.
    const PageBinding *src = nullptr;
    if (swap.nb.hasFallback)
        src = &swap.nb;
    else if (page.binding.hasFallback)
        src = &page.binding;
    obs::instant("sys", "sys.swap.quarantine")
        .arg("op", page.fn->name)
        .arg("fallback", static_cast<int64_t>(src ? 1 : 0));
    if (!src)
        return; // old image stays; future swaps are rejected
    if (src == &swap.nb && swap.newFn)
        setFn(page, std::move(swap.newFn));
    page.binding.impl = PageImpl::Softcore;
    page.binding.elf = src->fallbackElf;
    page.binding.imageBytes = src->fallbackElf.footprintBytes();
    page.binding.imageHash = 0; // fallback image, not the failed one
    page.binding.hasFallback = true;
    page.binding.fallbackElf = src->fallbackElf;
    restartPage(page, run_cycle);
    page.restartable = true;
}

void
SystemSim::finishSwap(SwapOutcome outcome, uint64_t run_cycle)
{
    Page &page = pages[swap.pageIdx];
    if (outcome == SwapOutcome::Swapped) {
        installImage(run_cycle);
        obs::count("sys.swap.completed");
    } else if (outcome == SwapOutcome::Quarantined) {
        installFallback(run_cycle);
    }
    page.paused = false;
    // The page polls from this cycle on; it skipped nothing while
    // paused.
    page.sleep = Sleep::Awake;
    page.syncedTo = run_cycle;
    wake(swap.pageIdx);
    recountBusy();
    swap.result.outcome = outcome;
    swap.result.cycles = swap.elapsed;
    obs::record("sys.swap.cycles",
                static_cast<double>(swap.result.cycles));
    obs::instant("sys", "sys.swap.done")
        .arg("op", page.fn->name)
        .arg("outcome", swapOutcomeName(outcome))
        .arg("cycles", static_cast<int64_t>(swap.result.cycles))
        .arg("retransmits",
             static_cast<int64_t>(swap.result.retransmits));
    if (swap.span) {
        swap.span->arg("outcome", swapOutcomeName(outcome))
            .arg("cycles", static_cast<int64_t>(swap.result.cycles))
            .arg("packets", static_cast<int64_t>(swap.result.packets))
            .arg("retransmits",
                 static_cast<int64_t>(swap.result.retransmits))
            .arg("rollbacks",
                 static_cast<int64_t>(swap.result.rollbacks));
        swap.span.reset();
    }
    swapLog.push_back(swap.result);
    swap.newFn.reset();
    swap.phase = SwapPhase::Idle;
}

} // namespace sys
} // namespace pld
