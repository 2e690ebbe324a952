/**
 * @file
 * Cycle-level system simulator: the "board" the linked design runs on.
 *
 * Models the runtime half of the paper: a set of physical pages (each
 * implementing one operator either as HLS hardware or as a softcore
 * running its -O0 binary), the linking network connecting them, and a
 * DMA engine streaming host buffers in and out (Fig 3). The same
 * simulator also runs monolithic (-O3 / Vitis) designs by replacing
 * the NoC with direct FIFO links.
 *
 * Timing:
 *  - HW pages charge cycles per interpreter compute-op using the HLS
 *    schedule's cyclesPerOp (so an II=1 loop streams ~1 word/cycle).
 *  - Softcore pages execute their RV32 binary on the ISS; the ISS's
 *    PicoRV32 cycle counter is synchronized to the global clock.
 *  - The NoC moves one flit per link per cycle with deflection.
 * Wall-clock seconds per input are cycles / Fmax, reported by the
 * benchmark harness (Table 3).
 *
 * Live reconfiguration (hot swap): swapPage() / requestSwap() replace
 * one page's image while the rest of the system keeps executing — the
 * paper's edit→recompile→hot-swap loop. The swap engine drains the
 * target's NoC traffic, streams the new image as CRC-framed config
 * packets over a dedicated ICAP-style config channel (sized from the
 * image footprint, mirroring partial-bitstream size), and activates.
 * It is fault tolerant end to end: per-packet CRC with bounded
 * retransmit and exponential backoff, a reconfiguration watchdog, a
 * rollback to the previous image on an aborted attempt, and a
 * quarantine policy that pins a page to its softcore fallback after
 * repeated failures (the runtime continuation of the compile-time
 * retry ladder). All fault decisions come from the deterministic
 * FaultInjector, so every scenario is bit-reproducible under any
 * PLD_THREADS.
 */

#ifndef PLD_SYS_SYSTEM_H
#define PLD_SYS_SYSTEM_H

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/fault.h"
#include "interp/exec.h"
#include "ir/graph.h"
#include "noc/bft.h"
#include "obs/trace.h"
#include "rv32/iss.h"

namespace pld {
namespace sys {

/** How one operator is realized on its page. */
enum class PageImpl { Hw, Softcore };

/** Binding of a graph operator to a physical page. */
struct PageBinding
{
    int opIdx = -1;
    int pageId = -1; ///< physical page == NoC leaf id
    PageImpl impl = PageImpl::Hw;
    /** HW: cycle charge per interpreter compute op. */
    double cyclesPerOp = 1.0;
    /** Softcore: the packed -O0 binary. */
    rv32::PldElf elf;
    /**
     * Partial-image size in bytes (drives how many config packets a
     * hot swap streams). 0 = unknown; the swap engine then assumes
     * one packet. The compiler fills this from the page's resource
     * footprint (HW) or the binary footprint (softcore).
     */
    uint64_t imageBytes = 0;
    /** Content hash of the image (seeds the CRC-framed packets). */
    uint64_t imageHash = 0;
    /** Quarantine fallback: pin the operator to this -O0 softcore
     * binary after repeated swap failures. */
    bool hasFallback = false;
    rv32::PldElf fallbackElf;
};

/** Cycles a dma_stall fault freezes the swap config channel for. */
constexpr uint64_t kSwapDmaStallCycles = 64;

struct SystemConfig
{
    /** Overlay (true, -O1/-O0) vs direct FIFO links (-O3/Vitis). */
    bool useNoc = true;
    /** Pending requestSwap() queue bound; further requests are
     * rejected with a structured diagnostic instead of piling up. */
    size_t swapQueueDepth = 8;
    /**
     * Runtime fault plan (config_drop / config_corrupt / page_hang /
     * dma_stall). Empty = inherit PLD_FAULT from the environment.
     */
    FaultPlan faults;
    /**
     * Fault-coordinate scope: when non-empty, every fault query this
     * sim makes uses the site name "<faultScope>/<op>" instead of the
     * bare operator name. The multi-tenant scheduler sets it to the
     * tenant name so a PLD_FAULT spec scoped to "t1/" targets one
     * tenant's pages without leaking into any other tenant (see
     * common/fault.h).
     */
    std::string faultScope;
};

/** Per-run result summary. */
struct RunStats
{
    uint64_t cycles = 0;
    uint64_t configCycles = 0; ///< linking (config packets) phase
    /** Run cycles the loop stepped rather than jumped over, because
     * a page, the network, the DMA engine or the swap engine could
     * act in them (DESIGN.md §2, "Activity-driven stepping"). */
    uint64_t steppedCycles = 0;
    bool completed = false;
    noc::NocStats noc;
};

/** Terminal state of one swapPage()/requestSwap(). */
enum class SwapOutcome {
    /** New image streamed, verified, and activated. */
    Swapped,
    /** Aborted before any image bits were committed (drain never
     * quiesced); the old image was never touched. */
    RolledBack,
    /** All attempts failed; the page is pinned to its fallback
     * softcore (or the old image when no fallback exists) and
     * further swaps are rejected. */
    Quarantined,
    /** Target page is quarantined (or unknown); nothing happened. */
    Rejected,
};

const char *swapOutcomeName(SwapOutcome o);

/**
 * Outcome of *queueing* a requestSwap() — distinct from SwapResult,
 * which describes an executed swap. A rejected request never enters
 * the queue and never appears in swapHistory(); the diagnostic says
 * why (queue full, duplicate page target, unknown or quarantined
 * page).
 */
struct SwapRequestResult
{
    bool accepted = false;
    Diagnostic diag;
};

/** What one swap did and what it cost. */
struct SwapResult
{
    SwapOutcome outcome = SwapOutcome::Rejected;
    /** Total swap duration in sim cycles (drain → terminal). */
    uint64_t cycles = 0;
    /** New-image packets accepted by the page's CRC check. */
    uint64_t packets = 0;
    uint64_t retransmits = 0;
    uint64_t crcErrors = 0;
    uint64_t drops = 0;
    uint64_t dmaStalls = 0;
    int attempts = 0;
    int rollbacks = 0;
    bool watchdogFired = false;
};

/**
 * One loaded application ready to execute.
 */
class SystemSim
{
  public:
    SystemSim(const ir::Graph &g,
              const std::vector<PageBinding> &bindings,
              const SystemConfig &cfg);

    /** Queue host input words on external stream @p ext_idx. */
    void loadInput(int ext_idx, const std::vector<uint32_t> &words);

    /**
     * Link (config packets through the network) and run to
     * completion or @p max_cycles. Pages that completed a previous
     * run are re-armed (reset to their entry state) when new host
     * input is queued, so one SystemSim can process many batches.
     */
    RunStats run(uint64_t max_cycles = 500000000ull);

    /**
     * Run at most @p cycles further cycles as one scheduler time
     * slice. Identical to run() except that exhausting the budget is
     * a yield, not a failure: no sys.run.timeout telemetry is
     * emitted, because the tenant scheduler preempting a tenant
     * mid-batch is the normal case, not a stall.
     */
    RunStats runSlice(uint64_t cycles);

    /** Words the DMA engine collected from external output. */
    std::vector<uint32_t> takeOutput(int ext_idx);

    /**
     * Hot-swap the page at NoC leaf @p page_id to @p nb, synchronously
     * (between runs): drain, stream CRC-framed packets, activate —
     * with retransmit / watchdog / rollback / quarantine handling.
     * @p new_fn, when non-null, is the edited operator function the
     * new image implements (the sim keeps its own copy); null means
     * the function is unchanged (a re-timed/re-placed image) and the
     * operator's execution state survives the swap — architectural
     * stream state lives in the leaf interface, which DFX does not
     * reconfigure. A function-changing swap restarts the operator.
     */
    SwapResult swapPage(int page_id, const PageBinding &nb,
                        const ir::OperatorFn *new_fn = nullptr);

    /**
     * Queue a hot swap to start once run() reaches @p at_cycle
     * (run-local clock): the rest of the system keeps executing
     * while the swap engine drains and streams. Results are appended
     * to swapHistory() in start order. The request is validated at
     * queueing time: a full queue (swapQueueDepth), a second request
     * targeting an already-queued or in-flight page, or an unknown /
     * quarantined target page is rejected with a structured
     * diagnostic instead of silently queueing a conflicting swap.
     */
    SwapRequestResult requestSwap(int page_id, const PageBinding &nb,
                                  uint64_t at_cycle,
                                  const ir::OperatorFn *new_fn =
                                      nullptr);

    const std::vector<SwapResult> &swapHistory() const
    {
        return swapLog;
    }

    /**
     * Checkpoint drain: step only the network (pages frozen, no DMA)
     * until every flit has landed in a leaf-interface FIFO and no
     * config packet is pending, so the fabric can be handed to
     * another tenant. Words parked in leaf FIFOs survive — the DFX
     * model: partial reconfiguration does not touch the leaf
     * interface, so an evicted tenant's stream state is preserved
     * in place and re-instating the same images resumes execution
     * exactly where the drain left it. An active swap is first run
     * to completion (mid-reconfiguration state cannot be
     * checkpointed; the swap watchdog bounds it). Returns cycles
     * spent (the fabric-quiesce part is bounded by the swap drain
     * timeout).
     */
    uint64_t drainForCheckpoint();

    /** Pending requestSwap() entries not yet started. */
    size_t pendingSwapRequests() const { return swapQueue.size(); }

    /** True when the page at leaf @p page_id is quarantined. */
    bool pageQuarantined(int page_id) const;

    /** Current implementation of the page at leaf @p page_id. */
    PageImpl pageImpl(int page_id) const;

    /**
     * Current binding of the page at leaf @p page_id — reflects any
     * completed swaps (including a quarantine rewrite). The tenant
     * scheduler re-streams exactly this image at reinstatement.
     */
    const PageBinding &pageBinding(int page_id) const;

  private:
    /**
     * Why a page is out of the awake set, which decides what its
     * skipped cycles replay and which event wakes it (DESIGN.md §2,
     * "Activity-driven stepping").
     */
    enum class Sleep {
        Awake,   ///< polled every stepped cycle
        Blocked, ///< waits for waitPort to fire
        Starved, ///< restartable, waits for any input to be readable
        Timer,   ///< HW computing or softcore not due until wakeAt
        Idle,    ///< done or paused: nothing to replay or wake
    };

    struct Page
    {
        PageBinding binding;
        /** Function currently on the page (graph's or ownedFn). */
        const ir::OperatorFn *fn = nullptr;
        /** Owns a swapped-in edited function. */
        std::unique_ptr<ir::OperatorFn> ownedFn;
        /** Leaf-interface ports, indexed like fn->ports. */
        std::vector<dataflow::StreamPort *> ports;
        /** HW: runs fn's Program; reset, not rebuilt, on restart. */
        std::unique_ptr<interp::OperatorExec> exec;
        std::unique_ptr<rv32::Core> core; // softcore
        double budget = 0;
        bool done = false;
        /** Frozen by the swap engine (drain → terminal). */
        bool paused = false;
        /** Repeated swap failures pinned this page; swaps Rejected. */
        bool quarantined = false;
        /**
         * Installed fresh mid-stream by a function-changing swap:
         * the page counts as quiescent (for completion) while it is
         * blocked on read with no input readable even after the
         * cycle's NoC step, instead of requiring an explicit done
         * state.
         */
        bool restartable = false;
        /** Set with restartable when the page last blocked starved. */
        bool starved = false;
        /** sys.page.done already emitted since the last restart. */
        bool doneMarked = false;
        /**
         * Softcore clock sync point: the core is stepped while
         * (cycles() - coreSyncCycles) < (run cycle - coreSyncRun).
         * Re-based at every run() start and whenever a core is
         * installed mid-run, so neither a fresh core (cycles()==0 at
         * a large run clock) nor a carried-over core (large cycles()
         * at run clock 0) bursts or freezes.
         */
        uint64_t coreSyncRun = 0;
        uint64_t coreSyncCycles = 0;

        Sleep sleep = Sleep::Awake;
        /** Blocked: the stream and whether it waits to write. */
        int waitPort = -1;
        bool waitWrite = false;
        /** Timer: the run cycle at which the page polls again, and a
         * computing HW page's budget after the cycles before it. */
        uint64_t wakeAt = 0;
        double wakeBudget = 0;
        /** Run cycles before this one are applied to budget and
         * stalls; later skipped cycles are replayed on the next
         * visit, pause or run end. */
        uint64_t syncedTo = 0;
        /** Direct links: pages at the other end of this page's
         * streams, woken when this page makes progress. */
        std::vector<size_t> peers;
    };

    /** Swap engine phases (see DESIGN.md §11). */
    enum class SwapPhase {
        Idle,
        Draining,
        Streaming,
        Activating,
        RollingBack,
    };

    /** In-flight swap state machine. */
    struct SwapState
    {
        SwapPhase phase = SwapPhase::Idle;
        size_t pageIdx = 0;
        PageBinding nb;
        std::unique_ptr<ir::OperatorFn> newFn;
        bool inRun = false;        ///< driven by run() (vs synchronous)
        uint64_t elapsed = 0;      ///< cycles since the swap started
        int attempt = 0;
        uint64_t packetsTotal = 0;
        uint64_t packetIdx = 0;
        int txCur = 0;             ///< transmissions of current packet
        uint64_t packetCycleLeft = 0;
        uint64_t ackWaitLeft = 0;  ///< drop detection countdown
        uint64_t backoffLeft = 0;
        uint64_t stallLeft = 0;    ///< dma_stall freeze countdown
        bool hung = false;         ///< page_hang fired; await watchdog
        uint64_t activateLeft = 0;
        uint64_t watchdogDeadline = 0; ///< in elapsed-cycles space
        uint64_t rollbackLeft = 0;
        /** Fault site of the target page, fixed for the swap. */
        std::string site;
        SwapResult result;
        std::unique_ptr<obs::Span> span;
    };

    /** Queued requestSwap() entry. */
    struct SwapRequest
    {
        int pageId = 0;
        PageBinding nb;
        std::unique_ptr<ir::OperatorFn> newFn;
        uint64_t atCycle = 0;
    };

    void buildNocSystem();
    void buildDirectSystem();
    RunStats runInternal(uint64_t max_cycles, bool slice);
    /** Visit the awake pages of @p cycle; true when every page is
     * done or a starved restartable page. */
    bool stepPages(uint64_t cycle);
    void visitPage(size_t idx, uint64_t cycle);
    /** Apply @p page's skipped cycles before @p cycle to its budget
     * and the stall count, exactly as polling it would have. */
    void replay(Page &page, uint64_t cycle);
    /** A stream of page @p idx changed: wake it if it can now act. */
    void
    streamEvent(size_t idx)
    {
        const Sleep s = pages[idx].sleep;
        if (s == Sleep::Blocked || s == Sleep::Starved)
            wakeIfReady(idx);
    }
    void wakeIfReady(size_t idx);
    void wake(size_t idx)
    {
        awake[idx >> 6] |= 1ull << (idx & 63);
    }
    /** True when stepping this cycle cannot change any state but the
     * sleeping pages' replayed budgets and stalls. */
    bool quietCycle() const;
    /** Wake the Timer pages due at @p now. */
    void
    fireTimers(uint64_t now)
    {
        while (!timers.empty() && timers.top().first <= now) {
            auto [at, idx] = timers.top();
            timers.pop();
            if (pages[idx].sleep == Sleep::Timer && pages[idx].wakeAt == at)
                wake(idx);
        }
    }
    /** True when @p page keeps the run from completing: it is neither
     * done nor a starved restartable page (a paused page counts). */
    static bool isBusy(const Page &page);
    /** Count the pages that keep the run from completing. */
    void recountBusy();
    bool anyInputReadable(const Page &page) const;
    void rearmPages();
    /** Install a swapped-in function on @p page; its HW executor is
     * rebuilt on the new function's Program at the next restart. */
    static void setFn(Page &page, std::unique_ptr<ir::OperatorFn> fn);
    /**
     * Load @p page at its entry state from its current binding and
     * function: a reset interpreter (HW) or a fresh core (softcore),
     * cleared progress and done marker, and the softcore clock synced
     * to @p run_cycle.
     */
    void restartPage(Page &page, uint64_t run_cycle);
    /** Fault-injection site name for @p page: the operator name,
     * prefixed with cfg.faultScope (tenant) when one is set. */
    std::string faultSite(const Page &page) const;

    // Swap engine.
    int findPage(int page_id) const;
    void beginSwap(int page_id, const PageBinding &nb,
                   std::unique_ptr<ir::OperatorFn> new_fn, bool in_run);
    /** Step the active swap and the NoC (pages frozen) until the swap
     * is terminal; returns the cycles stepped. */
    uint64_t driveSwap();
    void stepSwap(uint64_t run_cycle);
    void startAttempt();
    void transmissionResolved();
    void scheduleRetransmit();
    void attemptFailed();
    void finishSwap(SwapOutcome outcome, uint64_t run_cycle);
    void installImage(uint64_t run_cycle);
    void installFallback(uint64_t run_cycle);
    uint64_t watchdogBudget() const;
    bool swapActive() const
    {
        return swap.phase != SwapPhase::Idle;
    }

    /** Telemetry accumulated across the run (one counter add at the
     * end instead of per-cycle registry traffic). */
    uint64_t statStalls = 0;

    // Page scheduler (DESIGN.md §2, "Activity-driven stepping").
    /** One bit per page to poll in the current or next cycle. */
    std::vector<uint64_t> awake;
    /** (wakeAt, page) of Timer pages, earliest first; an entry whose
     * page has left that timer is skipped. */
    std::priority_queue<std::pair<uint64_t, size_t>,
                        std::vector<std::pair<uint64_t, size_t>>,
                        std::greater<>>
        timers;
    /** Pages neither done nor starved-restartable (paused counts). */
    size_t busyPages = 0;
    /** NoC leaf -> page index, or -1. */
    std::vector<int> leafPage;
    /** Direct links: page at the far end of each external stream,
     * or -1. */
    std::vector<int> extInPage;
    std::vector<int> extOutPage;

    const ir::Graph &g;
    SystemConfig cfg;
    FaultInjector injector;
    std::vector<Page> pages;
    std::unique_ptr<noc::BftNoc> net;

    SwapState swap;
    std::vector<SwapRequest> swapQueue;
    std::vector<SwapResult> swapLog;

    // Direct-link mode storage.
    std::vector<std::unique_ptr<dataflow::WordFifo>> directFifos;
    std::vector<std::unique_ptr<dataflow::StreamPort>> portStorage;

    // DMA buffers.
    std::vector<std::vector<uint32_t>> hostIn;   // per ext input
    std::vector<size_t> hostInPos;
    std::vector<std::vector<uint32_t>> hostOut;  // per ext output
    std::vector<dataflow::StreamPort *> extInPorts;
    std::vector<dataflow::StreamPort *> extOutPorts;
};

} // namespace sys
} // namespace pld

#endif // PLD_SYS_SYSTEM_H
