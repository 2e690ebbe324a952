/**
 * @file
 * The PLD compiler driver: the paper's primary contribution (Sec 6).
 *
 * One Graph of operators compiles four ways from the same source:
 *
 *  - O0    (Fig 5): every operator -> RV32 binary for its page's
 *          softcore overlay; compiles in (milli)seconds.
 *  - O1    (Fig 6): every operator -> HLS -> synthesis -> abstract-
 *          shell place&route into its own page -> partial bitstream;
 *          operators compile independently and in parallel; the
 *          linking network connects them with config packets.
 *          Operators whose pragma says RISCV are -O0-mapped instead
 *          (any mix is legal, Sec 6.2).
 *  - O3    (Fig 7): operators are HLS-compiled then stitched with
 *          pipelined FIFO links at the netlist level and
 *          place-and-routed monolithically on the raw fabric.
 *  - Vitis: baseline monolithic compile of the fused design with
 *          direct (unpipelined) inter-operator nets — the vendor
 *          flow the paper compares against.
 *
 * The compiler owns a content-addressed artifact cache keyed by
 * operator IR hash + target + page, so unchanged operators are never
 * recompiled — separate compilation and linkage (Sec 1).
 */

#ifndef PLD_PLD_COMPILER_H
#define PLD_PLD_COMPILER_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/diag.h"
#include "common/fault.h"
#include "common/singleflight.h"
#include "fabric/device.h"
#include "obs/metrics.h"
#include "hls/compiler.h"
#include "ir/graph.h"
#include "ir/printer.h"
#include "pnr/engine.h"
#include "rv32/elf.h"
#include "rvgen/codegen.h"
#include "sys/system.h"
#include "sys/tenancy.h"

namespace pld {
namespace flow {

/** Compile flows (Table 2 columns). */
enum class OptLevel { O0, O1, O3, Vitis };

const char *optLevelName(OptLevel level);

/** Per-stage compile seconds (Table 2 row format). */
struct StageTimes
{
    double hls = 0;
    double syn = 0;
    double pnr = 0;
    double bitgen = 0;

    double total() const { return hls + syn + pnr + bitgen; }

    StageTimes &
    operator+=(const StageTimes &o)
    {
        hls += o.hls;
        syn += o.syn;
        pnr += o.pnr;
        bitgen += o.bitgen;
        return *this;
    }

    /** Component-wise max (parallel-build wall time per stage). */
    void
    maxWith(const StageTimes &o)
    {
        hls = std::max(hls, o.hls);
        syn = std::max(syn, o.syn);
        pnr = std::max(pnr, o.pnr);
        bitgen = std::max(bitgen, o.bitgen);
    }
};

/**
 * Escalation rungs of the per-page retry ladder. A failed page
 * compile climbs them in order until one succeeds; the final rung is
 * the paper's mixed mode (Sec 6.2): any operator may be -O0-mapped
 * onto its page's softcore, so a build can always complete.
 */
enum class LadderStep : uint8_t
{
    Initial,          ///< first attempt, baseline options
    EscalateEffort,   ///< more router iterations + placement effort
    FreshSeed,        ///< re-place with a derived fresh seed
    PromotePage,      ///< move to the reserved larger page
    SoftcoreFallback, ///< -O0-map the operator (mixed mode)
};

const char *ladderStepName(LadderStep s);

/** One ladder rung as actually executed (build-report line). */
struct AttemptRecord
{
    LadderStep step = LadderStep::Initial;
    int page = -1;
    uint64_t seed = 0;
    double effort = 0;
    int routeIters = 0;
    CompileCode outcome = CompileCode::Ok;
    double fmaxMHz = 0;
    int overusedTiles = 0;

    std::string render() const;
};

/**
 * Per-operator compile outcome: what AppBuild carries instead of
 * pretending every compile succeeded. `degraded` means the softcore
 * fallback rung was taken; `failed` means no artifact exists at all
 * (an exception escaped the ladder). The attempt list is the full
 * ladder as executed — deterministic, so the same seed and the same
 * injected faults reproduce it bit-for-bit.
 */
struct OperatorOutcome
{
    std::string op;
    CompileCode finalCode = CompileCode::Ok;
    bool degraded = false;
    bool failed = false;
    bool fromCache = false;
    std::vector<AttemptRecord> attempts;
    CompileStatus status;
};

/** Whole-build failure/degradation summary. */
struct BuildReport
{
    std::vector<OperatorOutcome> ops;
    /** Build-level events (monolithic p&r failures, link issues). */
    CompileStatus buildStatus;
    /**
     * Telemetry delta for this build: counters, stage gauges, and
     * timing distributions recorded between build() entry and exit.
     * Empty (enabled == false) when no tracer is installed. Not part
     * of render() — counter totals are deterministic but stage times
     * are not, and render() is compared bit-for-bit in tests.
     */
    obs::MetricsSnapshot metrics;

    /** No operator failed outright and no build-level error. */
    bool allOk() const;
    int degradedCount() const;
    int failedCount() const;
    std::string render() const;
};

/** One operator's compiled artifact. */
struct OperatorArtifact
{
    std::string name;
    uint64_t irHash = 0;
    ir::Target target = ir::Target::HW;
    int page = -1;
    StageTimes times;
    bool fromCache = false;
    /** Effort the artifact was compiled at (degraded artifacts are
     * never served to a higher-effort build). */
    double effortUsed = 0;
    /** Ladder history + structured diagnostics for this artifact. */
    OperatorOutcome outcome;

    // HW flavour.
    netlist::Netlist net;
    hls::PerfEstimate perf;
    pnr::PnrResult pnr;

    // Softcore flavour.
    rv32::PldElf elf;
    /** Codegen tier the elf was actually produced at (a capacity
     * overflow at -Os silently retries at -O0). */
    rvgen::Tier softcoreTier = rvgen::Tier::O0;
};

struct CompileOptions
{
    /** Place-and-route effort multiplier. */
    double effort = 1.0;
    /** Threads for parallel page compiles, the caller included: 0 =
     * whatever the shared ThreadBudget has free (up to one per
     * operator; nested auto P&R gets only what is left), N = exactly
     * N. Never affects results. */
    unsigned parallelJobs = 0;
    /** Threads inside each place-and-route run (0 = budget auto). */
    unsigned pnrThreads = 0;
    /** Annealing restarts per placement (best-cost wins). */
    int pnrRestarts = 1;
    uint64_t seed = 1;
    /**
     * Overlay clock paged compiles must close timing against
     * (Sec 5: the 200 MHz linking-network clock). An achieved page
     * Fmax below it triggers the timing retry ladder.
     */
    double overlayClockMHz = 200.0;
    /**
     * Fault-injection plan for exercising recovery paths. When left
     * empty, PLD_FAULT / PLD_FAULT_SEED are consulted (see
     * common/fault.h for the grammar).
     */
    FaultPlan faults;
    /**
     * Softcore codegen tier for every -O0-mapped operator: the
     * ladder's SoftcoreFallback rung, forced-O0 builds, quarantine
     * fallback images, and tenant-pack fallbacks. Defaults to the
     * optimizing `Os` tier; a compile that exceeds the -Os capacity
     * limits transparently retries at the paper-faithful `O0`
     * baseline, so mixed mode can still always complete. The
     * PLD_RVGEN_TIER environment variable ("O0"/"Os") overrides this
     * at PldCompiler construction.
     */
    rvgen::Tier softcoreTier = rvgen::Tier::Os;
    /**
     * Keep every compiled version of every operator, so no build
     * compiles one twice. A long-lived service sets this false: the
     * cache then keeps only the version compiled last for each
     * (operator name, target, page), so its memory is bounded by the
     * operators and pages it has seen instead of growing with the
     * edits it serves. An unchanged operator is still a cache hit.
     * An evicted version asked for again is recompiled at the claim
     * generation that first built it (fault coordinates are
     * generation * kFaultAttemptStride), so the recompile repeats
     * that compile, injected faults included.
     */
    bool keepOldVersions = true;
};

/**
 * Artifact-cache effectiveness counters. Atomic so concurrent
 * builds through one PldCompiler keep them consistent: every lookup
 * is exactly one hit or one miss, and compiles == misses (an
 * in-flight artifact is never compiled twice; late arrivals wait and
 * count as hits).
 */
struct CacheStats
{
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    /** Artifacts actually compiled (never exceeds misses). */
    std::atomic<uint64_t> compiles{0};
    /** In-flight compiles that threw; each failed its claim so one
     * waiter re-claimed instead of all hanging. At quiescence
     * compiles + failures == misses. */
    std::atomic<uint64_t> failures{0};
    /** Checksum-mismatch evictions; each corrupt entry is detected
     * on lookup and recompiled exactly once. */
    std::atomic<uint64_t> corrupt{0};
};

/** Result of building one application at one opt level. */
struct AppBuild
{
    OptLevel level = OptLevel::O1;
    /** Per-stage compile time assuming each operator compiles on its
     * own node (the paper's parallel Slurm cluster): per-stage max
     * over operators, plus shared monolithic work. Per-operator
     * stages are CPU-clocked so timesharing between parallel page
     * compiles on this machine does not inflate the estimate. */
    StageTimes wallTimes;
    /** Total CPU across all operators (single-node cost). */
    StageTimes cpuTimes;

    std::vector<OperatorArtifact> ops;

    /** Monolithic results (O3/Vitis only). */
    netlist::Netlist monoNet;
    pnr::PnrResult monoPnr;

    double fmaxMHz = 0;
    size_t totalBitstreamBytes = 0;
    netlist::ResourceCount area;
    int pagesUsed = 0;
    ir::DfgFile dfg;

    /** Ready-to-run system configuration. */
    std::vector<sys::PageBinding> bindings;
    sys::SystemConfig sysCfg;

    /** Per-operator outcomes + build-level diagnostics: which
     * operators degraded or failed, and the exact ladder each one
     * climbed. */
    BuildReport report;
};

/**
 * One operator's hot-swap package: the recompiled page image plus
 * everything the runtime needs to install it live — the binding
 * (image size/hash for the CRC-framed config stream, the quarantine
 * fallback binary) and the operator function the image implements.
 * Produced by PldCompiler::buildSwapArtifact; consumed by
 * sys::SystemSim::swapPage / requestSwap. This closes the paper's
 * edit→recompile→hot-swap loop: recompile one operator, swap its
 * page, keep the rest of the app running.
 */
struct SwapArtifact
{
    std::string op;
    /** New image binding; pageId is the page the operator already
     * occupies (a hot swap never relocates a page). */
    sys::PageBinding binding;
    /** The operator function the new image implements. */
    ir::OperatorFn fn;
    /** True when fn differs from the base build's version — the
     * runtime then restarts the operator instead of resuming it. */
    bool fnChanged = false;
    /** True when the image came out of the artifact cache. */
    bool fromCache = false;
    /** Ladder history + diagnostics of the recompile. */
    OperatorOutcome outcome;
};

/** One independently compiled app requesting a share of the fabric.
 * Graph and build are caller-owned and must outlive the returned
 * TenantSpecs (the scheduler references the graph). */
struct TenantAppRef
{
    std::string name;
    const ir::Graph *graph = nullptr;
    const AppBuild *build = nullptr;
};

/**
 * Admission-ready tenant bundles plus packing diagnostics. Apps that
 * fail validation are reported in `status` (stage Tenancy) and
 * omitted from `specs`; the valid ones still pack.
 */
struct TenantPack
{
    std::vector<sys::TenantSpec> specs;
    CompileStatus status;
    /** Largest single-app footprint in pages. */
    int maxPages = 0;
    /** Sum of footprints — may exceed the grid; the TenantScheduler
     * time-shares pages across tenants. */
    int totalPages = 0;
};

/**
 * Driver object; keeps the artifact cache across builds so the
 * edit-compile-debug loop only recompiles what changed.
 */
class PldCompiler
{
  public:
    PldCompiler(const fabric::Device &dev, CompileOptions opts = {});

    /**
     * Compile @p g at @p level. For O1, operator pragmas select HW
     * pages vs softcores per operator; O0 forces every operator to
     * the softcore overlay. @p effort_override (> 0) replaces the
     * configured effort for this build; degraded cache entries from
     * lower-effort builds are recompiled rather than served.
     */
    AppBuild build(const ir::Graph &g, OptLevel level,
                   double effort_override = 0);

    /**
     * Incrementally recompile the operator named @p op of the edited
     * graph @p g for the page it occupies in @p base, and package the
     * result for a live swap. Unchanged operators come straight out
     * of the artifact cache; edited ones climb the usual retry ladder
     * — pinned to their current page (no promotion; a swap may not
     * relocate a page), degrading to the softcore image when the
     * edit no longer routes. Always carries the softcore binary of
     * the same function (compiled at the configured softcoreTier) as
     * the quarantine fallback.
     */
    SwapArtifact buildSwapArtifact(const ir::Graph &g,
                                   const std::string &op,
                                   const AppBuild &base);

    /**
     * Package independently compiled apps for the multi-tenant
     * scheduler (sys::TenantScheduler): validate each app against
     * the shared fabric (paged build, footprint within the grid, no
     * failed operators, legal unique tenant name) and guarantee
     * every page binding carries a softcore quarantine fallback,
     * compiling the fallback binaries on demand through the artifact
     * cache. Invalid apps are diagnosed and skipped, never silently
     * admitted.
     */
    TenantPack packTenantApps(const std::vector<TenantAppRef> &apps);

    const CacheStats &cacheStats() const { return cache_stats; }

    /** Artifacts the cache holds for later builds. */
    size_t cachedArtifacts() const { return cache.published(); }

    /** Drop all cached artifacts (tests). */
    void clearCache();

  private:
    /** A published cache entry: the artifact plus the checksum taken
     * when it was published, re-verified on every hit. */
    struct CachedArtifact
    {
        OperatorArtifact art;
        uint64_t checksum = 0;
    };

    /** Deterministic page plan: initial assignment plus a reserved
     * promotion target per operator (-1 when none is free). */
    struct PagePlan
    {
        std::vector<int> page;
        std::vector<int> promo;
    };

    /**
     * The fault-tolerant page compile: run the retry ladder until an
     * attempt succeeds or the softcore fallback completes. Throws
     * only for mid-compile exceptions; every routing/timing failure
     * is handled by climbing the ladder.
     */
    std::shared_ptr<OperatorArtifact>
    compileHwLadder(const ir::OperatorFn &fn, int page_id,
                    int promo_page, double effort, int generation);

    /** One backend attempt with explicit knobs (a ladder rung). */
    std::shared_ptr<OperatorArtifact>
    attemptHw(const ir::OperatorFn &fn, int page_id, uint64_t seed,
              double effort, int route_iters, int fault_attempt);

    std::shared_ptr<OperatorArtifact>
    compileSoftcore(const ir::OperatorFn &fn, int page_id);

    /**
     * The artifact for @p fn as @p target on page @p page_id, through
     * the cache: a hit is shared; a miss claims the key, compiles (HW:
     * the retry ladder with promotion target @p promo_page; RISCV: the
     * softcore), checksums and publishes. Corrupt entries, and
     * degraded ones below @p effort, are re-claimed. A throwing
     * compile (an injected `throw` fault included) fails the claim,
     * so one waiter re-claims, and the exception propagates.
     * @p from_cache (optional) reports a hit.
     */
    std::shared_ptr<const OperatorArtifact>
    artifact(const ir::OperatorFn &fn, ir::Target target, int page_id,
             int promo_page, double effort, bool *from_cache = nullptr);

    /** With keepOldVersions off: make @p key, just published, the
     * cached version of @p fn's (name, target, page) and evict the
     * version it replaces. */
    void supersede(const ir::OperatorFn &fn, ir::Target target,
                   int page_id, uint64_t key);

    /** Deterministic first-fit page assignment + promotion reserves. */
    PagePlan assignPages(const ir::Graph &g, OptLevel level) const;

    const fabric::Device &dev;
    CompileOptions opts;
    FaultInjector injector;
    SingleFlight<CachedArtifact> cache;
    CacheStats cache_stats;
    /** keepOldVersions off: the cache key of the version published
     * last, per (operator name, target, page). */
    std::mutex newestMtx;
    std::unordered_map<uint64_t, uint64_t> newest;
};

} // namespace flow
} // namespace pld

#endif // PLD_PLD_COMPILER_H
