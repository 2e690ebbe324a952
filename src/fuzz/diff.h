/**
 * @file
 * Differential executor for pldfuzz: one generated case, four
 * backends, word-for-word comparison.
 *
 * The golden model is the functional Kahn runtime (interpreter per
 * operator, plain FIFOs, no timing). Against it we check:
 *
 *  - the HLS page path: SystemSim with HW bindings whose cyclesPerOp
 *    comes from the real HLS schedule (-O1 timed model, NoC or direct
 *    links),
 *  - the softcore -O0 path: rvgen -O0 binaries on the RV32 ISS,
 *    either a bare Core for single-operator cases or SystemSim
 *    softcore pages for multi-operator graphs, and
 *  - the softcore -Os path: the same graph through the optimizing
 *    rvgen tier (isel + peephole + linear-scan regalloc), run the
 *    same way — so every fuzz iteration cross-checks both codegen
 *    tiers word-for-word against the interpreter and each other.
 *
 * Beyond plain output equality, the harness checks two compiler-level
 * properties from the paper's fault-tolerance story: build
 * determinism (parallelJobs 1 vs N with the same seed produce
 * identical reports and identical run results) and fault-ladder
 * equivalence (artifacts produced at every retry-ladder rung — extra
 * effort, fresh seed, page promotion, softcore fallback — all compute
 * the same outputs).
 */

#ifndef PLD_FUZZ_DIFF_H
#define PLD_FUZZ_DIFF_H

#include <functional>
#include <string>
#include <vector>

#include "dataflow/stream.h"
#include "fuzz/gen.h"
#include "fuzz/mutate.h"

namespace pld {
namespace fuzz {

enum class DiffStatus
{
    Pass,
    Mismatch, ///< a backend's outputs differ from the golden model
    Hang,     ///< deadlock / budget exhausted on some backend
    Invalid,  ///< generated case failed validation (generator bug)
};

const char *diffStatusName(DiffStatus s);

struct DiffOptions
{
    /** Run the timed system simulator (HW pages) backend. */
    bool runSys = true;
    /** Run the softcore -O0 (rvgen + ISS) backend. */
    bool runIss = true;
    /** Run the softcore -Os (optimizing rvgen tier + ISS) backend. */
    bool runOsIss = true;
    /** Route the system simulator through the NoC overlay. */
    bool sysUseNoc = true;
    uint64_t sysMaxCycles = 20000000ull;
    uint64_t issInstrBudget = 400000000ull;
    /** Intentional bug applied to the softcore path only. */
    InjectedBug bug = InjectedBug::None;
};

struct DiffResult
{
    DiffStatus status = DiffStatus::Pass;
    /** Which backend / stream / word diverged, for repro reports. */
    std::string detail;
    /** Golden outputs, one vector per external output stream. */
    std::vector<std::vector<uint32_t>> golden;

    bool pass() const { return status == DiffStatus::Pass; }
};

/** Run the golden model only. False on validation failure/deadlock. */
bool goldenOutputs(const GenCase &c,
                   std::vector<std::vector<uint32_t>> *out,
                   std::string *why);

/**
 * The single-operator harness: run @p fn on plain unbounded FIFOs.
 * @p inputs holds the words preloaded into each input port, in port
 * order; @p run executes the operator on the port list (indexed like
 * OperatorFn::ports) and says whether it completed; @p outputs then
 * receives each output port's words, in port order.
 */
bool runOnFifos(
    const ir::OperatorFn &fn,
    const std::vector<std::vector<uint32_t>> &inputs,
    const std::function<bool(const std::vector<dataflow::StreamPort *> &)>
        &run,
    std::vector<std::vector<uint32_t>> *outputs);

/** Full differential run of one case. */
DiffResult diffCase(const GenCase &c, const DiffOptions &opts = {});

/**
 * Compile the case at -O1 under injected fault plans that force the
 * page retry ladder through its rungs (reroute, reseed, promotion,
 * softcore fallback) and check every resulting build still computes
 * the golden outputs. @p seed feeds the compiler, not the case.
 */
DiffResult checkFaultLadder(const GenCase &c, uint64_t seed);

/**
 * Build the case twice with the same seed at parallelJobs 1 and 4 and
 * require identical build reports, identical Fmax, and identical run
 * results (deterministic parallel compilation).
 */
DiffResult checkBuildDeterminism(const GenCase &c, uint64_t seed);

} // namespace fuzz
} // namespace pld

#endif // PLD_FUZZ_DIFF_H
