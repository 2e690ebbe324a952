/**
 * @file
 * Resumable operator interpreter.
 *
 * Executes an operator, lowered once into a Program, against
 * StreamPorts with Kahn-network semantics: a statement that needs
 * stream data (or output space) that is not available returns Blocked
 * without side effects, and the scheduler may resume the operator
 * later. Statement execution is atomic, which together with the
 * validator's one-read-per-statement rule makes blocking behaviour
 * identical across all PLD targets.
 *
 * The interpreter is the single functional engine of the
 * reproduction; the timed HW-page model and the "X86 native" baseline
 * both wrap it, and the RV32 softcore results are cross-checked
 * against it.
 */

#ifndef PLD_INTERP_EXEC_H
#define PLD_INTERP_EXEC_H

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dataflow/stream.h"
#include "interp/program.h"

namespace pld {
namespace interp {

/** Why a run() call returned. */
enum class RunStatus {
    Done,           ///< operator body finished
    BlockedOnRead,  ///< a needed input stream is empty
    BlockedOnWrite, ///< a needed output stream is full
    Budget,         ///< statement budget exhausted; call run() again
};

/** Execution counters for the timing models. */
struct ExecStats
{
    uint64_t statements = 0;
    uint64_t computeOps = 0; ///< arith/logic/select node evaluations
    uint64_t streamReads = 0;
    uint64_t streamWrites = 0;
    uint64_t memOps = 0; ///< array loads + stores
};

/**
 * One operator execution context: the mutable state of one run of a
 * Program. Ports are supplied by the caller and indexed exactly like
 * OperatorFn::ports.
 */
class OperatorExec
{
  public:
    /** Lower @p fn into this executor's Program. */
    OperatorExec(const ir::OperatorFn &fn,
                 std::vector<dataflow::StreamPort *> ports);
    /** code, nodes, reads and arrayData point into members. */
    OperatorExec(const OperatorExec &) = delete;
    OperatorExec &operator=(const OperatorExec &) = delete;

    /**
     * Execute until done, blocked, or @p max_statements steps: one
     * step per statement and per end-of-body entry (Program).
     * Resumable: call again after a Blocked/Budget return.
     */
    RunStatus run(uint64_t max_statements =
                      std::numeric_limits<uint64_t>::max());

    /** True once the body has completed. */
    bool done() const { return pc == endPc; }

    /**
     * The stream the last Blocked run() waits on; its direction is
     * the status run() returned. It stays blocked until that stream
     * can fire.
     */
    int blockedStream() const { return blockedPort; }

    /** Reset to the initial state (ROMs reloaded, scalars zeroed). */
    void reset();

    const ExecStats &stats() const { return stats_; }

    /** Enable Print statements (the -O0 / debug experience). */
    void setPrintsEnabled(bool on) { printsEnabled = on; }

    /** Lines produced by Print statements when enabled. */
    const std::vector<std::string> &printLog() const { return prints; }

  private:
    int64_t eval(uint32_t node);
    int64_t operand(uint32_t node);

    const Program prog;
    /** prog's tables, cached for the step loop. */
    const Insn *const code;
    const Node *const nodes;
    const int32_t *const reads;
    const uint32_t endPc;

    std::vector<dataflow::StreamPort *> ports;
    std::vector<int64_t> vars;
    /** Per array: this executor's copy when a statement stores to it
     * (empty otherwise), and where reads look. */
    std::vector<std::vector<int64_t>> owned;
    std::vector<const int64_t *> arrayData;
    /** Index of the next Program entry to run. */
    uint32_t pc = 0;
    int blockedPort = -1;
    bool printsEnabled = false;
    ExecStats stats_;
    std::vector<std::string> prints;
};

} // namespace interp
} // namespace pld

#endif // PLD_INTERP_EXEC_H
