/**
 * @file
 * Resumable operator interpreter.
 *
 * Executes an OperatorFn against StreamPorts with Kahn-network
 * semantics: a statement that needs stream data (or output space) that
 * is not available returns Blocked without side effects, and the
 * scheduler may resume the operator later. Statement execution is
 * atomic, which together with the validator's one-read-per-statement
 * rule makes blocking behaviour identical across all PLD targets.
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
#include "ir/operator_fn.h"

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
 * One operator execution context. Ports are supplied by the caller
 * and indexed exactly like OperatorFn::ports.
 */
class OperatorExec
{
  public:
    OperatorExec(const ir::OperatorFn &fn,
                 std::vector<dataflow::StreamPort *> ports);

    /**
     * Execute until done, blocked, or @p max_statements executed.
     * Resumable: call again after a Blocked/Budget return.
     */
    RunStatus run(uint64_t max_statements =
                      std::numeric_limits<uint64_t>::max());

    /** True once the body has completed. */
    bool done() const { return frames.empty() && started; }

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

    const ir::OperatorFn &fn() const { return fnRef; }

  private:
    struct Frame
    {
        const std::vector<ir::StmtPtr> *stmts;
        size_t idx = 0;
        /** For/While statement owning this body frame, else null. */
        const ir::Stmt *owner = nullptr;
    };

    /** Dispatch the statement at the top frame. */
    RunStatus step();

    /**
     * Availability: can every stream op in @p s fire right now? When
     * not, returns the blocked direction and sets @p port to the
     * stream that blocks it.
     */
    RunStatus streamsReady(const ir::Stmt &s, int &port) const;
    /** Index of the first stream read in @p e that cannot fire, or
     * -1 when all can. */
    int blockedRead(const ir::ExprPtr &e) const;

    int64_t evalExpr(const ir::ExprPtr &e);

    /** Wrap a 64-bit exact value with scale src_frac to type t. */
    static int64_t quantizeTo(int64_t v, int src_frac,
                              const ir::Type &t);

    /** Handle frame exhaustion (loop back-edges, pops). */
    void retireFrame();

    const ir::OperatorFn &fnRef;
    std::vector<dataflow::StreamPort *> ports;
    std::vector<int64_t> vars;
    std::vector<std::vector<int64_t>> arrays;
    std::vector<Frame> frames;
    /**
     * The stream that blocked the current statement, and in which
     * direction (BlockedOnRead/BlockedOnWrite); -1 when the statement
     * is not known to be blocked. While that stream still cannot fire,
     * step() returns the same status without re-walking the statement
     * (DESIGN.md §2, "Activity-driven stepping").
     */
    int blockedPort = -1;
    RunStatus blockedOn = RunStatus::Done;
    bool started = false;
    bool printsEnabled = false;
    ExecStats stats_;
    std::vector<std::string> prints;
};

} // namespace interp
} // namespace pld

#endif // PLD_INTERP_EXEC_H
