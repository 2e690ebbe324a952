/**
 * @file
 * Structured compile diagnostics: the error model of the compile
 * pipeline.
 *
 * Every stage (HLS, synthesis, place, route, timing, bitgen, the
 * artifact cache, and linking) reports outcomes as Diagnostics
 * instead of free-form warnings, so the compile manager can decide
 * per failure whether to retry, escalate, degrade, or give up — and
 * the build report can say exactly what happened. A Diagnostic is a
 * value, not a log line: it carries the failing stage, the operator
 * and page it concerns, and whether a retry could plausibly change
 * the outcome (routing congestion: yes; an operator that exceeds
 * every page type: no).
 */

#ifndef PLD_COMMON_DIAG_H
#define PLD_COMMON_DIAG_H

#include <stdexcept>
#include <string>
#include <vector>

namespace pld {

/** Pipeline stage a diagnostic originates from. */
enum class CompileStage : uint8_t {
    Hls,
    Synth,
    Place,
    Route,
    Timing,
    Bitgen,
    Cache,
    Link,
    /** Fault-injection plan handling (PLD_FAULT parsing). */
    Fault,
    /** Runtime hot-swap engine (request queueing / execution). */
    Swap,
    /** Multi-tenant scheduler (admission, eviction, fault domains). */
    Tenancy,
};

const char *compileStageName(CompileStage s);

/** Outcome codes for one compile step or one whole operator. */
enum class CompileCode : uint8_t {
    Ok,
    /** Router finished with overused tiles (congestion). */
    RouteInfeasible,
    /** Achieved Fmax below the required clock. */
    TimingMiss,
    /** Placer could not fit the netlist into the region. */
    PlaceInfeasible,
    /** Cached artifact failed its checksum. */
    CacheCorrupt,
    /** The compiling thread threw mid-compile. */
    CompileException,
    /** Operator exceeds every available page type. */
    DoesNotFit,
    /** Malformed or unknown PLD_FAULT spec entry. */
    FaultSpecInvalid,
    /** Hot-swap request refused at queueing time (full queue,
     * duplicate target, unknown or quarantined page). */
    SwapRejected,
    /** Tenant or request refused by multi-tenant admission control. */
    AdmissionRejected,
    /** Tenant exhausted its fault retry budget and was evicted. */
    TenantFaulted,
    /** Durable-store or wire I/O failed (short write, ENOSPC, EIO,
     * rename failure). The daemon degrades instead of dying. */
    IoError,
    /** A client-side send/recv deadline expired (hung or restarting
     * daemon). Always retriable. */
    DeadlineExceeded,
};

const char *compileCodeName(CompileCode c);

/** Whether a retry (more effort / new seed / bigger page) could
 * plausibly turn this code into Ok. */
bool compileCodeRetriable(CompileCode c);

enum class DiagSeverity : uint8_t { Info, Warning, Error };

const char *diagSeverityName(DiagSeverity s);

/** One structured compile event. */
struct Diagnostic
{
    CompileCode code = CompileCode::Ok;
    CompileStage stage = CompileStage::Hls;
    DiagSeverity severity = DiagSeverity::Info;
    /** Operator concerned; empty for whole-build events. */
    std::string op;
    /** Page concerned; -1 when not page-specific. */
    int page = -1;
    bool retriable = false;
    std::string detail;

    /** "[error] route s1@page7: routing left 3 overused tiles". */
    std::string render() const;
};

/**
 * Accumulated diagnostics of one compile step / operator / build.
 * ok() is false iff any Error-severity diagnostic is present, so a
 * failed stage cannot be ignored by forgetting to check a flag
 * buried in a result struct.
 */
struct CompileStatus
{
    std::vector<Diagnostic> diags;

    bool ok() const;
    /** First Error diagnostic's code, or Ok. */
    CompileCode firstError() const;
    void add(Diagnostic d);
    /** Append all of @p o's diagnostics. */
    void merge(const CompileStatus &o);
    std::string render() const;
};

/**
 * Exception carrying a Diagnostic across the compile pipeline. Thrown
 * for mid-compile failures (including injected ones); the artifact
 * cache fails the compile's claim on it so waiters never hang.
 */
class CompileError : public std::runtime_error
{
  public:
    explicit CompileError(Diagnostic d)
        : std::runtime_error(d.render()), diag_(std::move(d))
    {
    }

    const Diagnostic &diag() const { return diag_; }

  private:
    Diagnostic diag_;
};

} // namespace pld

#endif // PLD_COMMON_DIAG_H
