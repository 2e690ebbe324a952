/**
 * @file
 * Span tracing for the compile pipeline.
 *
 * Every stage of a PLD compile — HLS schedule/emit, synthesis, the
 * annealing placer, PathFinder negotiation iterations, bitstream
 * generation, the artifact cache, the retry ladder, and the
 * cycle-level system simulator — records RAII spans and instant
 * events into per-thread buffers owned by a process-global Tracer.
 * The result exports as Chrome trace-event (catapult) JSON
 * (PLD_TRACE=<file>) plus a machine-readable metrics dump
 * (PLD_METRICS=<file>).
 *
 * Cost model: when no tracer is installed, every entry point is one
 * relaxed atomic load and an early return — spans are a no-op object.
 * Defining PLD_OBS_DISABLE compiles the fast path out entirely.
 *
 * Determinism contract: the *structure* of the span tree (names,
 * categories, args, parent/child shape) and all deterministic counter
 * totals are identical for every PLD_THREADS value; only timestamps,
 * durations, and thread ids vary. Two mechanisms make that hold under
 * parallelFor:
 *
 *  - logical parenting: code that fans work out with parallelFor
 *    captures currentSpan() and passes the token to Span's
 *    explicit-parent constructor, so a span's parent is its logical
 *    caller, not whatever happened to be on the running thread's
 *    stack;
 *  - scheduling-dependent events (which thread wins a cache race,
 *    wait counts) are marked non-structural (category "sched" /
 *    counter prefix "sched.") and excluded from structureHash().
 */

#ifndef PLD_OBS_TRACE_H
#define PLD_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pld {
namespace obs {

/** Event phases (mapped to Chrome trace-event "ph" on export). */
enum class Phase : uint8_t
{
    Span,       ///< complete event ("X": ts + dur)
    Instant,    ///< instant event ("i")
    FlowStart,  ///< flow begin ("s")
    FlowFinish, ///< flow end ("f")
};

/** One preformatted event argument (JSON value + quoting flag). */
struct EventArg
{
    std::string key;
    std::string val;
    bool quoted = true;
};

struct Event
{
    Phase ph = Phase::Span;
    /** Excluded from structureHash() when false; only instants can
     * be non-structural, so such an event is always a leaf. */
    bool structural = true;
    /** Span still open (export before close; should not happen in
     * well-formed runs — the checker flags it). */
    bool open = false;
    const char *cat = "";
    std::string name;
    double tsUs = 0;
    double durUs = 0;
    uint64_t id = 0;     ///< global id: (buffer+1)<<32 | (index+1)
    uint64_t parent = 0; ///< global id of parent span (0 = root)
    uint64_t flowId = 0; ///< correlates FlowStart/FlowFinish pairs
    std::vector<EventArg> args;
};

/** Per-thread event storage; appended only by the owning thread. */
class EventBuffer
{
  public:
    uint32_t id = 0;
    std::vector<Event> events;
    /** Indices of currently-open spans (LIFO by scoping). */
    std::vector<uint32_t> stack;
};

namespace detail {
extern std::atomic<int> g_mode; ///< -1 uninit, 0 off, 1 on
bool slowActive();
} // namespace detail

class Tracer;

/** Is any tracer installed? One relaxed load on the fast path. */
inline bool
active()
{
#ifdef PLD_OBS_DISABLE
    return false;
#else
    int m = detail::g_mode.load(std::memory_order_relaxed);
    if (m >= 0)
        return m != 0;
    return detail::slowActive();
#endif
}

/**
 * The process tracer. Usually installed lazily from the PLD_TRACE /
 * PLD_METRICS environment (files written at process exit), or
 * programmatically via ScopedTracer (tests) / ensureProcessTracer()
 * (benches that want metrics without files).
 */
class Tracer
{
  public:
    Tracer();
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Currently installed tracer (nullptr when tracing is off).
     * Performs the one-time environment check. */
    static Tracer *current();

    /** Install @p t as the process tracer (nullptr = tracing off).
     * Returns the previously installed tracer. Not safe while other
     * threads are recording — install at quiescence. */
    static Tracer *install(Tracer *t);

    MetricsRegistry &metrics() { return registry; }

    /** This thread's buffer (registering it on first use). */
    EventBuffer *buffer();

    /** Microseconds since tracer construction. */
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch)
            .count();
    }

    // ---- analysis / export (call at quiescence only) -------------

    /**
     * Merkle hash of the structural span tree: every structural
     * event hashes (phase, cat, name, args) plus the sorted multiset
     * of its structural children's hashes; non-structural instants
     * are skipped. Timestamps, durations, and thread ids never enter
     * the hash.
     */
    uint64_t structureHash() const;

    void writeChromeTrace(std::ostream &os) const;
    void writeMetricsJson(std::ostream &os) const;

    /** Paths written by flushToFiles() (empty = skip). */
    void setTraceFile(std::string path) { tracePath = std::move(path); }
    void setMetricsFile(std::string path)
    {
        metricsPath = std::move(path);
    }
    void flushToFiles() const;

    /** Flat view of all recorded events (tests). */
    std::vector<const Event *> allEvents() const;

  private:
    friend class Span;

    std::chrono::steady_clock::time_point epoch;
    MetricsRegistry registry;
    mutable std::mutex bufMtx;
    std::vector<std::unique_ptr<EventBuffer>> buffers;
    std::string tracePath;
    std::string metricsPath;

    EventBuffer *registerThread();
};

/** Sentinel: derive the parent from this thread's span stack. */
constexpr uint64_t kAutoParent = ~0ull;

/**
 * Token of the innermost open span on this thread (0 when none or
 * tracing is off). Capture it before fanning work out with
 * parallelFor and pass it to Span's parent argument so logical
 * nesting survives the thread hop.
 */
uint64_t currentSpan();

/**
 * RAII span. Construction stamps the start time and links the parent;
 * destruction stamps the duration — exceptions unwind through it, so
 * a throwing compile still closes every span on the way out.
 */
class Span
{
  public:
    Span(const char *cat, std::string name, uint64_t parent = kAutoParent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach an argument (any time before destruction). */
    Span &arg(const char *key, const std::string &v);
    Span &arg(const char *key, const char *v);
    Span &arg(const char *key, int64_t v);
    Span &arg(const char *key, double v);

    /** Global id for explicit-parent linking (0 when inactive). */
    uint64_t id() const { return gid; }

  private:
    EventBuffer *buf = nullptr;
    Tracer *tracer = nullptr;
    uint32_t idx = 0;
    uint64_t gid = 0;
};

/**
 * Builder for instant/flow events; the event is recorded at
 * construction, args append to it. Use as a temporary:
 *   obs::instant("sys", "dma.in.done").arg("words", n);
 */
class EventRef
{
  public:
    EventRef() = default;
    EventRef(EventBuffer *buf, uint32_t idx) : buf(buf), idx(idx) {}

    EventRef &arg(const char *key, const std::string &v);
    EventRef &arg(const char *key, int64_t v);
    EventRef &arg(const char *key, double v);

  private:
    EventBuffer *buf = nullptr;
    uint32_t idx = 0;
};

EventRef instant(const char *cat, std::string name,
                 bool structural = true);
EventRef flowStart(const char *cat, std::string name, uint64_t flow_id);
EventRef flowFinish(const char *cat, std::string name,
                    uint64_t flow_id);

/** Bump a counter (no-op when tracing is off). Prefix the name with
 * "sched." if its total depends on scheduling or thread count. */
void count(const std::string &name, int64_t delta = 1);

/** Set a gauge (last-write-wins; excluded from determinism). */
void gauge(const std::string &name, double value);

/** Record one sample into a distribution. */
void record(const std::string &name, double value);

/** Begin/end a per-compile metrics window (empty when inactive). */
MetricsRegistry::Window beginWindow();
MetricsSnapshot endWindow(const MetricsRegistry::Window &w);

/**
 * Install a process-lifetime tracer if none is active, so metrics
 * snapshots populate even without PLD_TRACE/PLD_METRICS. Used by the
 * bench harness; writes no files. Returns the active tracer.
 */
Tracer *ensureProcessTracer();

/**
 * Test helper: installs a fresh Tracer for its scope and restores
 * the previous one (usually none) on destruction.
 */
class ScopedTracer
{
  public:
    ScopedTracer() : mine(new Tracer), prev(Tracer::install(mine.get()))
    {
    }
    ~ScopedTracer() { Tracer::install(prev); }

    ScopedTracer(const ScopedTracer &) = delete;
    ScopedTracer &operator=(const ScopedTracer &) = delete;

    Tracer &tracer() { return *mine; }

  private:
    std::unique_ptr<Tracer> mine;
    Tracer *prev;
};

} // namespace obs
} // namespace pld

#endif // PLD_OBS_TRACE_H
