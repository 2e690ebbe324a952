/**
 * @file
 * One fork-join primitive, parallelFor, plus the process-wide thread
 * budget it leases workers from.
 *
 * The PLD -O1 flow compiles independent pages concurrently (paper
 * Sec 6.2: "All the operators' compilations can be performed in
 * parallel"); that fan-out in PldCompiler::build is the one
 * parallelFor call. Place-and-route inside each page compile runs on
 * the thread that compiles the page. The ThreadBudget keeps builds
 * that run at the same time (a daemon serving several clients) from
 * oversubscribing the machine: the outermost caller counts as one
 * busy thread and every worker is leased from the shared budget, so
 * the total number of busy threads stays near the hardware
 * concurrency.
 */

#ifndef PLD_COMMON_THREAD_POOL_H
#define PLD_COMMON_THREAD_POOL_H

#include <cstddef>
#include <functional>

namespace pld {

/**
 * Run fn(i) for every i in [0, n) on the calling thread plus workers
 * leased from the ThreadBudget, and return once all have finished.
 *
 *  - @p threads = 0 ("auto") adds as many workers as the budget has
 *    free, up to n - 1, so a nested call inside a run that holds the
 *    whole budget degrades to the caller alone;
 *  - @p threads = N runs exactly min(N, n) threads, even when the
 *    budget is exhausted (explicit requests from benchmarks and
 *    tests must get what they asked for).
 *
 * Items are claimed one at a time in index order; which thread runs
 * an item is scheduling, so fn must write only state owned by item
 * i. If fn throws, the remaining items are skipped and the first
 * exception is rethrown to the caller once every thread has stopped.
 *
 * @return the threads that took part, the caller included (0 when
 *         n = 0).
 */
unsigned parallelFor(size_t n, unsigned threads,
                     const std::function<void(size_t)> &fn);

/**
 * Process-wide parallelism budget shared by every parallelFor. It
 * holds total() slots, one of them taken from the start by the
 * outermost caller; parallelFor leases the rest as workers.
 */
class ThreadBudget
{
  public:
    /** Total budget: PLD_THREADS env override, else hardware. */
    static unsigned total();

    /** Slots no running parallelFor holds (telemetry/tests). */
    static unsigned available();
};

} // namespace pld

#endif // PLD_COMMON_THREAD_POOL_H
