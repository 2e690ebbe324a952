#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

using pld::parallelFor;
using pld::ThreadBudget;

namespace {

/**
 * Block until @p want threads are inside at once (or 10 s pass), and
 * return the peak seen. Every thread of an exact run must arrive, so
 * a run that serialised its items would stall here and report 1.
 */
unsigned
meetAll(std::atomic<unsigned> &inside, std::atomic<unsigned> &peak,
        unsigned want)
{
    unsigned now = inside.fetch_add(1) + 1;
    unsigned p = peak.load();
    while (now > p && !peak.compare_exchange_weak(p, now)) {}
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (peak.load() < want &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    inside.fetch_sub(1);
    return peak.load();
}

} // namespace

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 4u, 0u}) {
        std::vector<std::atomic<int>> hits(1000);
        unsigned ran = parallelFor(
            hits.size(), threads,
            [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "index " << i << " threads " << threads;
        EXPECT_EQ(ran, threads ? threads : ThreadBudget::total());
    }
}

TEST(ParallelFor, ZeroItemsRunNothing)
{
    std::atomic<int> calls{0};
    for (unsigned threads : {1u, 4u, 0u}) {
        EXPECT_EQ(parallelFor(0, threads,
                              [&](size_t) { calls.fetch_add(1); }),
                  0u);
    }
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, ExactCountRunsInParallel)
{
    // Each item waits for all four threads to be inside at once, so
    // this only finishes quickly if four threads really run.
    std::atomic<unsigned> inside{0}, peak{0};
    EXPECT_EQ(parallelFor(4, 4,
                          [&](size_t) { meetAll(inside, peak, 4); }),
              4u);
    EXPECT_EQ(peak.load(), 4u);
    // An exact request never runs more threads than items.
    EXPECT_EQ(parallelFor(3, 8, [](size_t) {}), 3u);
}

TEST(ParallelFor, AutoTakesTheFreeBudget)
{
    // At rest the outermost caller holds one slot and the rest are
    // free, so auto runs on as many threads as the budget allows.
    unsigned total = ThreadBudget::total();
    EXPECT_EQ(ThreadBudget::available(), total - 1);
    EXPECT_EQ(parallelFor(64, 0, [](size_t) {}), total);
    EXPECT_EQ(parallelFor(1, 0, [](size_t) {}), 1u);
}

TEST(ParallelFor, AutoInsideFullBudgetRunsOnCaller)
{
    // An auto run at rest leases every free slot; a nested auto run
    // inside it must then stay on its caller instead of
    // oversubscribing.
    unsigned total = ThreadBudget::total();
    std::atomic<unsigned> free_inside{~0u}, nested{0};
    unsigned outer = parallelFor(total, 0, [&](size_t i) {
        if (i != 0)
            return;
        free_inside = ThreadBudget::available();
        nested = parallelFor(8, 0, [](size_t) {});
    });
    EXPECT_EQ(outer, total);
    EXPECT_EQ(free_inside.load(), 0u);
    EXPECT_EQ(nested.load(), 1u);
}

TEST(ParallelFor, ExactCountGrantedWhenBudgetExhausted)
{
    // Explicit thread counts are honoured even with the budget gone.
    unsigned total = ThreadBudget::total();
    std::atomic<unsigned> nested{0}, peak{0};
    parallelFor(total, 0, [&](size_t i) {
        if (i != 0)
            return;
        std::atomic<unsigned> inside{0};
        nested = parallelFor(3, 3, [&](size_t) {
            meetAll(inside, peak, 3);
        });
    });
    EXPECT_EQ(nested.load(), 3u);
    EXPECT_EQ(peak.load(), 3u);
}

TEST(ParallelFor, ReturnsTheWholeBudget)
{
    unsigned before = ThreadBudget::available();
    for (unsigned threads : {1u, 2u, 4u, 0u}) {
        parallelFor(16, threads, [](size_t) {});
        EXPECT_EQ(ThreadBudget::available(), before)
            << "threads " << threads;
    }
    // Nested runs, exact runs past the budget and a throwing run all
    // hand their slots back too.
    parallelFor(4, 0, [](size_t) { parallelFor(4, 4, [](size_t) {}); });
    EXPECT_EQ(ThreadBudget::available(), before);
    EXPECT_THROW(parallelFor(8, 4,
                             [](size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("item 5");
                             }),
                 std::runtime_error);
    EXPECT_EQ(ThreadBudget::available(), before);
}

TEST(ParallelFor, RethrowsTheFirstExceptionAfterJoining)
{
    std::atomic<int> finished{0};
    try {
        parallelFor(64, 4, [&](size_t i) {
            if (i == 3)
                throw std::runtime_error("item 3");
            finished.fetch_add(1);
        });
        FAIL() << "exception was swallowed";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "item 3");
    }
    // Every thread has stopped: nothing runs after the rethrow.
    int after = finished.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(finished.load(), after);
}
