#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace pld {

namespace {

unsigned
configuredTotal()
{
    if (const char *e = std::getenv("PLD_THREADS")) {
        long v = std::strtol(e, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 4;
}

/** Free slots: the total less the outermost caller's own thread.
 * Exact requests may drive this negative. */
std::atomic<long long> &
freeSlots()
{
    static std::atomic<long long> slots{
        static_cast<long long>(ThreadBudget::total()) - 1};
    return slots;
}

} // namespace

unsigned
parallelFor(size_t n, unsigned threads,
            const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return 0;
    // Lease the workers beyond the caller: an exact request takes
    // them even from an exhausted budget, auto only what is free.
    auto &slots = freeSlots();
    long long want = static_cast<long long>(
        std::min<size_t>(n, threads ? threads : n) - 1);
    long long cur = slots.load(std::memory_order_relaxed), workers;
    do {
        workers = threads ? want : std::clamp(cur, 0ll, want);
    } while (!slots.compare_exchange_weak(cur, cur - workers,
                                          std::memory_order_relaxed));

    std::atomic<size_t> next{0};
    std::mutex mtx;
    std::exception_ptr error;
    auto drain = [&] {
        try {
            for (size_t i = next++; i < n; i = next++)
                fn(i);
        } catch (...) {
            next.store(n);
            std::lock_guard<std::mutex> lk(mtx);
            if (!error)
                error = std::current_exception();
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    try {
        for (long long w = 0; w < workers; ++w)
            pool.emplace_back(drain);
    } catch (const std::system_error &) {
        // Out of threads: results never depend on the thread count,
        // so finish on the ones that started.
    }
    drain();
    for (auto &t : pool)
        t.join();
    slots.fetch_add(workers, std::memory_order_relaxed);
    if (error)
        std::rethrow_exception(error);
    return static_cast<unsigned>(pool.size()) + 1;
}

unsigned
ThreadBudget::total()
{
    static unsigned t = configuredTotal();
    return t;
}

unsigned
ThreadBudget::available()
{
    long long cur = freeSlots().load(std::memory_order_relaxed);
    return cur > 0 ? static_cast<unsigned>(cur) : 0;
}

} // namespace pld
