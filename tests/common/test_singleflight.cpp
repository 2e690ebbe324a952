/**
 * The single-flight table behind both the compiler's artifact cache
 * and the daemon's request coalescer: claim/join/publish, failure
 * re-claim (exactly one waiter), generations that survive failures,
 * reuse-check re-claims, and retirement. Waiters are synchronised on
 * holders() — a caller counts as a holder from the moment it joins,
 * under the same lock it blocks with — so no test relies on sleeps.
 * Run under -fsanitize=thread in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/singleflight.h"

using namespace pld;

namespace {

using Table = SingleFlight<int>;

/** Spin until @p n callers hold or await @p key. */
void
awaitHolders(const Table &t, uint64_t key, int n)
{
    while (t.holders(key) < n)
        std::this_thread::yield();
}

} // namespace

TEST(SingleFlight, ClaimJoinPublish)
{
    Table t(Table::Retention::Retire);
    std::thread waiter;
    {
        auto claim = t.acquire(1);
        ASSERT_TRUE(claim.claimed());
        EXPECT_EQ(claim.generation(), 0);
        waiter = std::thread([&] {
            auto f = t.acquire(1);
            ASSERT_FALSE(f.claimed());
            EXPECT_TRUE(f.waited());
            EXPECT_EQ(*f.value(), 42);
        });
        awaitHolders(t, 1, 2);
        claim.publish(std::make_shared<const int>(42));
    }
    waiter.join();
    EXPECT_EQ(t.acquire(1).generation(), 0)
        << "the last consumer retires the key: the next claim is fresh";
}

TEST(SingleFlight, FailureWakesExactlyOneReclaimant)
{
    Table t(Table::Retention::Retire);
    std::atomic<int> reclaims{0}, results{0};
    auto join = [&] {
        auto f = t.acquire(9);
        if (f.claimed()) {
            ++reclaims;
            EXPECT_EQ(f.generation(), 1);
            // The re-claimant finishes the job for everyone else.
            f.publish(std::make_shared<const int>(7));
        } else {
            EXPECT_EQ(*f.value(), 7);
            ++results;
        }
    };
    std::thread w1, w2;
    {
        auto claim = t.acquire(9);
        w1 = std::thread(join);
        w2 = std::thread(join);
        awaitHolders(t, 9, 3);
        // The claimant goes away without a result.
    }
    w1.join();
    w2.join();
    EXPECT_EQ(reclaims.load(), 1) << "exactly one waiter re-claims";
    EXPECT_EQ(results.load(), 1);
    EXPECT_EQ(t.holders(9), 0);
}

TEST(SingleFlight, FailureFiresOnUnwindOnly)
{
    Table t;
    {
        auto f = t.acquire(3);
        ASSERT_TRUE(f.claimed());
        f.publish(std::make_shared<const int>(1));
    }
    {
        auto f = t.acquire(3);
        ASSERT_FALSE(f.claimed()) << "a published claim did not fail";
        EXPECT_EQ(*f.value(), 1);
    }
    EXPECT_THROW(
        {
            auto f = t.acquire(4);
            throw std::runtime_error("compile died");
        },
        std::runtime_error);
    auto f = t.acquire(4);
    EXPECT_TRUE(f.claimed()) << "an unwound claim left no value";
    EXPECT_EQ(f.generation(), 1);

    Table retiring(Table::Retention::Retire);
    retiring.acquire(5);
    EXPECT_EQ(retiring.acquire(5).generation(), 0)
        << "a failed claim with no waiters retires the key";
}

TEST(SingleFlight, DroppedClaimWithoutWaitersKeepsGeneration)
{
    Table t;
    EXPECT_EQ(t.acquire(5).generation(), 0);
    EXPECT_EQ(t.acquire(5).generation(), 1);
    auto f = t.acquire(5);
    EXPECT_EQ(f.generation(), 2);
    f.publish(std::make_shared<const int>(3));
    EXPECT_EQ(*t.acquire(5).value(), 3);
}

TEST(SingleFlight, RejectedValueReclaimedAtNextGenerationWhileWaitersBlock)
{
    constexpr int kWaiters = 8;
    Table t;
    auto fresh = [](const int &v) { return v != 1; };
    {
        auto f = t.acquire(2);
        f.publish(std::make_shared<const int>(1));
    }
    std::vector<std::thread> waiters;
    std::atomic<int> got_new{0};
    {
        auto claim = t.acquire(2, fresh);
        ASSERT_TRUE(claim.claimed()) << "stale value must be re-claimed";
        EXPECT_EQ(claim.generation(), 1);
        for (int i = 0; i < kWaiters; ++i) {
            waiters.emplace_back([&] {
                auto f = t.acquire(2, fresh);
                ASSERT_FALSE(f.claimed());
                EXPECT_TRUE(f.waited());
                got_new += *f.value() == 2;
            });
        }
        awaitHolders(t, 2, 1 + kWaiters);
        claim.publish(std::make_shared<const int>(2));
    }
    for (auto &w : waiters)
        w.join();
    EXPECT_EQ(got_new.load(), kWaiters);
}

TEST(SingleFlight, RetiredKeyStillDeliversToEveryWaiter)
{
    constexpr int kWaiters = 8;
    Table t(Table::Retention::Retire);
    std::vector<std::thread> waiters;
    std::atomic<int> delivered{0};
    {
        auto claim = t.acquire(4);
        for (int i = 0; i < kWaiters; ++i) {
            waiters.emplace_back([&] {
                auto f = t.acquire(4);
                ASSERT_FALSE(f.claimed());
                delivered += *f.value() == 11;
            });
        }
        awaitHolders(t, 4, 1 + kWaiters);
        claim.publish(std::make_shared<const int>(11));
    }
    for (auto &w : waiters)
        w.join();
    EXPECT_EQ(delivered.load(), kWaiters);
    auto next = t.acquire(4);
    EXPECT_TRUE(next.claimed() && next.generation() == 0)
        << "no entry outlives its consumers";
}

TEST(SingleFlight, EvictedValueIsReclaimedAtItsGeneration)
{
    // The daemon's compilers evict an operator's older version. The
    // next claim of that key reuses the generation (a fault
    // coordinate) that produced the evicted value, so the recompile
    // repeats the first compile; a failed claim still moves on.
    Table t;
    {
        auto failed = t.acquire(6);
        ASSERT_TRUE(failed.claimed());
        EXPECT_EQ(failed.generation(), 0);
    }
    {
        auto claim = t.acquire(6);
        ASSERT_TRUE(claim.claimed());
        EXPECT_EQ(claim.generation(), 1);
        claim.publish(std::make_shared<const int>(5));
    }
    Table::Value held = t.acquire(6).value();
    t.evict(6);
    t.evict(7); // no entry: nothing to evict
    EXPECT_EQ(t.published(), 0u);
    ASSERT_TRUE(held);
    EXPECT_EQ(*held, 5) << "a caller holding the value keeps it";
    {
        auto replay = t.acquire(6);
        ASSERT_TRUE(replay.claimed());
        EXPECT_EQ(replay.generation(), 1) << "the evicted value's";
        replay.publish(std::make_shared<const int>(5));
    }
    t.evict(6);
    {
        auto replay = t.acquire(6);
        ASSERT_TRUE(replay.claimed());
        EXPECT_EQ(replay.generation(), 1) << "replays do not advance";
    } // fails
    auto next = t.acquire(6);
    ASSERT_TRUE(next.claimed());
    EXPECT_EQ(next.generation(), 2) << "a failed replay moves on";
}

TEST(SingleFlight, ThrowingFirstClaimFailsOnceAndIsReclaimedOnce)
{
    // Every thread retries until it has a value, the way a client
    // resubmits a failed request. Whatever the interleaving, the
    // first claim fails, one later claim publishes, and everyone else
    // shares that value.
    constexpr int kThreads = 8;
    Table t;
    std::atomic<int> claims{0}, failures{0}, reclaims{0}, shared{0};
    auto work = [&] {
        for (;;) {
            try {
                auto f = t.acquire(6);
                if (!f.claimed()) {
                    EXPECT_EQ(*f.value(), 99);
                    ++shared;
                    return;
                }
                if (claims++ == 0)
                    throw std::runtime_error("injected compile throw");
                EXPECT_EQ(f.generation(), 1);
                ++reclaims;
                f.publish(std::make_shared<const int>(99));
                return;
            } catch (const std::runtime_error &) {
                ++failures;
            }
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i)
        threads.emplace_back(work);
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(failures.load(), 1);
    EXPECT_EQ(reclaims.load(), 1);
    EXPECT_EQ(shared.load(), kThreads - 1);
}
