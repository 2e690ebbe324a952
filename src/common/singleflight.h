/**
 * @file
 * A sharded, keyed single-flight table: per key, one caller at a time
 * produces the value and every other caller asking for that key
 * blocks and shares what it publishes. It is the separate-compilation
 * rule (paper Sec 1: an unchanged operator is never compiled again)
 * with two owners: flow::PldCompiler's artifact cache keeps published
 * values until cleared or evicted (the daemon's compilers evict an
 * operator's older version when a newer one is published); and
 * svc::CompileService's request coalescer retires a key as soon as no
 * request holds or awaits it. The daemon's results already live in
 * its on-disk store.
 *
 * Contract:
 *  - acquire(key) returns a published value or the claim on the key.
 *    Lookup and join happen under one lock, so a joiner never finds
 *    its entry gone and never re-claims by mistake.
 *  - A claim dropped without publish() — e.g. unwound by an exception
 *    — fails: one blocked caller re-claims, the rest keep waiting.
 *  - Every claim takes the key's next generation; generations survive
 *    failures and re-claims while the key is retained. The one
 *    exception is the first claim after evict(): it reuses the
 *    generation that produced the evicted value, so a producer that
 *    is a function of (key, generation) publishes the same value
 *    again.
 *  - A published value failing the caller's reuse check is dropped
 *    and re-claimed at the next generation while concurrent callers
 *    wait for the replacement.
 */

#ifndef PLD_COMMON_SINGLEFLIGHT_H
#define PLD_COMMON_SINGLEFLIGHT_H

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.h"

namespace pld {

template <typename T> class SingleFlight
{
  public:
    using Value = std::shared_ptr<const T>;

    enum class Retention : uint8_t
    {
        /** Values stay until clear() or evict(), generations until
         * clear(). */
        Keep,
        Retire, ///< a key is dropped once no caller holds or awaits it
    };

    explicit SingleFlight(Retention retention = Retention::Keep)
        : retention(retention)
    {
    }

    /** One caller's outcome for one key: a shared value or the claim. */
    class Flight
    {
      public:
        ~Flight()
        {
            if (table)
                table->close(key, nullptr, gen);
        }
        Flight(const Flight &) = delete;
        Flight &operator=(const Flight &) = delete;

        /** The shared value; null when this caller holds the claim. */
        const Value &value() const { return shared; }
        bool claimed() const { return shared == nullptr; }
        /** This claim's ordinal for the key (claims only). */
        int generation() const { return gen; }
        /** True when this caller blocked on another caller's claim. */
        bool waited() const { return blocked; }

        /** Complete the claim: every waiter receives @p v. */
        void
        publish(Value v)
        {
            pld_assert(table && v, "publish needs an open claim");
            table->close(key, std::move(v), gen);
            table = nullptr;
        }

      private:
        friend class SingleFlight;
        Flight(SingleFlight *table, uint64_t key, Value shared, int gen,
               bool blocked)
            : table(table), key(key), shared(std::move(shared)),
              gen(gen), blocked(blocked)
        {
        }

        SingleFlight *table; ///< non-null while the claim is open
        uint64_t key;
        Value shared;
        int gen;
        bool blocked;
    };

    /**
     * Share @p key's published value or claim the key. A value for
     * which @p reusable returns false is dropped and re-claimed;
     * @p reusable runs under the shard lock and must not throw.
     */
    Flight
    acquire(uint64_t key,
            const std::function<bool(const T &)> &reusable = nullptr)
    {
        Shard &sh = shards[key % kShards];
        std::unique_lock<std::mutex> lk(sh.mtx);
        auto it = sh.map.try_emplace(key).first;
        Entry &e = it->second;
        ++e.holders; // while waiting too, so the entry outlives us
        bool waited = false;
        for (;;) {
            if (e.value && (!reusable || reusable(*e.value))) {
                Value v = e.value;
                release(sh, it);
                return Flight(nullptr, key, std::move(v), -1, waited);
            }
            e.value.reset();
            if (!e.inflight) {
                e.inflight = true;
                const int gen = e.replay >= 0
                                    ? std::exchange(e.replay, -1)
                                    : e.generation++;
                return Flight(this, key, nullptr, gen, waited);
            }
            waited = true;
            sh.cv.wait(lk);
        }
    }

    /** Drop every key no caller holds or awaits (tests). */
    void
    clear()
    {
        for (Shard &sh : shards) {
            std::lock_guard<std::mutex> lk(sh.mtx);
            std::erase_if(sh.map,
                          [](const auto &kv) { return !kv.second.holders; });
        }
    }

    /**
     * Drop @p key's published value but keep its entry: the next
     * claim reuses the generation that produced the value. Callers
     * still holding the value keep it.
     */
    void
    evict(uint64_t key)
    {
        Shard &sh = shards[key % kShards];
        std::lock_guard<std::mutex> lk(sh.mtx);
        auto it = sh.map.find(key);
        if (it == sh.map.end() || !it->second.value)
            return;
        it->second.value.reset();
        it->second.replay = it->second.valueGeneration;
    }

    /** Keys holding a published value. */
    size_t
    published() const
    {
        size_t n = 0;
        for (const Shard &sh : shards) {
            std::lock_guard<std::mutex> lk(sh.mtx);
            for (const auto &kv : sh.map)
                n += kv.second.value != nullptr;
        }
        return n;
    }

    /** Callers holding the claim on, or blocked waiting for, @p key. */
    int
    holders(uint64_t key) const
    {
        const Shard &sh = shards[key % kShards];
        std::lock_guard<std::mutex> lk(sh.mtx);
        auto it = sh.map.find(key);
        return it == sh.map.end() ? 0 : it->second.holders;
    }

  private:
    struct Entry
    {
        Value value;
        int valueGeneration = 0; ///< the claim that published value
        int replay = -1;         ///< an evicted value's generation
        bool inflight = false;   ///< a claim is open
        int generation = 0;      ///< claims so far, replays excepted
        int holders = 0;         ///< open claim + blocked waiters
    };
    using Map = std::map<uint64_t, Entry>;
    struct Shard
    {
        mutable std::mutex mtx;
        std::condition_variable cv;
        Map map;
    };
    static constexpr size_t kShards = 16;

    void
    release(Shard &sh, typename Map::iterator it)
    {
        if (--it->second.holders == 0 &&
            retention == Retention::Retire)
            sh.map.erase(it);
    }

    /** Close claim @p gen on @p key: publish @p v, or fail when null. */
    void
    close(uint64_t key, Value v, int gen)
    {
        Shard &sh = shards[key % kShards];
        {
            std::lock_guard<std::mutex> lk(sh.mtx);
            auto it = sh.map.find(key);
            it->second.inflight = false;
            it->second.value = std::move(v);
            it->second.valueGeneration = gen;
            release(sh, it);
        }
        // On a publish every waiter shares the value; on a failure the
        // first to relock re-claims and the rest wait again.
        sh.cv.notify_all();
    }

    const Retention retention;
    std::array<Shard, kShards> shards;
};

} // namespace pld

#endif // PLD_COMMON_SINGLEFLIGHT_H
