/**
 * @file
 * Latency-insensitive stream links (paper Sec 3.2).
 *
 * Streams act like FIFOs with data presence: reads from empty streams
 * block, writes to full streams stall the producer (backpressure).
 * Every execution substrate (interpreter, HLS page model, RV32
 * softcore, NoC leaf interface, DMA engine) talks to the same
 * StreamPort interface, which is what makes operators free to migrate
 * between implementations without functional change.
 */

#ifndef PLD_DATAFLOW_STREAM_H
#define PLD_DATAFLOW_STREAM_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"

namespace pld {
namespace dataflow {

/** Occupancy and stall statistics for one FIFO. */
struct FifoStats
{
    uint64_t pushes = 0;
    uint64_t pops = 0;
    uint64_t maxOccupancy = 0;
};

/**
 * A bounded FIFO of 32-bit words: the physical embodiment of one
 * latency-insensitive link. Capacity 0 means unbounded (used by the
 * pure-functional runtime where buffering is immaterial).
 *
 * Storage is a power-of-two ring allocated on the first push and
 * doubled when full, so a FIFO that never carries a word (most NoC
 * leaf ports) costs no heap.
 */
class WordFifo
{
  public:
    explicit WordFifo(size_t capacity = 0) : cap(capacity) {}

    bool
    canPush() const
    {
        return cap == 0 || count < cap;
    }
    bool canPop() const { return count != 0; }
    size_t size() const { return count; }
    size_t capacity() const { return cap; }

    void
    push(uint32_t w)
    {
        pld_assert(canPush(), "push to full FIFO");
        if (count == ring.size())
            grow();
        ring[(head + count) & (ring.size() - 1)] = w;
        ++count;
        ++stats_.pushes;
        if (count > stats_.maxOccupancy)
            stats_.maxOccupancy = count;
    }

    uint32_t
    pop()
    {
        pld_assert(canPop(), "pop from empty FIFO");
        uint32_t w = ring[head];
        head = (head + 1) & (ring.size() - 1);
        --count;
        ++stats_.pops;
        return w;
    }

    uint32_t
    front() const
    {
        pld_assert(canPop(), "front of empty FIFO");
        return ring[head];
    }

    const FifoStats &stats() const { return stats_; }

  private:
    /** Double the ring, moving the words to its start in order. */
    void
    grow()
    {
        std::vector<uint32_t> next(std::max<size_t>(4, ring.size() * 2));
        for (size_t i = 0; i < count; ++i)
            next[i] = ring[(head + i) & (ring.size() - 1)];
        ring.swap(next);
        head = 0;
    }

    std::vector<uint32_t> ring; ///< power-of-two size, or empty
    size_t head = 0;            ///< index of the oldest word
    size_t count = 0;
    size_t cap;
    FifoStats stats_;
};

/**
 * Abstract stream endpoint as seen by an operator implementation.
 * Concrete ports wrap a FIFO directly (monolithic/-O3 designs), a NoC
 * leaf interface (-O1 overlay), or softcore MMIO registers (-O0).
 */
class StreamPort
{
  public:
    virtual ~StreamPort() = default;

    /** Data available to read this instant? */
    virtual bool canRead() const = 0;
    /** Space available to write this instant? */
    virtual bool canWrite() const = 0;
    /** Pop one word; only legal when canRead(). */
    virtual uint32_t read() = 0;
    /** Push one word; only legal when canWrite(). */
    virtual void write(uint32_t w) = 0;
};

/** StreamPort reading the downstream end of a FIFO. */
class FifoReadPort : public StreamPort
{
  public:
    explicit FifoReadPort(WordFifo &fifo) : fifo(fifo) {}

    bool canRead() const override { return fifo.canPop(); }
    bool canWrite() const override { return false; }
    uint32_t read() override { return fifo.pop(); }
    void write(uint32_t) override { pld_panic("write to read port"); }

  private:
    WordFifo &fifo;
};

/** StreamPort writing the upstream end of a FIFO. */
class FifoWritePort : public StreamPort
{
  public:
    explicit FifoWritePort(WordFifo &fifo) : fifo(fifo) {}

    bool canRead() const override { return false; }
    bool canWrite() const override { return fifo.canPush(); }
    uint32_t read() override { pld_panic("read from write port"); }
    void write(uint32_t w) override { fifo.push(w); }

  private:
    WordFifo &fifo;
};

} // namespace dataflow
} // namespace pld

#endif // PLD_DATAFLOW_STREAM_H
