/**
 * @file
 * PicoRV32-timed RV32IM instruction-set simulator.
 *
 * Models the paper's per-page softcore (Sec 5.1): a small,
 * unpipelined RV32IM core with a unified instruction/data memory (at
 * most 192 KB) and memory-mapped stream ports wired to the page's
 * leaf interface. Loads from an empty stream and stores to a full
 * stream stall the core without side effects, which implements the
 * blocking latency-insensitive semantics in hardware-equivalent form.
 *
 * Cycle costs approximate PicoRV32 (a slow, unpipelined core — the
 * paper notes performance "can easily be improved by replacing it
 * with a higher frequency, pipelined softcore").
 */

#ifndef PLD_RV32_ISS_H
#define PLD_RV32_ISS_H

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/stream.h"
#include "rv32/elf.h"

namespace pld {
namespace rv32 {

/** Why step() returned. */
enum class CoreStatus {
    Running,        ///< instruction budget exhausted
    BlockedOnRead,  ///< stalled on an empty input stream
    BlockedOnWrite, ///< stalled on a full output stream
    Halted,         ///< ebreak / halt MMIO
    Trapped,        ///< illegal instruction or bad access
};

/** Memory map constants. */
struct Mmio
{
    static constexpr uint32_t kStreamBase = 0x10000000;
    static constexpr uint32_t kStreamStride = 16;
    static constexpr uint32_t kStatusOffset = 4;
    static constexpr uint32_t kConsolePutc = 0x20000000;
    static constexpr uint32_t kHalt = 0x20000008;
};

/**
 * One softcore instance. Stream ports are indexed like the operator's
 * ports and accessed at kStreamBase + idx*kStreamStride.
 */
class Core
{
  public:
    Core(const PldElf &image,
         std::vector<dataflow::StreamPort *> ports);

    /** Execute up to @p max_instrs instructions. */
    CoreStatus step(uint64_t max_instrs);

    /** Reset to the image's entry point (memory reloaded). */
    void reset();

    uint64_t cycles() const { return cycles_; }
    uint64_t instret() const { return instret_; }
    uint32_t pc() const { return pc_; }
    uint32_t reg(int idx) const { return regs[idx]; }
    bool halted() const { return halted_; }

    /**
     * The stream port the last Blocked step() waits on; its direction
     * is the status step() returned. A blocked access has no side
     * effects, so the core retries the same access next step.
     */
    int blockedStream() const { return blockedPort; }

    /** Text accumulated through the console MMIO. */
    const std::string &consoleOut() const { return console; }

    /** Trap description when status was Trapped. */
    const std::string &trapReason() const { return trap; }

  private:
    CoreStatus execOne();

    bool loadWord(uint32_t addr, uint32_t &value, int size,
                  bool sign_extend, CoreStatus &blocked);
    bool storeWord(uint32_t addr, uint32_t value, int size,
                   CoreStatus &blocked);

    PldElf image;
    std::vector<dataflow::StreamPort *> ports;
    std::vector<uint8_t> mem;
    uint32_t regs[32] = {};
    uint32_t pc_ = 0;
    uint64_t cycles_ = 0;
    uint64_t instret_ = 0;
    bool halted_ = false;
    int blockedPort = -1;
    std::string console;
    std::string trap;
};

} // namespace rv32
} // namespace pld

#endif // PLD_RV32_ISS_H
