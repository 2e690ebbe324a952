#include "rv32/iss.h"

#include <cstring>

#include "common/logging.h"

namespace pld {
namespace rv32 {

namespace {

int32_t
signExtendField(uint32_t v, int bits)
{
    uint32_t m = 1u << (bits - 1);
    return static_cast<int32_t>((v ^ m) - m);
}

} // namespace

Core::Core(const PldElf &image_in,
           std::vector<dataflow::StreamPort *> ports_in)
    : image(image_in), ports(std::move(ports_in))
{
    pld_assert(image.memBytes <= 192 * 1024,
               "softcore memory limited to 192 KB (Sec 5.1), got %u",
               image.memBytes);
    reset();
}

void
Core::reset()
{
    mem.assign(image.memBytes, 0);
    size_t text_bytes = image.text.size() * 4;
    pld_assert(text_bytes <= mem.size(), "text exceeds memory");
    std::memcpy(mem.data(), image.text.data(), text_bytes);
    pld_assert(image.dataBase + image.data.size() <= mem.size(),
               "data segment exceeds memory");
    if (!image.data.empty()) {
        std::memcpy(mem.data() + image.dataBase, image.data.data(),
                    image.data.size());
    }
    std::memset(regs, 0, sizeof(regs));
    regs[2] = image.memBytes - 16; // sp at top of memory
    pc_ = image.entry;
    cycles_ = 0;
    instret_ = 0;
    halted_ = false;
    blockedPort = -1;
    console.clear();
    trap.clear();
}

bool
Core::loadWord(uint32_t addr, uint32_t &value, int size,
               bool sign_extend, CoreStatus &blocked)
{
    if (addr >= Mmio::kStreamBase && addr < Mmio::kConsolePutc) {
        uint32_t off = addr - Mmio::kStreamBase;
        uint32_t port = off / Mmio::kStreamStride;
        uint32_t field = off % Mmio::kStreamStride;
        if (port >= ports.size()) {
            trap = "load from unmapped stream port";
            blocked = CoreStatus::Trapped;
            return false;
        }
        if (field == 0) {
            if (!ports[port]->canRead()) {
                blocked = CoreStatus::BlockedOnRead;
                blockedPort = static_cast<int>(port);
                return false;
            }
            value = ports[port]->read();
            return true;
        }
        if (field == Mmio::kStatusOffset) {
            value = (ports[port]->canRead() ? 1u : 0u) |
                    (ports[port]->canWrite() ? 2u : 0u);
            return true;
        }
        trap = "load from bad stream register";
        blocked = CoreStatus::Trapped;
        return false;
    }

    if (addr + size > mem.size()) {
        trap = "load beyond memory at 0x" + std::to_string(addr);
        blocked = CoreStatus::Trapped;
        return false;
    }
    uint32_t v = 0;
    for (int i = 0; i < size; ++i)
        v |= uint32_t(mem[addr + i]) << (8 * i);
    if (sign_extend && size < 4)
        v = static_cast<uint32_t>(signExtendField(v, size * 8));
    value = v;
    return true;
}

bool
Core::storeWord(uint32_t addr, uint32_t value, int size,
                CoreStatus &blocked)
{
    if (addr >= Mmio::kStreamBase && addr < Mmio::kConsolePutc) {
        uint32_t off = addr - Mmio::kStreamBase;
        uint32_t port = off / Mmio::kStreamStride;
        uint32_t field = off % Mmio::kStreamStride;
        if (port >= ports.size() || field != 0) {
            trap = "store to bad stream register";
            blocked = CoreStatus::Trapped;
            return false;
        }
        if (!ports[port]->canWrite()) {
            blocked = CoreStatus::BlockedOnWrite;
            blockedPort = static_cast<int>(port);
            return false;
        }
        ports[port]->write(value);
        return true;
    }
    if (addr == Mmio::kConsolePutc) {
        console.push_back(static_cast<char>(value & 0xFF));
        return true;
    }
    if (addr == Mmio::kHalt) {
        halted_ = true;
        return true;
    }

    if (addr + size > mem.size()) {
        trap = "store beyond memory at 0x" + std::to_string(addr);
        blocked = CoreStatus::Trapped;
        return false;
    }
    for (int i = 0; i < size; ++i)
        mem[addr + i] = static_cast<uint8_t>(value >> (8 * i));
    return true;
}

CoreStatus
Core::execOne()
{
    if (pc_ + 4 > mem.size() || (pc_ & 3)) {
        trap = "pc out of range";
        return CoreStatus::Trapped;
    }
    uint32_t inst;
    std::memcpy(&inst, mem.data() + pc_, 4);

    uint32_t opcode = inst & 0x7F;
    uint32_t rd = (inst >> 7) & 0x1F;
    uint32_t funct3 = (inst >> 12) & 0x7;
    uint32_t rs1 = (inst >> 15) & 0x1F;
    uint32_t rs2 = (inst >> 20) & 0x1F;
    uint32_t funct7 = inst >> 25;

    uint32_t v1 = regs[rs1];
    uint32_t v2 = regs[rs2];
    uint32_t next_pc = pc_ + 4;
    uint32_t result = 0;
    bool write_rd = false;
    uint64_t cost = 3; // PicoRV32-ish base

    switch (opcode) {
      case 0x33: { // R-type
        write_rd = true;
        if (funct7 == 0x01) { // M extension
            int32_t s1 = static_cast<int32_t>(v1);
            int32_t s2 = static_cast<int32_t>(v2);
            switch (funct3) {
              case 0x0: result = v1 * v2; cost = 5; break;
              case 0x1:
                result = static_cast<uint32_t>(
                    (int64_t(s1) * int64_t(s2)) >> 32);
                cost = 5;
                break;
              case 0x2:
                result = static_cast<uint32_t>(
                    (int64_t(s1) * uint64_t(v2)) >> 32);
                cost = 5;
                break;
              case 0x3:
                result = static_cast<uint32_t>(
                    (uint64_t(v1) * uint64_t(v2)) >> 32);
                cost = 5;
                break;
              case 0x4: // div
                result = (v2 == 0) ? 0xFFFFFFFFu
                         : (s1 == INT32_MIN && s2 == -1)
                             ? uint32_t(INT32_MIN)
                             : uint32_t(s1 / s2);
                cost = 40;
                break;
              case 0x5:
                result = (v2 == 0) ? 0xFFFFFFFFu : (v1 / v2);
                cost = 40;
                break;
              case 0x6:
                result = (v2 == 0) ? v1
                         : (s1 == INT32_MIN && s2 == -1)
                             ? 0
                             : uint32_t(s1 % s2);
                cost = 40;
                break;
              case 0x7:
                result = (v2 == 0) ? v1 : (v1 % v2);
                cost = 40;
                break;
            }
        } else {
            switch (funct3) {
              case 0x0:
                result = (funct7 == 0x20) ? v1 - v2 : v1 + v2;
                break;
              case 0x1: result = v1 << (v2 & 31); break;
              case 0x2:
                result = (int32_t(v1) < int32_t(v2)) ? 1 : 0;
                break;
              case 0x3: result = (v1 < v2) ? 1 : 0; break;
              case 0x4: result = v1 ^ v2; break;
              case 0x5:
                result = (funct7 == 0x20)
                             ? uint32_t(int32_t(v1) >> (v2 & 31))
                             : (v1 >> (v2 & 31));
                break;
              case 0x6: result = v1 | v2; break;
              case 0x7: result = v1 & v2; break;
            }
        }
        break;
      }
      case 0x13: { // I-type ALU
        write_rd = true;
        int32_t imm = signExtendField(inst >> 20, 12);
        switch (funct3) {
          case 0x0: result = v1 + uint32_t(imm); break;
          case 0x1: result = v1 << (imm & 31); break;
          case 0x2: result = (int32_t(v1) < imm) ? 1 : 0; break;
          case 0x3: result = (v1 < uint32_t(imm)) ? 1 : 0; break;
          case 0x4: result = v1 ^ uint32_t(imm); break;
          case 0x5:
            result = (inst & 0x40000000)
                         ? uint32_t(int32_t(v1) >> (imm & 31))
                         : (v1 >> (imm & 31));
            break;
          case 0x6: result = v1 | uint32_t(imm); break;
          case 0x7: result = v1 & uint32_t(imm); break;
        }
        break;
      }
      case 0x03: { // loads
        int32_t imm = signExtendField(inst >> 20, 12);
        uint32_t addr = v1 + uint32_t(imm);
        int size = 1 << (funct3 & 3);
        bool sign = (funct3 & 4) == 0;
        CoreStatus blocked = CoreStatus::Running;
        uint32_t value;
        if (!loadWord(addr, value, size, sign, blocked))
            return blocked;
        result = value;
        write_rd = true;
        cost = 5;
        break;
      }
      case 0x23: { // stores
        int32_t imm = signExtendField(
            ((inst >> 25) << 5) | ((inst >> 7) & 0x1F), 12);
        uint32_t addr = v1 + uint32_t(imm);
        int size = 1 << (funct3 & 3);
        CoreStatus blocked = CoreStatus::Running;
        if (!storeWord(addr, v2, size, blocked))
            return blocked;
        cost = 5;
        break;
      }
      case 0x63: { // branches
        uint32_t u = inst;
        int32_t imm = signExtendField(
            (((u >> 31) & 1) << 12) | (((u >> 7) & 1) << 11) |
                (((u >> 25) & 0x3F) << 5) | (((u >> 8) & 0xF) << 1),
            13);
        bool take = false;
        switch (funct3) {
          case 0x0: take = (v1 == v2); break;
          case 0x1: take = (v1 != v2); break;
          case 0x4: take = (int32_t(v1) < int32_t(v2)); break;
          case 0x5: take = (int32_t(v1) >= int32_t(v2)); break;
          case 0x6: take = (v1 < v2); break;
          case 0x7: take = (v1 >= v2); break;
          default:
            trap = "bad branch funct3";
            return CoreStatus::Trapped;
        }
        if (take) {
            next_pc = pc_ + uint32_t(imm);
            cost = 5;
        }
        break;
      }
      case 0x37: // lui
        result = inst & 0xFFFFF000;
        write_rd = true;
        break;
      case 0x17: // auipc
        result = pc_ + (inst & 0xFFFFF000);
        write_rd = true;
        break;
      case 0x6F: { // jal
        uint32_t u = inst;
        int32_t imm = signExtendField(
            (((u >> 31) & 1) << 20) | (((u >> 12) & 0xFF) << 12) |
                (((u >> 20) & 1) << 11) | (((u >> 21) & 0x3FF) << 1),
            21);
        result = pc_ + 4;
        write_rd = true;
        next_pc = pc_ + uint32_t(imm);
        cost = 5;
        break;
      }
      case 0x67: { // jalr
        int32_t imm = signExtendField(inst >> 20, 12);
        result = pc_ + 4;
        write_rd = true;
        next_pc = (v1 + uint32_t(imm)) & ~1u;
        cost = 5;
        break;
      }
      case 0x73: // system: treat ebreak/ecall as halt
        halted_ = true;
        ++instret_;
        cycles_ += cost;
        return CoreStatus::Halted;
      default:
        trap = "illegal opcode 0x" + std::to_string(opcode);
        return CoreStatus::Trapped;
    }

    if (write_rd && rd != 0)
        regs[rd] = result;
    pc_ = next_pc;
    ++instret_;
    cycles_ += cost;
    if (halted_)
        return CoreStatus::Halted;
    return CoreStatus::Running;
}

CoreStatus
Core::step(uint64_t max_instrs)
{
    if (halted_)
        return CoreStatus::Halted;
    for (uint64_t i = 0; i < max_instrs; ++i) {
        CoreStatus st = execOne();
        if (st != CoreStatus::Running)
            return st;
    }
    return CoreStatus::Running;
}

} // namespace rv32
} // namespace pld
