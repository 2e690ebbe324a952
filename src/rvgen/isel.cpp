#include "rvgen/isel.h"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "common/logging.h"
#include "rv32/iss.h"
#include "rvgen/firmware.h"

namespace pld {
namespace rvgen {

using ir::Expr;
using ir::ExprKind;
using ir::ExprPtr;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtPtr;
using ir::Type;

namespace {

using Wide = __int128;

uint64_t
maskBits(int w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

Wide
shiftWide(Wide v, int sh)
{
    if (sh >= 0)
        return v << sh;
    return v >> (-sh);
}

int64_t
quantizeConst(int64_t v, int src_frac, const Type &t)
{
    Wide w = shiftWide(static_cast<Wide>(v), t.fracBits() - src_frac);
    return canonicalRaw(static_cast<uint64_t>(w), t);
}

// Physical registers isel is allowed to name: x0 and the firmware
// ABI. Everything else is virtual until regalloc.
constexpr int Z = 0;            // x0
constexpr int PhysA0 = 10;
constexpr int PhysA1 = 11;
constexpr int PhysA2 = 12;
constexpr int PhysA3 = 13;
constexpr int PhysA4 = 14;

/** A canonical 64-bit value as a (lo, hi) register pair. */
struct Val
{
    int lo = Z;
    int hi = Z;
};

using Quad = std::array<int, 4>;

class Isel
{
  public:
    explicit Isel(const ir::OperatorFn &fn) : fn(fn) {}

    IselResult
    run()
    {
        layoutData();
        // Scalar variables are promoted to virtual registers holding
        // the low word of their canonical value (exactly the word
        // -O0 keeps in the 4-byte slot). The data segment is
        // zero-filled on every target, so they start at 0.
        varReg.resize(fn.vars.size());
        for (size_t i = 0; i < fn.vars.size(); ++i) {
            varReg[i] = f().newVreg();
            emitLi(varReg[i], 0);
        }
        stmts(fn.body);
        // Operator complete: halt the core.
        emitStore(MOp::Sw, Z,
                  liConst(static_cast<int32_t>(rv32::Mmio::kHalt)), 0,
                  /*vol=*/true);
        res.mir.code.push_back({MOp::Ebreak});
        return std::move(res);
    }

  private:
    MFunction &
    f()
    {
        return res.mir;
    }

    // --- data layout (arrays only) -----------------------------------

    static constexpr uint32_t kTextReserve = 48 * 1024;

    void
    layoutData()
    {
        res.dataBase = kTextReserve;
        uint32_t off = 0;
        arrOff.resize(fn.arrays.size());
        for (size_t i = 0; i < fn.arrays.size(); ++i) {
            const auto &arr = fn.arrays[i];
            int eb = elemBytes(arr.elemType);
            off = (off + eb - 1) & ~uint32_t(eb - 1);
            arrOff[i] = res.dataBase + off;
            off += static_cast<uint32_t>(arr.size) * eb;
        }
        res.dataImage.assign(off, 0);
        // ROM init: canonical bit patterns, same as -O0/interp.
        for (size_t i = 0; i < fn.arrays.size(); ++i) {
            const auto &arr = fn.arrays[i];
            int eb = elemBytes(arr.elemType);
            uint32_t base = arrOff[i] - res.dataBase;
            for (size_t e = 0; e < arr.init.size(); ++e) {
                uint64_t raw = static_cast<uint64_t>(canonicalRaw(
                    static_cast<uint64_t>(arr.init[e]),
                    arr.elemType));
                for (int b = 0; b < eb; ++b)
                    res.dataImage[base + e * eb + b] =
                        static_cast<uint8_t>(raw >> (8 * b));
            }
        }
    }

    // --- MIR emission helpers ----------------------------------------

    void
    emitLi(int rd, int32_t imm)
    {
        MInst m{MOp::Li};
        m.rd = rd;
        m.imm = imm;
        f().code.push_back(m);
    }

    int
    liConst(int32_t v)
    {
        if (v == 0)
            return Z;
        int rd = f().newVreg();
        emitLi(rd, v);
        return rd;
    }

    /** rrr ALU op with algebraic identities on x0 operands. */
    int
    rrr(MOp op, int rs1, int rs2)
    {
        switch (op) {
        case MOp::Add:
        case MOp::Or:
        case MOp::Xor:
            if (rs1 == Z)
                return rs2;
            if (rs2 == Z)
                return rs1;
            break;
        case MOp::Sub:
            if (rs2 == Z)
                return rs1;
            break;
        case MOp::And:
        case MOp::Mul:
        case MOp::Mulh:
        case MOp::Mulhsu:
        case MOp::Mulhu:
            if (rs1 == Z || rs2 == Z)
                return Z;
            break;
        case MOp::Sll:
        case MOp::Srl:
        case MOp::Sra:
            if (rs1 == Z)
                return Z;
            break;
        case MOp::Sltu:
            if (rs2 == Z)
                return Z; // nothing is unsigned-below zero
            break;
        default:
            break;
        }
        MInst m{op};
        m.rd = f().newVreg();
        m.rs1 = rs1;
        m.rs2 = rs2;
        f().code.push_back(m);
        return m.rd;
    }

    /** rri ALU op with identity/zero shortcuts. */
    int
    rri(MOp op, int rs1, int32_t imm)
    {
        switch (op) {
        case MOp::Slli:
        case MOp::Srli:
        case MOp::Srai:
            if (imm == 0)
                return rs1;
            if (rs1 == Z)
                return Z;
            break;
        case MOp::Addi:
        case MOp::Xori:
        case MOp::Ori:
            if (imm == 0)
                return rs1;
            if (rs1 == Z)
                return liConst(op == MOp::Addi ? imm
                               : op == MOp::Xori ? imm
                                                 : imm);
            break;
        case MOp::Andi:
            if (imm == 0 || rs1 == Z)
                return Z;
            break;
        default:
            break;
        }
        MInst m{op};
        m.rd = f().newVreg();
        m.rs1 = rs1;
        m.imm = imm;
        f().code.push_back(m);
        return m.rd;
    }

    int
    emitLoad(MOp op, int base, int32_t off, bool vol = false)
    {
        MInst m{op};
        m.rd = f().newVreg();
        m.rs1 = base;
        m.imm = off;
        m.vol = vol;
        f().code.push_back(m);
        return m.rd;
    }

    void
    emitStore(MOp op, int val, int base, int32_t off,
              bool vol = false)
    {
        MInst m{op};
        m.rs2 = val;
        m.rs1 = base;
        m.imm = off;
        m.vol = vol;
        f().code.push_back(m);
    }

    void
    emitCopy(int rd, int rs)
    {
        MInst m{MOp::Copy};
        m.rd = rd;
        m.rs1 = rs;
        f().code.push_back(m);
    }

    void
    emitLabel(const std::string &l)
    {
        MInst m{MOp::Label};
        m.label = l;
        f().code.push_back(m);
    }

    void
    emitJump(const std::string &l)
    {
        MInst m{MOp::J};
        m.label = l;
        f().code.push_back(m);
    }

    void
    emitBranch(MOp op, int rs1, int rs2, const std::string &l)
    {
        MInst m{op};
        m.rs1 = rs1;
        m.rs2 = rs2;
        m.label = l;
        f().code.push_back(m);
    }

    Val
    materialize(int64_t v)
    {
        return {liConst(static_cast<int32_t>(v & 0xFFFFFFFF)),
                liConst(static_cast<int32_t>(v >> 32))};
    }

    /**
     * Call a firmware routine: operands through the fixed a0..a3
     * ABI (plus the shift amount in a4 for mulshift), 64-bit result
     * back out of a0:a1 into fresh vregs. The allocator keeps live
     * values in s-registers, which the firmware never clobbers.
     */
    Val
    callFw(const char *name, Val x, Val y, int shImm = -1)
    {
        emitCopy(PhysA0, x.lo);
        emitCopy(PhysA1, x.hi);
        emitCopy(PhysA2, y.lo);
        emitCopy(PhysA3, y.hi);
        if (shImm >= 0)
            emitLi(PhysA4, shImm);
        MInst c{MOp::Call};
        c.label = name;
        f().code.push_back(c);
        int lo = f().newVreg(), hi = f().newVreg();
        emitCopy(lo, PhysA0);
        emitCopy(hi, PhysA1);
        return {lo, hi};
    }

    // --- pair/quad arithmetic (functional mirrors of -O0) ------------

    /** Arithmetic shift of a pair by constant sh (positive = left). */
    Val
    shiftPairV(Val v, int sh)
    {
        if (sh == 0)
            return v;
        if (sh >= 64)
            return {Z, Z};
        if (sh <= -64) {
            int s = rri(MOp::Srai, v.hi, 31);
            return {s, s};
        }
        if (sh > 0) {
            if (sh >= 32) {
                int hi = sh == 32 ? v.lo
                                  : rri(MOp::Slli, v.lo, sh - 32);
                return {Z, hi};
            }
            int carry = rri(MOp::Srli, v.lo, 32 - sh);
            int hi = rrr(MOp::Or, rri(MOp::Slli, v.hi, sh), carry);
            int lo = rri(MOp::Slli, v.lo, sh);
            return {lo, hi};
        }
        int s = -sh;
        if (s >= 32) {
            int lo = s == 32 ? v.hi : rri(MOp::Srai, v.hi, s - 32);
            int hi = rri(MOp::Srai, v.hi, 31);
            return {lo, hi};
        }
        int lo = rrr(MOp::Or, rri(MOp::Srli, v.lo, s),
                     rri(MOp::Slli, v.hi, 32 - s));
        int hi = rri(MOp::Srai, v.hi, s);
        return {lo, hi};
    }

    /** Logical right shift of a pair by constant s >= 0. Used for
        the zero-extended u32*u32 inline multiply product. */
    Val
    shiftPairLogicalV(Val v, int s)
    {
        if (s == 0)
            return v;
        if (s >= 64)
            return {Z, Z};
        if (s >= 32) {
            int lo = s == 32 ? v.hi : rri(MOp::Srli, v.hi, s - 32);
            return {lo, Z};
        }
        int lo = rrr(MOp::Or, rri(MOp::Srli, v.lo, s),
                     rri(MOp::Slli, v.hi, 32 - s));
        int hi = rri(MOp::Srli, v.hi, s);
        return {lo, hi};
    }

    /** Wrap a pair to t's width with t's signedness. */
    Val
    wrapToV(Val v, const Type &t)
    {
        int w = t.width;
        if (w <= 32) {
            int lo = v.lo;
            if (w < 32) {
                int sh = rri(MOp::Slli, lo, 32 - w);
                lo = rri(t.isSigned() ? MOp::Srai : MOp::Srli, sh,
                         32 - w);
            }
            int hi = t.isSigned() ? rri(MOp::Srai, lo, 31) : Z;
            return {lo, hi};
        }
        if (w < 64) {
            int sh = rri(MOp::Slli, v.hi, 64 - w);
            int hi = rri(t.isSigned() ? MOp::Srai : MOp::Srli, sh,
                         64 - w);
            return {v.lo, hi};
        }
        return v;
    }

    Val
    quantizeV(Val v, int src_frac, const Type &t)
    {
        return wrapToV(shiftPairV(v, t.fracBits() - src_frac), t);
    }

    Val
    addPairV(Val x, Val y, bool subtract)
    {
        if (subtract) {
            int borrow = rrr(MOp::Sltu, x.lo, y.lo);
            int lo = rrr(MOp::Sub, x.lo, y.lo);
            int hi = rrr(MOp::Sub, rrr(MOp::Sub, x.hi, y.hi), borrow);
            return {lo, hi};
        }
        int lo = rrr(MOp::Add, x.lo, y.lo);
        int carry = rrr(MOp::Sltu, lo, y.lo);
        int hi = rrr(MOp::Add, rrr(MOp::Add, x.hi, y.hi), carry);
        return {lo, hi};
    }

    static bool
    alignOverflows(const Type &t, int sh)
    {
        int w = t.width;
        if (!t.isSigned() && w < 64)
            ++w;
        return sh > 0 && w + sh > 64;
    }

    Quad
    widenV(Val v)
    {
        int s = rri(MOp::Srai, v.hi, 31);
        return {v.lo, v.hi, s, s};
    }

    /** Arithmetic shift of a 128-bit quad by constant sh. */
    Quad
    shiftQuadV(Quad w, int sh)
    {
        if (sh == 0)
            return w;
        Quad out;
        if (sh > 0) {
            int words = sh / 32, bits = sh % 32;
            auto src = [&](int j) { return j >= 0 ? w[j] : Z; };
            for (int i = 0; i < 4; ++i) {
                int b = src(i - words);
                if (bits == 0)
                    out[i] = b;
                else
                    out[i] = rrr(MOp::Or, rri(MOp::Slli, b, bits),
                                 rri(MOp::Srli, src(i - words - 1),
                                     32 - bits));
            }
        } else {
            int s = -sh, words = s / 32, bits = s % 32;
            int sign = rri(MOp::Srai, w[3], 31);
            auto src = [&](int j) { return j <= 3 ? w[j] : sign; };
            for (int i = 0; i < 3; ++i) {
                int b = src(i + words);
                if (bits == 0)
                    out[i] = b;
                else
                    out[i] = rrr(MOp::Or, rri(MOp::Srli, b, bits),
                                 rri(MOp::Slli, src(i + words + 1),
                                     32 - bits));
            }
            int top = src(3 + words);
            out[3] = bits == 0 ? top : rri(MOp::Srai, top, bits);
        }
        return out;
    }

    Quad
    addQuadV(Quad x, Quad y, bool subtract)
    {
        Quad out;
        int c;
        if (subtract) {
            c = rrr(MOp::Sltu, x[0], y[0]);
            out[0] = rrr(MOp::Sub, x[0], y[0]);
            for (int i = 1; i < 4; ++i) {
                int c1 = rrr(MOp::Sltu, x[i], y[i]);
                int t2 = rrr(MOp::Sub, x[i], y[i]);
                int c2 = rrr(MOp::Sltu, t2, c);
                out[i] = rrr(MOp::Sub, t2, c);
                c = rrr(MOp::Or, c1, c2);
            }
        } else {
            out[0] = rrr(MOp::Add, x[0], y[0]);
            c = rrr(MOp::Sltu, out[0], y[0]);
            for (int i = 1; i < 4; ++i) {
                int t2 = rrr(MOp::Add, x[i], y[i]);
                int c1 = rrr(MOp::Sltu, t2, y[i]);
                int t3 = rrr(MOp::Add, t2, c);
                int c2 = rrr(MOp::Sltu, t3, c);
                out[i] = t3;
                c = rrr(MOp::Or, c1, c2);
            }
        }
        return out;
    }

    /** eq01 = (a == b) as 0/1. */
    int
    eqBit(int a, int b)
    {
        return rri(MOp::Sltiu, rrr(MOp::Xor, a, b), 1);
    }

    /** Branchless signed 64-bit compare -> {0,1} value pair. */
    Val
    compareV(Val a, Val b, ExprKind k)
    {
        bool swap = (k == ExprKind::Gt || k == ExprKind::Le);
        bool invert = (k == ExprKind::Le || k == ExprKind::Ge ||
                       k == ExprKind::Ne);
        if (swap)
            std::swap(a, b);
        int r;
        if (k == ExprKind::Eq || k == ExprKind::Ne) {
            int d = rrr(MOp::Or, rrr(MOp::Xor, a.lo, b.lo),
                        rrr(MOp::Xor, a.hi, b.hi));
            r = rri(MOp::Sltiu, d, 1);
        } else {
            int lt = rrr(MOp::Slt, a.hi, b.hi);
            int eq = eqBit(a.hi, b.hi);
            int ltu = rrr(MOp::Sltu, a.lo, b.lo);
            r = rrr(MOp::Or, lt, rrr(MOp::And, eq, ltu));
        }
        if (invert)
            r = rri(MOp::Xori, r, 1);
        return {r, Z};
    }

    /** Branchless signed 128-bit compare -> {0,1} value pair. */
    Val
    compareWideV(Quad x, Quad y, ExprKind k)
    {
        bool swap = (k == ExprKind::Gt || k == ExprKind::Le);
        bool invert = (k == ExprKind::Le || k == ExprKind::Ge ||
                       k == ExprKind::Ne);
        if (swap)
            std::swap(x, y);
        int r;
        if (k == ExprKind::Eq || k == ExprKind::Ne) {
            int d = rrr(MOp::Xor, x[0], y[0]);
            for (int i = 1; i < 4; ++i)
                d = rrr(MOp::Or, d, rrr(MOp::Xor, x[i], y[i]));
            r = rri(MOp::Sltiu, d, 1);
        } else {
            // Unsigned cascade below a signed top-word compare.
            r = rrr(MOp::Sltu, x[0], y[0]);
            for (int i = 1; i < 3; ++i)
                r = rrr(MOp::Or, rrr(MOp::Sltu, x[i], y[i]),
                        rrr(MOp::And, eqBit(x[i], y[i]), r));
            r = rrr(MOp::Or, rrr(MOp::Slt, x[3], y[3]),
                    rrr(MOp::And, eqBit(x[3], y[3]), r));
        }
        if (invert)
            r = rri(MOp::Xori, r, 1);
        return {r, Z};
    }

    // --- interpreter-exact constant folding --------------------------

    /**
     * Evaluate a subtree exactly as the interpreter
     * (interp::OperatorExec::eval over the node's interp::Program
     * lowering) would, iff it is entirely constant (no reads, no
     * variable or array references). Each case below transcribes the
     * interpreter case for that kind; keep them in lockstep.
     */
    std::optional<int64_t>
    fold(const ExprPtr &e)
    {
        const Type &t = e->type;
        switch (e->kind) {
        case ExprKind::Const:
            return e->imm;
        case ExprKind::VarRef:
        case ExprKind::ArrayRef:
        case ExprKind::StreamRead:
            return std::nullopt;
        case ExprKind::Cast: {
            auto a = fold(e->args[0]);
            if (!a)
                return std::nullopt;
            return quantizeConst(*a, e->args[0]->type.fracBits(), t);
        }
        case ExprKind::BitCast: {
            auto a = fold(e->args[0]);
            if (!a)
                return std::nullopt;
            uint64_t raw = static_cast<uint64_t>(*a) &
                           maskBits(e->args[0]->type.width);
            return canonicalRaw(raw, t);
        }
        case ExprKind::Neg: {
            auto a = fold(e->args[0]);
            if (!a)
                return std::nullopt;
            return quantizeConst(-*a, e->args[0]->type.fracBits(),
                                 t);
        }
        case ExprKind::Not: {
            auto a = fold(e->args[0]);
            if (!a)
                return std::nullopt;
            return quantizeConst(~*a, e->args[0]->type.fracBits(),
                                 t);
        }
        case ExprKind::LNot: {
            auto a = fold(e->args[0]);
            if (!a)
                return std::nullopt;
            return *a == 0 ? 1 : 0;
        }
        case ExprKind::Select: {
            auto c = fold(e->args[0]);
            if (!c)
                return std::nullopt;
            return fold(*c != 0 ? e->args[1] : e->args[2]);
        }
        default:
            break;
        }
        if (!ir::isBinary(e->kind))
            return std::nullopt;
        const ExprPtr &lhs = e->args[0];
        const ExprPtr &rhs = e->args[1];
        auto a = fold(lhs);
        auto b = fold(rhs);
        if (!a || !b)
            return std::nullopt;
        int fa = lhs->type.fracBits();
        int fb = rhs->type.fracBits();
        switch (e->kind) {
        case ExprKind::Shl:
        case ExprKind::Shr: {
            int sh = static_cast<int>(*b);
            Wide v = e->kind == ExprKind::Shl
                         ? (static_cast<Wide>(*a) << sh)
                         : shiftWide(static_cast<Wide>(*a), -sh);
            Wide q = shiftWide(v, t.fracBits() - fa);
            return canonicalRaw(static_cast<uint64_t>(q), t);
        }
        case ExprKind::Add:
        case ExprKind::Sub: {
            int fc = std::max(fa, fb);
            Wide A = shiftWide(*a, fc - fa);
            Wide B = shiftWide(*b, fc - fb);
            Wide r = e->kind == ExprKind::Add ? A + B : A - B;
            Wide q = shiftWide(r, t.fracBits() - fc);
            return canonicalRaw(static_cast<uint64_t>(q), t);
        }
        case ExprKind::Mul: {
            Wide r = static_cast<Wide>(*a) * static_cast<Wide>(*b);
            Wide q = shiftWide(r, t.fracBits() - (fa + fb));
            return canonicalRaw(static_cast<uint64_t>(q), t);
        }
        case ExprKind::Div: {
            if (*b == 0)
                return 0;
            Wide num = shiftWide(*a, t.fracBits() - fa + fb);
            Wide q = num / static_cast<Wide>(*b);
            return canonicalRaw(static_cast<uint64_t>(q), t);
        }
        case ExprKind::Mod: {
            if (*b == 0)
                return 0;
            Wide q = static_cast<Wide>(*a) % static_cast<Wide>(*b);
            return canonicalRaw(static_cast<uint64_t>(q), t);
        }
        case ExprKind::And:
        case ExprKind::Or:
        case ExprKind::Xor: {
            int fc = std::max(fa, fb);
            uint64_t A = static_cast<uint64_t>(shiftWide(*a, fc - fa));
            uint64_t B = static_cast<uint64_t>(shiftWide(*b, fc - fb));
            uint64_t r = e->kind == ExprKind::And  ? (A & B)
                         : e->kind == ExprKind::Or ? (A | B)
                                                   : (A ^ B);
            return quantizeConst(static_cast<int64_t>(r), fc, t);
        }
        case ExprKind::Lt:
        case ExprKind::Le:
        case ExprKind::Gt:
        case ExprKind::Ge:
        case ExprKind::Eq:
        case ExprKind::Ne: {
            int fc = std::max(fa, fb);
            Wide A = shiftWide(*a, fc - fa);
            Wide B = shiftWide(*b, fc - fb);
            bool r = false;
            switch (e->kind) {
            case ExprKind::Lt: r = A < B; break;
            case ExprKind::Le: r = A <= B; break;
            case ExprKind::Gt: r = A > B; break;
            case ExprKind::Ge: r = A >= B; break;
            case ExprKind::Eq: r = A == B; break;
            case ExprKind::Ne: r = A != B; break;
            default: break;
            }
            return r ? 1 : 0;
        }
        case ExprKind::LAnd:
            return (*a != 0 && *b != 0) ? 1 : 0;
        case ExprKind::LOr:
            return (*a != 0 || *b != 0) ? 1 : 0;
        default:
            return std::nullopt;
        }
    }

    // --- expression lowering -----------------------------------------

    Val
    eval(const ExprPtr &e)
    {
        const Type &t = e->type;
        if (e->kind == ExprKind::Const)
            return materialize(e->imm);
        if (auto c = fold(e)) {
            ++res.constantsFolded;
            return materialize(*c);
        }
        switch (e->kind) {
        case ExprKind::VarRef: {
            const Type &vt = fn.vars[e->imm].type;
            int lo = varReg[e->imm];
            int hi = vt.isSigned() ? rri(MOp::Srai, lo, 31) : Z;
            return {lo, hi};
        }
        case ExprKind::ArrayRef: {
            Val idx = eval(e->args[0]);
            const auto &arr = fn.arrays[e->imm];
            int eb = elemBytes(arr.elemType);
            int off = eb > 1
                          ? rri(MOp::Slli, idx.lo, eb == 2 ? 1 : 2)
                          : idx.lo;
            int addr = rrr(
                MOp::Add,
                liConst(static_cast<int32_t>(arrOff[e->imm])), off);
            bool sgn = arr.elemType.isSigned();
            MOp lop = eb == 1   ? (sgn ? MOp::Lb : MOp::Lbu)
                      : eb == 2 ? (sgn ? MOp::Lh : MOp::Lhu)
                                : MOp::Lw;
            int lo = emitLoad(lop, addr, 0);
            int hi = sgn ? rri(MOp::Srai, lo, 31) : Z;
            return {lo, hi};
        }
        case ExprKind::StreamRead: {
            int base = liConst(static_cast<int32_t>(
                rv32::Mmio::kStreamBase +
                static_cast<uint32_t>(e->imm) *
                    rv32::Mmio::kStreamStride));
            // ISS blocks here when empty; u32 canonical.
            int lo = emitLoad(MOp::Lw, base, 0, /*vol=*/true);
            return {lo, Z};
        }
        case ExprKind::Cast:
            return quantizeV(eval(e->args[0]),
                             e->args[0]->type.fracBits(), t);
        case ExprKind::BitCast: {
            Val v = eval(e->args[0]);
            Val raw = wrapToV(v, Type::u(e->args[0]->type.width));
            return wrapToV(raw, t);
        }
        case ExprKind::Neg: {
            Val v = eval(e->args[0]);
            int nl = rri(MOp::Xori, v.lo, -1);
            int nh = rri(MOp::Xori, v.hi, -1);
            int lo = rri(MOp::Addi, nl, 1);
            int hi = rrr(MOp::Add, nh, rri(MOp::Sltiu, lo, 1));
            return quantizeV({lo, hi},
                             e->args[0]->type.fracBits(), t);
        }
        case ExprKind::Not: {
            Val v = eval(e->args[0]);
            return quantizeV({rri(MOp::Xori, v.lo, -1),
                              rri(MOp::Xori, v.hi, -1)},
                             e->args[0]->type.fracBits(), t);
        }
        case ExprKind::LNot: {
            Val v = eval(e->args[0]);
            int r = rri(MOp::Sltiu, rrr(MOp::Or, v.lo, v.hi), 1);
            return {r, Z};
        }
        case ExprKind::Select: {
            // A constant condition folds to the live arm only; no
            // backend ever executes the dead arm.
            if (auto c = fold(e->args[0])) {
                ++res.constantsFolded;
                return eval(*c != 0 ? e->args[1] : e->args[2]);
            }
            Val cond = eval(e->args[0]);
            int o = rrr(MOp::Or, cond.lo, cond.hi);
            int rl = f().newVreg(), rh = f().newVreg();
            // Trampoline discipline (like If): the conditional
            // branch only hops one instruction, so arm size never
            // exceeds the +-4 KB conditional-branch reach.
            std::string l_then = f().genLabel("sel_then");
            std::string l_else = f().genLabel("sel_else");
            std::string l_end = f().genLabel("sel_end");
            emitBranch(MOp::Bne, o, Z, l_then);
            emitJump(l_else);
            emitLabel(l_then);
            Val tv = eval(e->args[1]);
            emitCopy(rl, tv.lo);
            emitCopy(rh, tv.hi);
            emitJump(l_end);
            emitLabel(l_else);
            Val fv = eval(e->args[2]);
            emitCopy(rl, fv.lo);
            emitCopy(rh, fv.hi);
            emitLabel(l_end);
            return {rl, rh};
        }
        default:
            break;
        }

        pld_assert(ir::isBinary(e->kind),
                   "unhandled expr in -Os isel");
        const ExprPtr &lhs = e->args[0];
        const ExprPtr &rhs = e->args[1];
        int fa = lhs->type.fracBits();
        int fb = rhs->type.fracBits();

        if (e->kind == ExprKind::Shl || e->kind == ExprKind::Shr) {
            pld_assert(rhs->kind == ExprKind::Const,
                       "shift amount must be constant");
            int sh = static_cast<int>(rhs->imm);
            Val v = eval(lhs);
            Val s = shiftPairV(v, e->kind == ExprKind::Shl ? sh
                                                           : -sh);
            return quantizeV(s, fa, t);
        }

        if (e->kind == ExprKind::Mul)
            return evalMul(e, lhs, rhs, fa, fb, t);

        Val x = eval(lhs);
        Val y = eval(rhs);

        switch (e->kind) {
        case ExprKind::Add:
        case ExprKind::Sub: {
            int fc = std::max(fa, fb);
            int d = fc - t.fracBits();
            // Same pair-vs-quad window as -O0: the 64-bit path is
            // only exact when alignment cannot push value bits past
            // bit 63 and no down-quantize pulls them back into view.
            if (alignOverflows(lhs->type, fc - fa) ||
                alignOverflows(rhs->type, fc - fb) || d > 0) {
                Quad xq = shiftQuadV(widenV(x), fc - fa);
                Quad yq = shiftQuadV(widenV(y), fc - fb);
                Quad r =
                    addQuadV(xq, yq, e->kind == ExprKind::Sub);
                r = shiftQuadV(r, -d);
                return wrapToV({r[0], r[1]}, t);
            }
            Val A = shiftPairV(x, fc - fa);
            Val B = shiftPairV(y, fc - fb);
            return quantizeV(addPairV(A, B, e->kind == ExprKind::Sub),
                             fc, t);
        }
        case ExprKind::Div: {
            pld_assert(lhs->type.width <= 32 &&
                           rhs->type.width <= 32,
                       "%s: division operands must be <= 32 bits "
                       "(insert casts)",
                       fn.name.c_str());
            int sh = t.fracBits() - fa + fb;
            pld_assert(sh >= 0, "div shift must be non-negative");
            Val num = shiftPairV(x, sh);
            return wrapToV(callFw("__pld_sdiv64", num, y), t);
        }
        case ExprKind::Mod:
            return wrapToV(callFw("__pld_mod64", x, y), t);
        case ExprKind::And:
        case ExprKind::Or:
        case ExprKind::Xor: {
            int fc = std::max(fa, fb);
            Val A = shiftPairV(x, fc - fa);
            Val B = shiftPairV(y, fc - fb);
            MOp op = e->kind == ExprKind::And  ? MOp::And
                     : e->kind == ExprKind::Or ? MOp::Or
                                               : MOp::Xor;
            return quantizeV(
                {rrr(op, A.lo, B.lo), rrr(op, A.hi, B.hi)}, fc, t);
        }
        case ExprKind::Lt:
        case ExprKind::Le:
        case ExprKind::Gt:
        case ExprKind::Ge:
        case ExprKind::Eq:
        case ExprKind::Ne: {
            int fc = std::max(fa, fb);
            if (alignOverflows(lhs->type, fc - fa) ||
                alignOverflows(rhs->type, fc - fb)) {
                Quad xq = shiftQuadV(widenV(x), fc - fa);
                Quad yq = shiftQuadV(widenV(y), fc - fb);
                return compareWideV(xq, yq, e->kind);
            }
            return compareV(shiftPairV(x, fc - fa),
                            shiftPairV(y, fc - fb), e->kind);
        }
        case ExprKind::LAnd:
        case ExprKind::LOr: {
            int ta = rrr(MOp::Sltu, Z, rrr(MOp::Or, x.lo, x.hi));
            int tb = rrr(MOp::Sltu, Z, rrr(MOp::Or, y.lo, y.hi));
            int r = rrr(e->kind == ExprKind::LAnd ? MOp::And
                                                  : MOp::Or,
                        ta, tb);
            return {r, Z};
        }
        default:
            pld_panic("unhandled binary kind in -Os isel");
        }
    }

    /**
     * Multiply lowering with strength reduction:
     *  - power-of-two constant operand -> constant pair shift
     *    (exact: low64((a * 2^k) >> sh) == pair-shift by k - sh);
     *  - both operands <= 32 bits wide -> inline mul + mulh[s]u
     *    (their canonical values are sign/zero-extensions of the low
     *    word, so one 32x32->64 product is the full 128-bit product
     *    up to extension);
     *  - otherwise the -O0 firmware call.
     * The constant operand, when present, folded entirely, so the
     * non-constant side is always still evaluated (stream reads!).
     */
    Val
    evalMul(const ExprPtr &e, const ExprPtr &lhs, const ExprPtr &rhs,
            int fa, int fb, const Type &t)
    {
        int sh = (fa + fb) - t.fracBits();
        pld_assert(sh >= 0, "mul shift must be non-negative");

        auto pow2 = [](int64_t v) -> int {
            if (v > 0 && (v & (v - 1)) == 0) {
                int k = 0;
                while ((v >> k) != 1)
                    ++k;
                return k;
            }
            return -1;
        };
        auto cl = fold(lhs);
        auto cr = fold(rhs);
        const ExprPtr &varSide = cl ? rhs : lhs;
        if (auto c = cl ? cl : cr) {
            Val v = eval(varSide);
            if (*c == 0)
                return {Z, Z}; // exact: 0 quantizes and wraps to 0
            int k = pow2(*c);
            if (k >= 0) {
                ++res.strengthReduced;
                return wrapToV(shiftPairV(v, k - sh), t);
            }
            // Non-pow2 constant: fall through with the constant
            // materialized on its original side.
            Val cv = materialize(*c);
            Val x = cl ? cv : v;
            Val y = cl ? v : cv;
            return mulPair(x, y, lhs->type, rhs->type, sh, t);
        }
        Val x = eval(lhs);
        Val y = eval(rhs);
        return mulPair(x, y, lhs->type, rhs->type, sh, t);
    }

    Val
    mulPair(Val x, Val y, const Type &ta, const Type &tb, int sh,
            const Type &t)
    {
        if (ta.width <= 32 && tb.width <= 32) {
            ++res.inlinedMuls;
            bool ua = !ta.isSigned() && ta.width == 32;
            bool ub = !tb.isSigned() && tb.width == 32;
            int lo = rrr(MOp::Mul, x.lo, y.lo);
            Val p;
            if (ua && ub) {
                // zext * zext: product is a non-negative uint64;
                // shift logically.
                p = {lo, rrr(MOp::Mulhu, x.lo, y.lo)};
                return wrapToV(shiftPairLogicalV(p, sh), t);
            }
            if (!ua && !ub) {
                p = {lo, rrr(MOp::Mulh, x.lo, y.lo)};
            } else {
                // mulhsu wants (signed, unsigned) operand order.
                int s = ua ? y.lo : x.lo;
                int u = ua ? x.lo : y.lo;
                p = {lo, rrr(MOp::Mulhsu, s, u)};
            }
            return wrapToV(shiftPairV(p, -sh), t);
        }
        return wrapToV(callFw("__pld_mulshift", x, y, sh), t);
    }

    // --- statement lowering ------------------------------------------

    void
    stmts(const std::vector<StmtPtr> &body)
    {
        for (const auto &s : body)
            stmt(s);
    }

    void
    stmt(const StmtPtr &s)
    {
        switch (s->kind) {
        case StmtKind::Assign: {
            Val v = eval(s->args[0]);
            emitCopy(varReg[s->imm], v.lo);
            break;
        }
        case StmtKind::ArrayStore: {
            // Value first, then index: the order the (fuzz-proven)
            // -O0 tier uses when both contain stream reads.
            Val val = eval(s->args[1]);
            Val idx = eval(s->args[0]);
            const auto &arr = fn.arrays[s->imm];
            int eb = elemBytes(arr.elemType);
            int off = eb > 1
                          ? rri(MOp::Slli, idx.lo, eb == 2 ? 1 : 2)
                          : idx.lo;
            int addr = rrr(
                MOp::Add,
                liConst(static_cast<int32_t>(arrOff[s->imm])), off);
            MOp sop = eb == 1 ? MOp::Sb : eb == 2 ? MOp::Sh : MOp::Sw;
            emitStore(sop, val.lo, addr, 0);
            break;
        }
        case StmtKind::StreamWrite: {
            Val v = eval(s->args[0]);
            int base = liConst(static_cast<int32_t>(
                rv32::Mmio::kStreamBase +
                static_cast<uint32_t>(s->imm) *
                    rv32::Mmio::kStreamStride));
            // ISS blocks here when full.
            emitStore(MOp::Sw, v.lo, base, 0, /*vol=*/true);
            break;
        }
        case StmtKind::For: {
            // var = lo; while (var < hi) { body; var += step; }
            // 32-bit signed bound check, same as -O0.
            int iv = varReg[s->imm];
            emitLi(iv, static_cast<int32_t>(s->immLo));
            int bound = liConst(static_cast<int32_t>(s->immHi));
            std::string l_loop = f().genLabel("for");
            std::string l_body = f().genLabel("for_body");
            std::string l_exit = f().genLabel("for_exit");
            emitLabel(l_loop);
            emitBranch(MOp::Blt, iv, bound, l_body);
            emitJump(l_exit);
            emitLabel(l_body);
            stmts(s->body);
            MInst step{MOp::Addi};
            step.rd = iv;
            step.rs1 = iv;
            step.imm = static_cast<int32_t>(s->immStep);
            f().code.push_back(step);
            emitJump(l_loop);
            emitLabel(l_exit);
            break;
        }
        case StmtKind::While: {
            std::string l_loop = f().genLabel("wh");
            std::string l_body = f().genLabel("wh_body");
            std::string l_exit = f().genLabel("wh_exit");
            emitLabel(l_loop);
            Val c = eval(s->args[0]);
            emitBranch(MOp::Bne, rrr(MOp::Or, c.lo, c.hi), Z,
                       l_body);
            emitJump(l_exit);
            emitLabel(l_body);
            stmts(s->body);
            emitJump(l_loop);
            emitLabel(l_exit);
            break;
        }
        case StmtKind::If: {
            std::string l_else = f().genLabel("if_else");
            std::string l_then = f().genLabel("if_then");
            std::string l_end = f().genLabel("if_end");
            Val c = eval(s->args[0]);
            emitBranch(MOp::Bne, rrr(MOp::Or, c.lo, c.hi), Z,
                       l_then);
            emitJump(l_else);
            emitLabel(l_then);
            stmts(s->body);
            emitJump(l_end);
            emitLabel(l_else);
            stmts(s->elseBody);
            emitLabel(l_end);
            break;
        }
        case StmtKind::Print: {
            int base = liConst(
                static_cast<int32_t>(rv32::Mmio::kConsolePutc));
            for (char ch : s->text)
                emitStore(MOp::Sw, liConst(ch), base, 0,
                          /*vol=*/true);
            for (const auto &arg : s->args) {
                emitStore(MOp::Sw, liConst(' '), base, 0,
                          /*vol=*/true);
                Val v = eval(arg);
                emitCopy(PhysA0, v.lo);
                MInst c{MOp::Call};
                c.label = "__pld_puthex";
                f().code.push_back(c);
            }
            emitStore(MOp::Sw, liConst('\n'), base, 0,
                      /*vol=*/true);
            break;
        }
        case StmtKind::Block:
            stmts(s->body);
            break;
        }
    }

    const ir::OperatorFn &fn;
    IselResult res;
    std::vector<uint32_t> arrOff;
    std::vector<int> varReg;
};

} // namespace

IselResult
selectInstructions(const ir::OperatorFn &fn)
{
    Isel sel(fn);
    return sel.run();
}

// --- peephole --------------------------------------------------------

namespace {

/** LVN key: opcode + canonical operands. */
struct LvnKey
{
    MOp op;
    int a, b;
    int32_t imm;

    bool
    operator<(const LvnKey &o) const
    {
        if (op != o.op)
            return op < o.op;
        if (a != o.a)
            return a < o.a;
        if (b != o.b)
            return b < o.b;
        return imm < o.imm;
    }
};

} // namespace

int
peephole(MFunction &f)
{
    int removed = 0;

    // Pass 1 (per basic block): copy propagation through a leader
    // table, redundant sign-extension rewrites, and local value
    // numbering that turns recomputations of pure ops into copies.
    std::unordered_map<int, int> leader;     // vreg -> equal vreg
    std::map<LvnKey, int> table;             // expression -> vreg
    std::unordered_map<int, size_t> defIdx;  // vreg -> defining inst
    auto resetBlock = [&]() {
        leader.clear();
        table.clear();
        defIdx.clear();
    };
    auto resolve = [&](int r) {
        while (true) {
            auto it = leader.find(r);
            if (it == leader.end())
                return r;
            r = it->second;
        }
    };
    auto invalidate = [&](int rd) {
        leader.erase(rd);
        for (auto it = leader.begin(); it != leader.end();)
            it = it->second == rd ? leader.erase(it) : std::next(it);
        for (auto it = table.begin(); it != table.end();)
            it = (it->second == rd || it->first.a == rd ||
                  it->first.b == rd)
                     ? table.erase(it)
                     : std::next(it);
        defIdx.erase(rd);
    };

    for (size_t i = 0; i < f.code.size(); ++i) {
        MInst &m = f.code[i];
        if (m.op == MOp::Label) {
            // Join point: facts from the fall-through path need not
            // hold on other incoming edges.
            resetBlock();
            continue;
        }
        // Rewrite virtual operands through the leader table.
        DefUse du = instDefUse(m);
        auto remap = [&](int r) {
            return isVreg(r) ? resolve(r) : r;
        };
        if (du.nuse > 0) {
            switch (m.op) {
            case MOp::Sb:
            case MOp::Sh:
            case MOp::Sw:
                m.rs1 = remap(m.rs1);
                m.rs2 = remap(m.rs2);
                break;
            default:
                if (m.rs1 >= 0)
                    m.rs1 = remap(m.rs1);
                if (m.rs2 >= 0)
                    m.rs2 = remap(m.rs2);
                break;
            }
        }
        if (du.def < 0)
            continue;
        int rd = m.rd;
        if (!isVreg(rd)) {
            // Physical defs (firmware ABI setup) are never renamed.
            continue;
        }
        invalidate(rd);
        // srai rd, x, 31 of something already 0/1-or-sign-extended
        // is redundant: sext(sext(v)) and sext(bool) fold.
        if (m.op == MOp::Srai && m.imm == 31 && isVreg(m.rs1)) {
            auto dit = defIdx.find(m.rs1);
            if (dit != defIdx.end()) {
                const MInst &d = f.code[dit->second];
                bool isBool = d.op == MOp::Slt ||
                              d.op == MOp::Sltu ||
                              d.op == MOp::Slti ||
                              d.op == MOp::Sltiu;
                bool isSext = d.op == MOp::Srai && d.imm == 31;
                if (isBool) {
                    m.op = MOp::Copy;
                    m.rs1 = 0; // x0: sign of a 0/1 value is 0
                    m.imm = 0;
                } else if (isSext) {
                    m.op = MOp::Copy;
                    m.rs1 = d.rd;
                    m.imm = 0;
                }
            }
        }
        if (m.op == MOp::Copy) {
            if (isVreg(m.rs1) || m.rs1 == 0) {
                // Later uses in this block read the source directly;
                // the copy itself dies in the DCE pass if nothing
                // outside the block needs rd.
                if (m.rs1 != rd)
                    leader[rd] = m.rs1;
            }
            defIdx[rd] = i;
            continue;
        }
        // CSE pure ops whose operands are vregs/x0 (physical
        // registers are mutated by firmware calls; never number
        // them).
        bool operandsOk = (m.rs1 < 0 || isVreg(m.rs1) || m.rs1 == 0) &&
                          (m.rs2 < 0 || isVreg(m.rs2) || m.rs2 == 0);
        if (mopIsPure(m.op) && operandsOk) {
            LvnKey key{m.op, m.rs1, m.rs2, m.imm};
            auto it = table.find(key);
            if (it != table.end()) {
                m.op = MOp::Copy;
                m.rs1 = it->second;
                m.rs2 = -1;
                m.imm = 0;
                if (m.rs1 != rd)
                    leader[rd] = m.rs1;
                defIdx[rd] = i;
                continue;
            }
            table[key] = rd;
        }
        defIdx[rd] = i;
    }

    // Pass 2: global dead-code elimination to a fixed point. An
    // instruction is dead when it writes an unused vreg and has no
    // side effects (volatile loads keep MMIO ordering alive).
    while (true) {
        std::unordered_map<int, int> uses;
        for (const MInst &m : f.code) {
            DefUse du = instDefUse(m);
            for (int u = 0; u < du.nuse; ++u)
                if (isVreg(du.use[u]))
                    ++uses[du.use[u]];
        }
        std::vector<MInst> kept;
        kept.reserve(f.code.size());
        bool changed = false;
        for (const MInst &m : f.code) {
            bool dead = false;
            if (isVreg(m.rd) && !m.vol &&
                (mopIsPure(m.op) || mopIsLoad(m.op))) {
                if (m.op == MOp::Copy && m.rs1 == m.rd)
                    dead = true; // self-copy
                else if (uses[m.rd] == 0)
                    dead = true;
            }
            if (dead) {
                ++removed;
                changed = true;
            } else {
                kept.push_back(m);
            }
        }
        f.code = std::move(kept);
        if (!changed)
            break;
    }
    return removed;
}

} // namespace rvgen
} // namespace pld
