/**
 * @file
 * An operator lowered once for the interpreter.
 *
 * A Program is the flat, immutable form of an OperatorFn that
 * OperatorExec runs. Statements sit in one array with their jump
 * targets resolved; each body ends in an explicit end-of-body entry
 * (the For increment, the While re-test, the If/Block exit, the
 * operator's end). Every entry costs exactly one run() step, so the
 * step sequence, and with it the HW-page timing model's per-poll
 * charge, is the structured interpreter's. Expressions are flat nodes
 * with child indices, their binary-point shifts and result wraps
 * precomputed. ROM images are canonicalised here once, and a ROM that
 * no statement stores to is read in place on every run (DESIGN.md §2,
 * "The interpreter Program").
 */

#ifndef PLD_INTERP_PROGRAM_H
#define PLD_INTERP_PROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/operator_fn.h"

namespace pld {
namespace interp {

/** The low 64 - @p spare bits of @p bits, sign-extended when
 * @p is_signed: a value of a type @p spare bits narrower than 64. */
inline int64_t
wrapBits(uint64_t bits, int spare, bool is_signed)
{
    bits <<= spare;
    return is_signed ? static_cast<int64_t>(bits) >> spare
                     : static_cast<int64_t>(bits >> spare);
}

/** One expression node. Children are indices into Program::nodes. */
struct Node
{
    ir::ExprKind kind = ir::ExprKind::Const;
    /** Every shift is zero, so 64-bit arithmetic gives the result. */
    bool plain = false;
    /** Result wrap: keep the low 64 - `spare` bits, sign-extending
     * them when `isSigned`. */
    uint8_t spare = 0;
    bool isSigned = false;
    /**
     * Binary-point shifts, by kind: Cast/Neg/Not/Shl/Shr sh0 = result
     * minus operand fraction bits; Add/Sub/And/Or/Xor/compares align
     * operands with sh0/sh1 and (not compares) quantize the result
     * with sh2; Mul quantizes with sh2; Div pre-shifts with sh0.
     */
    int16_t sh0 = 0, sh1 = 0, sh2 = 0;
    uint32_t a = 0, b = 0, c = 0;
    /** Const value; var, array or port index; BitCast source mask. */
    int64_t imm = 0;
};

/** Program entry kinds. Statements first, then end-of-body entries. */
enum class Op : uint8_t {
    Assign,      ///< vars[slot] = expr
    ArrayStore,  ///< array slot [expr] = expr2
    StreamWrite, ///< write expr to port slot
    Print,       ///< Program::prints[slot]
    For,         ///< vars[slot] = lo; enter the body if lo < hi
    While,       ///< enter the body if expr, else go to target
    If,          ///< go to target if expr, else to target2
    Block,       ///< enter the body
    ForEnd,      ///< vars[slot] += step; back to target while < hi
    WhileEnd,    ///< back to target while expr
    Exit,        ///< end of an If branch or a Block: go to target
    End,         ///< end of the operator body
};

/** True for the entries that count as ExecStats::statements. */
inline bool
isStatement(Op op)
{
    return op < Op::ForEnd;
}

/** One Program entry; unused fields stay zero. */
struct Insn
{
    Op op = Op::End;
    /** Variable, array, port or print index. */
    int32_t slot = 0;
    /** Root nodes: the value, index, or condition. */
    uint32_t expr = 0, expr2 = 0;
    /** The statement's stream reads, Program::reads[readBegin,
     * readEnd), in the pre-order of its operand trees. */
    uint32_t readBegin = 0, readEnd = 0;
    /** Resolved jump targets (entry indices). For skips to target
     * when it does not enter its body. */
    uint32_t target = 0, target2 = 0;
    /** For/ForEnd: the loop bounds and step. */
    int64_t lo = 0, hi = 0, step = 0;
};

/** One Print statement. */
struct PrintSpec
{
    /** "<operator>: <text>". */
    std::string prefix;
    struct Arg
    {
        uint32_t expr;
        int fracBits;
        bool fixed;
    };
    std::vector<Arg> args;
};

/** One local array. */
struct ArraySpec
{
    std::string name;
    int64_t size = 0;
    /** Canonicalised contents, ROMs only (empty otherwise). */
    std::vector<int64_t> image;
    /** A ROM that no statement stores to: runs read the image in
     * place. Other arrays are copied or zeroed at every reset. */
    bool shared = false;
};

/** An OperatorFn lowered for OperatorExec; immutable once built. */
struct Program
{
    explicit Program(const ir::OperatorFn &fn);

    std::string name;
    std::vector<Insn> code;
    std::vector<Node> nodes;
    /** Port indices of every statement's stream reads. */
    std::vector<int32_t> reads;
    std::vector<PrintSpec> prints;
    std::vector<ArraySpec> arrays;
    size_t numVars = 0;
    size_t numPorts = 0;
};

} // namespace interp
} // namespace pld

#endif // PLD_INTERP_PROGRAM_H
