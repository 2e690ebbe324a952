#include "interp/exec.h"

#include <cmath>

namespace pld {
namespace interp {

using ir::ExprKind;

namespace {

using Wide = __int128;

Wide
shiftWide(Wide v, int sh)
{
    if (sh >= 0)
        return v << sh;
    return v >> (-sh); // arithmetic: AP_TRN truncation toward -inf
}

/** Wrap @p v to node @p n's result type. */
int64_t
wrap(Wide v, const Node &n)
{
    return wrapBits(static_cast<uint64_t>(v), n.spare, n.isSigned);
}

} // namespace

OperatorExec::OperatorExec(const ir::OperatorFn &fn,
                           std::vector<dataflow::StreamPort *> ports)
    : prog(fn), code(prog.code.data()), nodes(prog.nodes.data()),
      reads(prog.reads.data()),
      endPc(static_cast<uint32_t>(prog.code.size())),
      ports(std::move(ports))
{
    pld_assert(this->ports.size() == prog.numPorts,
               "%s: %zu ports supplied, operator has %zu",
               prog.name.c_str(), this->ports.size(), prog.numPorts);
    owned.resize(prog.arrays.size());
    arrayData.resize(prog.arrays.size());
    reset();
}

void
OperatorExec::reset()
{
    vars.assign(prog.numVars, 0);
    for (size_t i = 0; i < prog.arrays.size(); ++i) {
        const ArraySpec &a = prog.arrays[i];
        if (a.shared) {
            arrayData[i] = a.image.data();
            continue;
        }
        if (a.image.empty())
            owned[i].assign(static_cast<size_t>(a.size), 0);
        else
            owned[i] = a.image;
        arrayData[i] = owned[i].data();
    }
    pc = 0;
    stats_ = ExecStats{};
    prints.clear();
}

inline int64_t
OperatorExec::operand(uint32_t node)
{
    // Most operands are leaves: read them without a call.
    const Node &e = nodes[node];
    if (e.kind == ExprKind::VarRef)
        return vars[static_cast<size_t>(e.imm)];
    if (e.kind == ExprKind::Const)
        return e.imm;
    return eval(node);
}

int64_t
OperatorExec::eval(uint32_t node)
{
    const Node &e = nodes[node];
    switch (e.kind) {
      case ExprKind::Const:
        return e.imm;
      case ExprKind::VarRef:
        return vars[static_cast<size_t>(e.imm)];
      case ExprKind::ArrayRef: {
        ++stats_.memOps;
        int64_t idx = operand(e.a);
        const ArraySpec &a = prog.arrays[static_cast<size_t>(e.imm)];
        pld_assert(idx >= 0 && idx < a.size,
                   "%s: array %s index %lld out of bounds [0,%lld)",
                   prog.name.c_str(), a.name.c_str(),
                   static_cast<long long>(idx),
                   static_cast<long long>(a.size));
        return arrayData[static_cast<size_t>(e.imm)]
                        [static_cast<size_t>(idx)];
      }
      case ExprKind::StreamRead:
        ++stats_.streamReads;
        return static_cast<int64_t>(
            ports[static_cast<size_t>(e.imm)]->read());
      case ExprKind::Cast:
        ++stats_.computeOps;
        if (e.plain)
            return wrap(operand(e.a), e);
        return wrap(shiftWide(operand(e.a), e.sh0), e);
      case ExprKind::BitCast:
        ++stats_.computeOps;
        return wrap(static_cast<uint64_t>(operand(e.a)) &
                        static_cast<uint64_t>(e.imm),
                    e);
      case ExprKind::Neg: {
        ++stats_.computeOps;
        uint64_t a = static_cast<uint64_t>(operand(e.a));
        return wrap(shiftWide(static_cast<int64_t>(0 - a), e.sh0), e);
      }
      case ExprKind::Not:
        ++stats_.computeOps;
        return wrap(shiftWide(~operand(e.a), e.sh0), e);
      case ExprKind::LNot:
        ++stats_.computeOps;
        return operand(e.a) == 0 ? 1 : 0;
      case ExprKind::Select:
        ++stats_.computeOps;
        return operand(e.a) != 0 ? operand(e.b) : operand(e.c);
      default:
        break;
    }

    // Binary operators: left operand first.
    ++stats_.computeOps;
    const int64_t a = operand(e.a);
    if (e.kind == ExprKind::Shl || e.kind == ExprKind::Shr) {
        int sh = static_cast<int>(operand(e.b));
        Wide v = e.kind == ExprKind::Shl
                     ? static_cast<Wide>(a) << sh
                     : shiftWide(a, -sh);
        return wrap(shiftWide(v, e.sh0), e);
    }
    const int64_t b = operand(e.b);
    if (e.plain) {
        // No binary point to align: the low 64 bits of the exact
        // result are those of 64-bit arithmetic.
        const uint64_t ua = static_cast<uint64_t>(a);
        const uint64_t ub = static_cast<uint64_t>(b);
        switch (e.kind) {
          case ExprKind::Add: return wrap(ua + ub, e);
          case ExprKind::Sub: return wrap(ua - ub, e);
          case ExprKind::Mul: return wrap(ua * ub, e);
          case ExprKind::And: return wrap(ua & ub, e);
          case ExprKind::Or: return wrap(ua | ub, e);
          case ExprKind::Xor: return wrap(ua ^ ub, e);
          case ExprKind::Lt: return a < b;
          case ExprKind::Le: return a <= b;
          case ExprKind::Gt: return a > b;
          case ExprKind::Ge: return a >= b;
          case ExprKind::Eq: return a == b;
          case ExprKind::Ne: return a != b;
          default: break;
        }
    }
    switch (e.kind) {
      case ExprKind::Add:
        return wrap(shiftWide(shiftWide(a, e.sh0) + shiftWide(b, e.sh1),
                              e.sh2),
                    e);
      case ExprKind::Sub:
        return wrap(shiftWide(shiftWide(a, e.sh0) - shiftWide(b, e.sh1),
                              e.sh2),
                    e);
      case ExprKind::Mul:
        return wrap(shiftWide(static_cast<Wide>(a) * b, e.sh2), e);
      case ExprKind::Div:
        if (b == 0)
            return 0;
        // Truncates toward zero.
        return wrap(shiftWide(a, e.sh0) / static_cast<Wide>(b), e);
      case ExprKind::Mod:
        if (b == 0)
            return 0;
        return wrap(static_cast<Wide>(a) % static_cast<Wide>(b), e);
      case ExprKind::And:
      case ExprKind::Or:
      case ExprKind::Xor: {
        uint64_t A = static_cast<uint64_t>(shiftWide(a, e.sh0));
        uint64_t B = static_cast<uint64_t>(shiftWide(b, e.sh1));
        uint64_t r = e.kind == ExprKind::And   ? (A & B)
                     : e.kind == ExprKind::Or ? (A | B)
                                               : (A ^ B);
        return wrap(shiftWide(static_cast<int64_t>(r), e.sh2), e);
      }
      case ExprKind::Lt:
        return shiftWide(a, e.sh0) < shiftWide(b, e.sh1);
      case ExprKind::Le:
        return shiftWide(a, e.sh0) <= shiftWide(b, e.sh1);
      case ExprKind::Gt:
        return shiftWide(a, e.sh0) > shiftWide(b, e.sh1);
      case ExprKind::Ge:
        return shiftWide(a, e.sh0) >= shiftWide(b, e.sh1);
      case ExprKind::Eq:
        return shiftWide(a, e.sh0) == shiftWide(b, e.sh1);
      case ExprKind::Ne:
        return shiftWide(a, e.sh0) != shiftWide(b, e.sh1);
      case ExprKind::LAnd:
        return (a != 0 && b != 0) ? 1 : 0;
      case ExprKind::LOr:
        return (a != 0 || b != 0) ? 1 : 0;
      default:
        pld_panic("unhandled expr kind %s", ir::exprKindName(e.kind));
    }
}

RunStatus
OperatorExec::run(uint64_t max_statements)
{
    for (uint64_t executed = 0; pc != endPc; ++executed) {
        if (executed >= max_statements)
            return RunStatus::Budget;
        const Insn &in = code[pc];
        // A statement fires only when all its streams can: only this
        // operator reads its inputs, so a blocked statement re-polled
        // finds the same stream blocked until it can fire.
        for (uint32_t r = in.readBegin; r != in.readEnd; ++r) {
            const int32_t port = reads[r];
            if (!ports[static_cast<size_t>(port)]->canRead()) {
                blockedPort = port;
                return RunStatus::BlockedOnRead;
            }
        }
        const size_t slot = static_cast<size_t>(in.slot);
        switch (in.op) {
          case Op::Assign:
            vars[slot] = eval(in.expr);
            ++pc;
            break;
          case Op::ArrayStore: {
            ++stats_.memOps;
            int64_t idx = eval(in.expr);
            int64_t val = eval(in.expr2);
            const ArraySpec &a = prog.arrays[slot];
            pld_assert(idx >= 0 && idx < a.size,
                       "%s: array %s store index %lld out of bounds",
                       prog.name.c_str(), a.name.c_str(),
                       static_cast<long long>(idx));
            owned[slot][static_cast<size_t>(idx)] = val;
            ++pc;
            break;
          }
          case Op::StreamWrite: {
            dataflow::StreamPort *port = ports[slot];
            if (!port->canWrite()) {
                blockedPort = in.slot;
                return RunStatus::BlockedOnWrite;
            }
            ++stats_.streamWrites;
            port->write(static_cast<uint32_t>(
                static_cast<uint64_t>(eval(in.expr))));
            ++pc;
            break;
          }
          case Op::Print:
            if (printsEnabled) {
                const PrintSpec &ps = prog.prints[slot];
                std::string line = ps.prefix;
                for (const PrintSpec::Arg &arg : ps.args) {
                    int64_t v = eval(arg.expr);
                    line += " " + (arg.fixed
                                       ? std::to_string(std::ldexp(
                                             static_cast<double>(v),
                                             -arg.fracBits))
                                       : std::to_string(v));
                }
                prints.push_back(std::move(line));
            }
            ++pc;
            break;
          case Op::For:
            vars[slot] = in.lo;
            pc = in.lo < in.hi ? pc + 1 : in.target;
            break;
          case Op::While:
            pc = eval(in.expr) != 0 ? pc + 1 : in.target;
            break;
          case Op::If:
            pc = eval(in.expr) != 0 ? in.target : in.target2;
            break;
          case Op::Block:
          case Op::End:
            ++pc;
            break;
          case Op::ForEnd: {
            int64_t v = vars[slot] + in.step;
            vars[slot] = v;
            pc = v < in.hi ? in.target : pc + 1;
            break;
          }
          case Op::WhileEnd:
            pc = eval(in.expr) != 0 ? in.target : pc + 1;
            break;
          case Op::Exit:
            pc = in.target;
            break;
        }
        stats_.statements += isStatement(in.op);
    }
    return RunStatus::Done;
}

} // namespace interp
} // namespace pld
