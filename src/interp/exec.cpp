#include "interp/exec.h"

#include <algorithm>
#include <cmath>

namespace pld {
namespace interp {

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

int64_t
canonicalize(uint64_t bits, const Type &t)
{
    bits &= maskBits(t.width);
    if (t.isSigned() && t.width < 64) {
        uint64_t m = 1ull << (t.width - 1);
        return static_cast<int64_t>((bits ^ m) - m);
    }
    return static_cast<int64_t>(bits);
}

Wide
shiftWide(Wide v, int sh)
{
    if (sh >= 0)
        return v << sh;
    return v >> (-sh); // arithmetic: AP_TRN truncation toward -inf
}

} // namespace

OperatorExec::OperatorExec(const ir::OperatorFn &fn,
                           std::vector<dataflow::StreamPort *> ports)
    : fnRef(fn), ports(std::move(ports))
{
    pld_assert(this->ports.size() == fn.ports.size(),
               "%s: %zu ports supplied, operator has %zu",
               fn.name.c_str(), this->ports.size(), fn.ports.size());
    reset();
}

void
OperatorExec::reset()
{
    vars.assign(fnRef.vars.size(), 0);
    arrays.clear();
    arrays.reserve(fnRef.arrays.size());
    for (const auto &a : fnRef.arrays) {
        std::vector<int64_t> store(static_cast<size_t>(a.size), 0);
        // ROM words live in elemType-wide storage on every real
        // target (BRAM, softcore data memory), so non-canonical init
        // raws must wrap to the element width here too — found by
        // pldfuzz as an interp-vs-rvgen divergence.
        for (size_t i = 0; i < a.init.size(); ++i)
            store[i] = canonicalize(static_cast<uint64_t>(a.init[i]),
                                    a.elemType);
        arrays.push_back(std::move(store));
    }
    frames.clear();
    frames.push_back({&fnRef.body, 0, nullptr});
    blockedPort = -1;
    started = true;
    stats_ = ExecStats{};
    prints.clear();
}

int64_t
OperatorExec::quantizeTo(int64_t v, int src_frac, const Type &t)
{
    Wide w = shiftWide(static_cast<Wide>(v), t.fracBits() - src_frac);
    return canonicalize(static_cast<uint64_t>(w), t);
}

int
OperatorExec::blockedRead(const ExprPtr &e) const
{
    if (e->kind == ExprKind::StreamRead) {
        int port = static_cast<int>(e->imm);
        if (!ports[port]->canRead())
            return port;
    }
    for (const auto &a : e->args) {
        int port = blockedRead(a);
        if (port >= 0)
            return port;
    }
    return -1;
}

RunStatus
OperatorExec::streamsReady(const Stmt &s, int &port) const
{
    for (const auto &e : s.args) {
        port = blockedRead(e);
        if (port >= 0)
            return RunStatus::BlockedOnRead;
    }
    if (s.kind == StmtKind::StreamWrite) {
        port = static_cast<int>(s.imm);
        if (!ports[port]->canWrite())
            return RunStatus::BlockedOnWrite;
    }
    return RunStatus::Done;
}

int64_t
OperatorExec::evalExpr(const ExprPtr &e)
{
    const Type &t = e->type;
    switch (e->kind) {
      case ExprKind::Const:
        return e->imm;
      case ExprKind::VarRef:
        return vars[static_cast<size_t>(e->imm)];
      case ExprKind::ArrayRef: {
        ++stats_.memOps;
        int64_t idx = evalExpr(e->args[0]);
        auto &store = arrays[static_cast<size_t>(e->imm)];
        pld_assert(idx >= 0 &&
                       idx < static_cast<int64_t>(store.size()),
                   "%s: array %s index %lld out of bounds [0,%zu)",
                   fnRef.name.c_str(),
                   fnRef.arrays[e->imm].name.c_str(),
                   static_cast<long long>(idx), store.size());
        return store[static_cast<size_t>(idx)];
      }
      case ExprKind::StreamRead: {
        ++stats_.streamReads;
        uint32_t w = ports[static_cast<size_t>(e->imm)]->read();
        return static_cast<int64_t>(w);
      }
      case ExprKind::Cast: {
        ++stats_.computeOps;
        int64_t a = evalExpr(e->args[0]);
        return quantizeTo(a, e->args[0]->type.fracBits(), t);
      }
      case ExprKind::BitCast: {
        ++stats_.computeOps;
        int64_t a = evalExpr(e->args[0]);
        uint64_t raw = static_cast<uint64_t>(a) &
                       maskBits(e->args[0]->type.width);
        return canonicalize(raw, t);
      }
      case ExprKind::Neg: {
        ++stats_.computeOps;
        int64_t a = evalExpr(e->args[0]);
        return quantizeTo(static_cast<int64_t>(-a),
                          e->args[0]->type.fracBits(), t);
      }
      case ExprKind::Not: {
        ++stats_.computeOps;
        int64_t a = evalExpr(e->args[0]);
        return quantizeTo(~a, e->args[0]->type.fracBits(), t);
      }
      case ExprKind::LNot: {
        ++stats_.computeOps;
        return evalExpr(e->args[0]) == 0 ? 1 : 0;
      }
      case ExprKind::Select: {
        ++stats_.computeOps;
        int64_t c = evalExpr(e->args[0]);
        return evalExpr(c != 0 ? e->args[1] : e->args[2]);
      }
      default:
        break;
    }

    // Binary operators.
    pld_assert(ir::isBinary(e->kind), "unhandled expr kind");
    ++stats_.computeOps;
    const ExprPtr &lhs = e->args[0];
    const ExprPtr &rhs = e->args[1];
    int64_t a = evalExpr(lhs);
    int fa = lhs->type.fracBits();

    if (e->kind == ExprKind::Shl || e->kind == ExprKind::Shr) {
        int sh = static_cast<int>(evalExpr(rhs));
        Wide v = (e->kind == ExprKind::Shl)
                     ? (static_cast<Wide>(a) << sh)
                     : shiftWide(static_cast<Wide>(a), -sh);
        Wide q = shiftWide(v, t.fracBits() - fa);
        return canonicalize(static_cast<uint64_t>(q), t);
    }

    int64_t b = evalExpr(rhs);
    int fb = rhs->type.fracBits();

    switch (e->kind) {
      case ExprKind::Add:
      case ExprKind::Sub: {
        int f = std::max(fa, fb);
        Wide A = shiftWide(a, f - fa);
        Wide B = shiftWide(b, f - fb);
        Wide r = (e->kind == ExprKind::Add) ? A + B : A - B;
        Wide q = shiftWide(r, t.fracBits() - f);
        return canonicalize(static_cast<uint64_t>(q), t);
      }
      case ExprKind::Mul: {
        Wide r = static_cast<Wide>(a) * static_cast<Wide>(b);
        Wide q = shiftWide(r, t.fracBits() - (fa + fb));
        return canonicalize(static_cast<uint64_t>(q), t);
      }
      case ExprKind::Div: {
        if (b == 0)
            return 0;
        int sh = t.fracBits() - fa + fb;
        Wide num = shiftWide(a, sh);
        Wide q = num / static_cast<Wide>(b); // truncates toward zero
        return canonicalize(static_cast<uint64_t>(q), t);
      }
      case ExprKind::Mod: {
        if (b == 0)
            return 0;
        Wide q = static_cast<Wide>(a) % static_cast<Wide>(b);
        return canonicalize(static_cast<uint64_t>(q), t);
      }
      case ExprKind::And:
      case ExprKind::Or:
      case ExprKind::Xor: {
        int f = std::max(fa, fb);
        uint64_t A = static_cast<uint64_t>(shiftWide(a, f - fa));
        uint64_t B = static_cast<uint64_t>(shiftWide(b, f - fb));
        uint64_t r = e->kind == ExprKind::And   ? (A & B)
                     : e->kind == ExprKind::Or ? (A | B)
                                               : (A ^ B);
        return quantizeTo(static_cast<int64_t>(r), f, t);
      }
      case ExprKind::Lt:
      case ExprKind::Le:
      case ExprKind::Gt:
      case ExprKind::Ge:
      case ExprKind::Eq:
      case ExprKind::Ne: {
        int f = std::max(fa, fb);
        Wide A = shiftWide(a, f - fa);
        Wide B = shiftWide(b, f - fb);
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
        return (a != 0 && b != 0) ? 1 : 0;
      case ExprKind::LOr:
        return (a != 0 || b != 0) ? 1 : 0;
      default:
        pld_panic("unhandled binary kind %s",
                  ir::exprKindName(e->kind));
    }
}

RunStatus
OperatorExec::step()
{
    // A blocked statement stays blocked while the stream that blocked
    // it cannot fire: only this operator reads its input streams, so
    // reads found ready before it stay ready, and the statement has
    // not moved.
    if (blockedPort >= 0) {
        const dataflow::StreamPort *p = ports[blockedPort];
        if (blockedOn == RunStatus::BlockedOnRead ? !p->canRead()
                                                  : !p->canWrite())
            return blockedOn;
        blockedPort = -1;
    }

    Frame &top = frames.back();
    if (top.idx >= top.stmts->size()) {
        retireFrame();
        return RunStatus::Done;
    }

    const StmtPtr &sp = (*top.stmts)[top.idx];
    const Stmt &s = *sp;

    int port = -1;
    RunStatus ready = streamsReady(s, port);
    if (ready != RunStatus::Done) {
        blockedPort = port;
        blockedOn = ready;
        return ready;
    }

    switch (s.kind) {
      case StmtKind::Assign:
        vars[static_cast<size_t>(s.imm)] = evalExpr(s.args[0]);
        ++top.idx;
        break;
      case StmtKind::ArrayStore: {
        ++stats_.memOps;
        int64_t idx = evalExpr(s.args[0]);
        int64_t val = evalExpr(s.args[1]);
        auto &store = arrays[static_cast<size_t>(s.imm)];
        pld_assert(idx >= 0 &&
                       idx < static_cast<int64_t>(store.size()),
                   "%s: array %s store index %lld out of bounds",
                   fnRef.name.c_str(),
                   fnRef.arrays[s.imm].name.c_str(),
                   static_cast<long long>(idx));
        store[static_cast<size_t>(idx)] = val;
        ++top.idx;
        break;
      }
      case StmtKind::StreamWrite: {
        ++stats_.streamWrites;
        int64_t val = evalExpr(s.args[0]);
        ports[static_cast<size_t>(s.imm)]->write(
            static_cast<uint32_t>(static_cast<uint64_t>(val)));
        ++top.idx;
        break;
      }
      case StmtKind::For: {
        vars[static_cast<size_t>(s.imm)] = s.immLo;
        if (s.immLo >= s.immHi || s.body.empty()) {
            ++top.idx;
        } else {
            frames.push_back({&s.body, 0, &s});
        }
        break;
      }
      case StmtKind::While: {
        int64_t c = evalExpr(s.args[0]);
        if (c != 0 && !s.body.empty())
            frames.push_back({&s.body, 0, &s});
        else
            ++top.idx;
        break;
      }
      case StmtKind::If: {
        int64_t c = evalExpr(s.args[0]);
        const auto &branch = (c != 0) ? s.body : s.elseBody;
        if (branch.empty())
            ++top.idx;
        else
            frames.push_back({&branch, 0, &s});
        break;
      }
      case StmtKind::Print: {
        if (printsEnabled) {
            std::string line = fnRef.name + ": " + s.text;
            for (const auto &e : s.args) {
                int64_t v = evalExpr(e);
                double shown = std::ldexp(
                    static_cast<double>(v), -e->type.fracBits());
                line += " " + (e->type.isFixed()
                                   ? std::to_string(shown)
                                   : std::to_string(v));
            }
            prints.push_back(std::move(line));
        }
        ++top.idx;
        break;
      }
      case StmtKind::Block:
        if (s.body.empty())
            ++top.idx;
        else
            frames.push_back({&s.body, 0, &s});
        break;
    }
    ++stats_.statements;
    return RunStatus::Done;
}

void
OperatorExec::retireFrame()
{
    Frame done_frame = frames.back();
    const Stmt *owner = done_frame.owner;

    if (owner && owner->kind == StmtKind::For) {
        int64_t v = vars[static_cast<size_t>(owner->imm)] +
                    owner->immStep;
        vars[static_cast<size_t>(owner->imm)] = v;
        if (v < owner->immHi) {
            frames.back().idx = 0;
            return;
        }
    } else if (owner && owner->kind == StmtKind::While) {
        // Re-evaluate the condition (validator guarantees no stream
        // reads inside it, so this cannot block).
        int64_t c = evalExpr(owner->args[0]);
        if (c != 0) {
            frames.back().idx = 0;
            return;
        }
    }

    frames.pop_back();
    if (!frames.empty())
        ++frames.back().idx;
}

RunStatus
OperatorExec::run(uint64_t max_statements)
{
    uint64_t executed = 0;
    while (!frames.empty()) {
        if (executed >= max_statements)
            return RunStatus::Budget;
        RunStatus st = step();
        if (st != RunStatus::Done)
            return st;
        ++executed;
    }
    return RunStatus::Done;
}

} // namespace interp
} // namespace pld
