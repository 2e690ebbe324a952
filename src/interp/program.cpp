#include "interp/program.h"

#include <algorithm>

namespace pld {
namespace interp {

using ir::ExprKind;
using ir::ExprPtr;
using ir::Stmt;
using ir::StmtKind;
using ir::StmtPtr;

namespace {

uint64_t
maskBits(int w)
{
    return w >= 64 ? ~0ull : ((1ull << w) - 1);
}

/** Builds a Program's tables from the statement and expression trees. */
class Lowering
{
  public:
    explicit Lowering(Program &p) : p(p) {}

    void
    body(const std::vector<StmtPtr> &stmts)
    {
        for (const StmtPtr &s : stmts)
            stmt(*s);
    }

    /** Unshare every array a statement in @p stmts stores to. */
    void
    unshareStored(const std::vector<StmtPtr> &stmts)
    {
        for (const StmtPtr &s : stmts) {
            if (s->kind == StmtKind::ArrayStore)
                p.arrays[static_cast<size_t>(s->imm)].shared = false;
            unshareStored(s->body);
            unshareStored(s->elseBody);
        }
    }

  private:
    uint32_t
    here() const
    {
        return static_cast<uint32_t>(p.code.size());
    }

    /** Append @p in; returns its index. */
    uint32_t
    emit(const Insn &in)
    {
        p.code.push_back(in);
        return here() - 1;
    }

    /** If-branch or Block exit that jumps to @p target. */
    void
    emitExit(uint32_t target)
    {
        Insn exit;
        exit.op = Op::Exit;
        exit.target = target;
        emit(exit);
    }

    void
    collectReads(const ir::Expr &e)
    {
        if (e.kind == ExprKind::StreamRead)
            p.reads.push_back(static_cast<int32_t>(e.imm));
        for (const ExprPtr &a : e.args)
            collectReads(*a);
    }

    uint32_t
    expr(const ExprPtr &e)
    {
        Node n;
        n.kind = e->kind;
        n.imm = e->imm;
        n.spare = static_cast<uint8_t>(64 - e->type.width);
        n.isSigned = e->type.isSigned();
        if (!e->args.empty())
            n.a = expr(e->args[0]);
        if (e->args.size() > 1)
            n.b = expr(e->args[1]);
        if (e->args.size() > 2)
            n.c = expr(e->args[2]);

        const int ft = e->type.fracBits();
        const int fa = e->args.empty() ? 0 : e->args[0]->type.fracBits();
        const int fb = e->args.size() > 1 ? e->args[1]->type.fracBits()
                                          : 0;
        const int f = std::max(fa, fb);
        switch (e->kind) {
          case ExprKind::Cast:
          case ExprKind::Neg:
          case ExprKind::Not:
          case ExprKind::Shl:
          case ExprKind::Shr:
            n.sh0 = static_cast<int16_t>(ft - fa);
            break;
          case ExprKind::BitCast:
            n.imm = static_cast<int64_t>(
                maskBits(e->args[0]->type.width));
            break;
          case ExprKind::Add:
          case ExprKind::Sub:
          case ExprKind::And:
          case ExprKind::Or:
          case ExprKind::Xor:
            n.sh2 = static_cast<int16_t>(ft - f);
            [[fallthrough]];
          case ExprKind::Lt:
          case ExprKind::Le:
          case ExprKind::Gt:
          case ExprKind::Ge:
          case ExprKind::Eq:
          case ExprKind::Ne:
            n.sh0 = static_cast<int16_t>(f - fa);
            n.sh1 = static_cast<int16_t>(f - fb);
            break;
          case ExprKind::Mul:
            n.sh2 = static_cast<int16_t>(ft - (fa + fb));
            break;
          case ExprKind::Div:
            n.sh0 = static_cast<int16_t>(ft - fa + fb);
            break;
          default:
            break;
        }
        n.plain = n.sh0 == 0 && n.sh1 == 0 && n.sh2 == 0;
        p.nodes.push_back(n);
        return static_cast<uint32_t>(p.nodes.size() - 1);
    }

    void
    stmt(const Stmt &s)
    {
        Insn in;
        in.slot = static_cast<int32_t>(s.imm);
        in.readBegin = static_cast<uint32_t>(p.reads.size());
        for (const ExprPtr &e : s.args)
            collectReads(*e);
        in.readEnd = static_cast<uint32_t>(p.reads.size());

        switch (s.kind) {
          case StmtKind::Assign:
            in.op = Op::Assign;
            in.expr = expr(s.args[0]);
            emit(in);
            break;
          case StmtKind::ArrayStore:
            in.op = Op::ArrayStore;
            in.expr = expr(s.args[0]);
            in.expr2 = expr(s.args[1]);
            emit(in);
            break;
          case StmtKind::StreamWrite:
            in.op = Op::StreamWrite;
            in.expr = expr(s.args[0]);
            emit(in);
            break;
          case StmtKind::Print: {
            in.op = Op::Print;
            in.slot = static_cast<int32_t>(p.prints.size());
            PrintSpec ps;
            ps.prefix = p.name + ": " + s.text;
            for (const ExprPtr &e : s.args)
                ps.args.push_back({expr(e), e->type.fracBits(),
                                   e->type.isFixed()});
            p.prints.push_back(std::move(ps));
            emit(in);
            break;
          }
          case StmtKind::For: {
            in.op = Op::For;
            in.lo = s.immLo;
            in.hi = s.immHi;
            in.step = s.immStep;
            uint32_t head = emit(in);
            if (!s.body.empty()) {
                body(s.body);
                Insn end;
                end.op = Op::ForEnd;
                end.slot = in.slot;
                end.hi = in.hi;
                end.step = in.step;
                end.target = head + 1;
                emit(end);
            }
            p.code[head].target = here();
            break;
          }
          case StmtKind::While: {
            in.op = Op::While;
            in.expr = expr(s.args[0]);
            uint32_t head = emit(in);
            if (!s.body.empty()) {
                body(s.body);
                // The re-test checks no stream: the validator allows
                // no read in a while condition.
                Insn end;
                end.op = Op::WhileEnd;
                end.expr = in.expr;
                end.target = head + 1;
                emit(end);
            }
            p.code[head].target = here();
            break;
          }
          case StmtKind::If: {
            in.op = Op::If;
            in.expr = expr(s.args[0]);
            uint32_t head = emit(in);
            uint32_t then_exit = 0;
            if (!s.body.empty()) {
                body(s.body);
                then_exit = here();
                emitExit(0); // patched below
            }
            uint32_t else_start = here();
            if (!s.elseBody.empty()) {
                body(s.elseBody);
                emitExit(here() + 1);
            }
            uint32_t exit = here();
            p.code[head].target = s.body.empty() ? exit : head + 1;
            p.code[head].target2 =
                s.elseBody.empty() ? exit : else_start;
            if (!s.body.empty())
                p.code[then_exit].target = exit;
            break;
          }
          case StmtKind::Block:
            in.op = Op::Block;
            emit(in);
            if (!s.body.empty()) {
                body(s.body);
                emitExit(here() + 1);
            }
            break;
        }
    }

    Program &p;
};

} // namespace

Program::Program(const ir::OperatorFn &fn)
    : name(fn.name), numVars(fn.vars.size()), numPorts(fn.ports.size())
{
    arrays.reserve(fn.arrays.size());
    for (const ir::ArrayDecl &a : fn.arrays) {
        ArraySpec spec;
        spec.name = a.name;
        spec.size = a.size;
        spec.shared = a.isRom();
        if (a.isRom()) {
            // ROM words live in elemType-wide storage on every real
            // target (BRAM, softcore data memory), so non-canonical
            // init raws wrap to the element width here too — found by
            // pldfuzz as an interp-vs-rvgen divergence.
            spec.image.assign(static_cast<size_t>(a.size), 0);
            size_t n = std::min(a.init.size(), spec.image.size());
            for (size_t i = 0; i < n; ++i)
                spec.image[i] = wrapBits(static_cast<uint64_t>(a.init[i]),
                                         64 - a.elemType.width,
                                         a.elemType.isSigned());
        }
        arrays.push_back(std::move(spec));
    }

    Lowering lower(*this);
    lower.unshareStored(fn.body);
    lower.body(fn.body);
    Insn end;
    end.op = Op::End;
    code.push_back(end);
}

} // namespace interp
} // namespace pld
