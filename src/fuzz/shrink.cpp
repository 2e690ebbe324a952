#include "fuzz/shrink.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "fuzz/diff.h"
#include "fuzz/mutate.h"
#include "interp/exec.h"
#include "ir/validate.h"

namespace pld {
namespace fuzz {

namespace {

using ir::ExprKind;
using ir::ExprPtr;
using ir::StmtKind;
using ir::StmtPtr;

bool
exprHasStream(const ExprPtr &e)
{
    if (e->kind == ExprKind::StreamRead)
        return true;
    for (const auto &a : e->args)
        if (exprHasStream(a))
            return true;
    return false;
}

bool
stmtHasStream(const StmtPtr &s)
{
    if (s->kind == StmtKind::StreamWrite)
        return true;
    for (const auto &e : s->args)
        if (exprHasStream(e))
            return true;
    for (const auto &b : s->body)
        if (stmtHasStream(b))
            return true;
    for (const auto &b : s->elseBody)
        if (stmtHasStream(b))
            return true;
    return false;
}

GenCase
cloneCase(const GenCase &c)
{
    GenCase copy;
    copy.graph = cloneGraph(c.graph);
    copy.inputs = c.inputs;
    copy.seed = c.seed;
    copy.rounds = c.rounds;
    return copy;
}

struct Budget
{
    int remaining = 0;
    ShrinkStats stats;
};

/** Validate + evaluate one candidate; adopt it into @p best if the
 *  failure reproduces. */
bool
tryCandidate(GenCase &best, GenCase cand,
             const FailPredicate &still_fails, Budget &b)
{
    if (b.remaining <= 0)
        return false;
    if (!ir::isClean(ir::validateGraph(cand.graph)))
        return false;
    --b.remaining;
    ++b.stats.evals;
    if (!still_fails(cand))
        return false;
    ++b.stats.accepted;
    best = std::move(cand);
    return true;
}

// ---- site enumeration (over a candidate clone) ------------------

/** A deletable statement slot: owning list + index. */
struct StmtSite
{
    std::vector<StmtPtr> *list;
    size_t idx;
};

void
collectStmtSites(std::vector<StmtPtr> &list, bool deletable_only,
                 std::vector<StmtSite> &out)
{
    for (size_t i = 0; i < list.size(); ++i) {
        const StmtPtr &s = list[i];
        bool streamy = stmtHasStream(s);
        if (deletable_only) {
            if (!streamy)
                out.push_back({&list, i});
        } else {
            // Hoistable: control statement whose own subtree carries
            // no stream ops (round loops stay intact).
            bool control = s->kind == StmtKind::For ||
                           s->kind == StmtKind::While ||
                           s->kind == StmtKind::If;
            if (control && !streamy)
                out.push_back({&list, i});
        }
        collectStmtSites(s->body, deletable_only, out);
        collectStmtSites(s->elseBody, deletable_only, out);
    }
}

std::vector<StmtSite>
stmtSites(ir::Graph &g, bool deletable_only)
{
    std::vector<StmtSite> out;
    for (auto &inst : g.ops)
        collectStmtSites(inst.fn.body, deletable_only, out);
    return out;
}

/** An expression slot that can be replaced by a zero constant. */
void
collectExprSlots(ExprPtr &slot, std::vector<ExprPtr *> &out)
{
    bool zero_const =
        slot->kind == ExprKind::Const && slot->imm == 0;
    if (!exprHasStream(slot) && !zero_const)
        out.push_back(&slot);
    for (auto &a : slot->args)
        collectExprSlots(a, out);
}

void
collectExprSlotsStmts(std::vector<StmtPtr> &list,
                      std::vector<ExprPtr *> &out)
{
    for (auto &s : list) {
        for (auto &e : s->args)
            collectExprSlots(e, out);
        collectExprSlotsStmts(s->body, out);
        collectExprSlotsStmts(s->elseBody, out);
    }
}

std::vector<ExprPtr *>
exprSlots(ir::Graph &g)
{
    std::vector<ExprPtr *> out;
    for (auto &inst : g.ops)
        collectExprSlotsStmts(inst.fn.body, out);
    return out;
}

/** Variables whose width must not change: loop counters and while
 *  condition variables (loop-control semantics are width-sensitive
 *  across targets). */
void
collectProtectedVars(const std::vector<StmtPtr> &list,
                     std::vector<bool> &protect)
{
    for (const auto &s : list) {
        if (s->kind == StmtKind::For &&
            s->imm < static_cast<int64_t>(protect.size()))
            protect[s->imm] = true;
        if (s->kind == StmtKind::While && !s->args.empty()) {
            // Conservatively protect every variable in the condition.
            std::vector<const ir::Expr *> stack{s->args[0].get()};
            while (!stack.empty()) {
                const ir::Expr *e = stack.back();
                stack.pop_back();
                if (e->kind == ExprKind::VarRef &&
                    e->imm < static_cast<int64_t>(protect.size()))
                    protect[e->imm] = true;
                for (const auto &a : e->args)
                    stack.push_back(a.get());
            }
        }
        collectProtectedVars(s->body, protect);
        collectProtectedVars(s->elseBody, protect);
    }
}

// ---- passes -----------------------------------------------------

bool
passIsolateOperator(GenCase &best, const FailPredicate &still_fails,
                    Budget &b)
{
    const ir::Graph &g = best.graph;
    if (g.ops.size() <= 1)
        return false;

    // Replay operators in topological order to recover the words on
    // every internal link.
    std::vector<std::vector<std::vector<uint32_t>>> opIn(
        g.ops.size());
    std::vector<std::vector<std::vector<uint32_t>>> opOut(
        g.ops.size());
    std::vector<bool> done(g.ops.size(), false);
    for (size_t pass = 0; pass < g.ops.size(); ++pass) {
        for (size_t oi = 0; oi < g.ops.size(); ++oi) {
            if (done[oi])
                continue;
            const ir::OperatorFn &fn = g.ops[oi].fn;
            std::vector<std::vector<uint32_t>> ins;
            bool ready = true;
            for (size_t p = 0; p < fn.ports.size() && ready; ++p) {
                if (fn.ports[p].dir != ir::PortDir::In)
                    continue;
                int li = g.linkInto(
                    {static_cast<int>(oi), static_cast<int>(p)});
                pld_assert(li >= 0, "shrink: unwired input");
                const ir::Endpoint &src = g.links[li].src;
                if (src.isExternal()) {
                    ins.push_back(best.inputs[src.port]);
                } else if (done[src.op]) {
                    // Map the producer's overall port index to its
                    // output ordinal.
                    const ir::OperatorFn &sf = g.ops[src.op].fn;
                    int ord = 0;
                    for (int q = 0; q < src.port; ++q)
                        if (sf.ports[q].dir == ir::PortDir::Out)
                            ++ord;
                    ins.push_back(opOut[src.op][ord]);
                } else {
                    ready = false;
                }
            }
            if (!ready)
                continue;
            opIn[oi] = ins;
            opOut[oi] = runOperatorStandalone(fn, ins);
            done[oi] = opOut[oi].size() ==
                       static_cast<size_t>(fn.numOutputs());
        }
    }

    for (size_t oi = 0; oi < g.ops.size(); ++oi) {
        if (!done[oi])
            continue;
        const ir::OperatorFn &fn = g.ops[oi].fn;
        GenCase cand;
        cand.seed = best.seed;
        cand.rounds = best.rounds;
        ir::GraphBuilder gb(g.name);
        std::vector<ir::GraphBuilder::WireId> ins, outs;
        for (int p = 0; p < fn.numInputs(); ++p)
            ins.push_back(gb.extIn("src" + std::to_string(p)));
        for (int p = 0; p < fn.numOutputs(); ++p)
            outs.push_back(gb.extOut("dst" + std::to_string(p)));
        gb.inst(cloneOperator(fn), ins, outs);
        cand.graph = gb.finish();
        cand.inputs = opIn[oi];
        if (tryCandidate(best, std::move(cand), still_fails, b))
            return true;
    }
    return false;
}

bool
passReduceRounds(GenCase &best, const FailPredicate &still_fails,
                 Budget &b)
{
    bool any = false;
    while (best.rounds > 1 && b.remaining > 0) {
        std::vector<int> targets{1};
        if (best.rounds / 2 > 1)
            targets.push_back(best.rounds / 2);
        bool reduced = false;
        for (int r : targets) {
            if (r >= best.rounds)
                continue;
            GenCase cand = cloneCase(best);
            bool shaped = true;
            for (auto &inst : cand.graph.ops) {
                if (inst.fn.body.size() == 1 &&
                    inst.fn.body[0]->kind == StmtKind::For &&
                    inst.fn.body[0]->immHi == best.rounds) {
                    inst.fn.body[0]->immHi = r;
                } else {
                    shaped = false;
                }
            }
            if (!shaped)
                return any;
            cand.rounds = r;
            for (auto &words : cand.inputs)
                words.resize(static_cast<size_t>(r));
            if (tryCandidate(best, std::move(cand), still_fails,
                             b)) {
                any = reduced = true;
                break;
            }
        }
        if (!reduced)
            break;
    }
    return any;
}

bool
passDeleteStmts(GenCase &best, const FailPredicate &still_fails,
                Budget &b)
{
    bool any = false;
    size_t n = 0;
    while (b.remaining > 0) {
        GenCase cand = cloneCase(best);
        auto sites = stmtSites(cand.graph, /*deletable_only=*/true);
        if (n >= sites.size())
            break;
        sites[n].list->erase(sites[n].list->begin() +
                             static_cast<long>(sites[n].idx));
        if (tryCandidate(best, std::move(cand), still_fails, b))
            any = true; // sites shifted; retry same ordinal
        else
            ++n;
    }
    return any;
}

bool
passHoistBodies(GenCase &best, const FailPredicate &still_fails,
                Budget &b)
{
    bool any = false;
    size_t n = 0;
    while (b.remaining > 0) {
        GenCase cand = cloneCase(best);
        auto sites = stmtSites(cand.graph, /*deletable_only=*/false);
        if (n >= sites.size())
            break;
        std::vector<StmtPtr> &list = *sites[n].list;
        size_t i = sites[n].idx;
        StmtPtr s = list[i];
        list.erase(list.begin() + static_cast<long>(i));
        list.insert(list.begin() + static_cast<long>(i),
                    s->body.begin(), s->body.end());
        list.insert(list.begin() +
                        static_cast<long>(i + s->body.size()),
                    s->elseBody.begin(), s->elseBody.end());
        if (tryCandidate(best, std::move(cand), still_fails, b))
            any = true;
        else
            ++n;
    }
    return any;
}

bool
passZeroExprs(GenCase &best, const FailPredicate &still_fails,
              Budget &b)
{
    bool any = false;
    size_t n = 0;
    while (b.remaining > 0) {
        GenCase cand = cloneCase(best);
        auto slots = exprSlots(cand.graph);
        if (n >= slots.size())
            break;
        ir::Type t = (*slots[n])->type;
        *slots[n] = ir::makeConst(t, 0);
        if (tryCandidate(best, std::move(cand), still_fails, b))
            any = true;
        else
            ++n;
    }
    return any;
}

bool
passNarrowWidths(GenCase &best, const FailPredicate &still_fails,
                 Budget &b)
{
    bool any = false;
    size_t n = 0; // (op, var) flattened ordinal
    while (b.remaining > 0) {
        GenCase cand = cloneCase(best);
        // Find the n-th narrowable variable across all operators.
        size_t seen = 0;
        bool applied = false, exhausted = true;
        for (auto &inst : cand.graph.ops) {
            std::vector<bool> protect(inst.fn.vars.size(), false);
            collectProtectedVars(inst.fn.body, protect);
            for (size_t v = 0; v < inst.fn.vars.size(); ++v) {
                ir::Type &t = inst.fn.vars[v].type;
                if (protect[v] || t.width <= 1)
                    continue;
                exhausted = false;
                if (seen++ != n)
                    continue;
                int w = (t.width + 1) / 2;
                t.width = static_cast<uint8_t>(w);
                if (t.isFixed())
                    t.intBits = static_cast<int8_t>(
                        std::min<int>(t.intBits, w));
                else
                    t.intBits = static_cast<int8_t>(w);
                retypeOperator(inst.fn);
                applied = true;
                break;
            }
            if (applied)
                break;
        }
        (void)exhausted;
        if (!applied)
            break;
        if (tryCandidate(best, std::move(cand), still_fails, b))
            any = true; // same ordinal may narrow further
        else
            ++n;
    }
    return any;
}

bool
passZeroInputs(GenCase &best, const FailPredicate &still_fails,
               Budget &b)
{
    bool any = false;
    size_t n = 0;
    while (b.remaining > 0) {
        GenCase cand = cloneCase(best);
        size_t seen = 0;
        bool applied = false;
        for (auto &words : cand.inputs) {
            for (auto &w : words) {
                if (w == 0)
                    continue;
                if (seen++ != n)
                    continue;
                w = 0;
                applied = true;
                break;
            }
            if (applied)
                break;
        }
        if (!applied)
            break;
        if (tryCandidate(best, std::move(cand), still_fails, b))
            any = true; // word now zero; ordinal n indexes the next
        else
            ++n;
    }
    return any;
}

} // namespace

int
stmtCount(const ir::OperatorFn &fn)
{
    std::function<int(const std::vector<StmtPtr> &)> count =
        [&](const std::vector<StmtPtr> &list) {
            int n = 0;
            for (const auto &s : list) {
                ++n;
                n += count(s->body);
                n += count(s->elseBody);
            }
            return n;
        };
    return count(fn.body);
}

std::vector<std::vector<uint32_t>>
runOperatorStandalone(const ir::OperatorFn &fn,
                      const std::vector<std::vector<uint32_t>> &inputs)
{
    std::vector<std::vector<uint32_t>> out;
    runOnFifos(
        fn, inputs,
        [&](const std::vector<dataflow::StreamPort *> &ports) {
            interp::OperatorExec exec(fn, ports);
            return exec.run(100000000ull) == interp::RunStatus::Done;
        },
        &out);
    return out;
}

GenCase
shrinkCase(const GenCase &c, const FailPredicate &still_fails,
           int max_evals, ShrinkStats *stats)
{
    GenCase best = cloneCase(c);
    Budget b;
    b.remaining = max_evals;

    bool progress = true;
    while (progress && b.remaining > 0) {
        progress = false;
        progress |= passIsolateOperator(best, still_fails, b);
        progress |= passReduceRounds(best, still_fails, b);
        progress |= passDeleteStmts(best, still_fails, b);
        progress |= passHoistBodies(best, still_fails, b);
        progress |= passZeroExprs(best, still_fails, b);
        progress |= passNarrowWidths(best, still_fails, b);
        progress |= passZeroInputs(best, still_fails, b);
    }

    if (stats)
        *stats = b.stats;
    return best;
}

} // namespace fuzz
} // namespace pld
