#include <gtest/gtest.h>

#include "dataflow/stream.h"
#include "interp/exec.h"
#include "ir/builder.h"

using namespace pld;
using namespace pld::ir;
using interp::OperatorExec;
using interp::RunStatus;

namespace {

/** Harness wiring one operator to input/output FIFOs. */
struct Rig
{
    explicit Rig(const OperatorFn &fn, size_t cap = 0)
        : fn(fn), inFifo(cap), outFifo(cap), inPort(inFifo),
          outPort(outFifo)
    {
        std::vector<dataflow::StreamPort *> ports;
        for (const auto &p : fn.ports) {
            ports.push_back(p.dir == PortDir::In
                                ? static_cast<dataflow::StreamPort *>(
                                      &inPort)
                                : &outPort);
        }
        // Note: pass the member copy, not the parameter — OperatorExec
        // keeps a reference to the operator for its whole lifetime.
        exec = std::make_unique<OperatorExec>(this->fn, ports);
    }

    std::vector<uint32_t>
    drain()
    {
        std::vector<uint32_t> out;
        while (outFifo.canPop())
            out.push_back(outFifo.pop());
        return out;
    }

    OperatorFn fn;
    dataflow::WordFifo inFifo, outFifo;
    dataflow::FifoReadPort inPort;
    dataflow::FifoWritePort outPort;
    std::unique_ptr<OperatorExec> exec;
};

OperatorFn
makeDoubler(int n)
{
    OpBuilder b("doubler");
    auto in = b.input("in");
    auto out = b.output("out");
    b.forLoop(0, n, [&](Ex) {
        Ex x = b.read(in).bitcast(Type::s(32));
        b.write(out, x * 2);
    });
    return b.finish();
}

} // namespace

TEST(Exec, DoublerDoubles)
{
    Rig rig(makeDoubler(4));
    for (uint32_t v : {1u, 2u, 3u, 4u})
        rig.inFifo.push(v);
    EXPECT_EQ(rig.exec->run(), RunStatus::Done);
    EXPECT_TRUE(rig.exec->done());
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{2, 4, 6, 8}));
}

TEST(Exec, BlocksOnEmptyInputThenResumes)
{
    Rig rig(makeDoubler(2));
    EXPECT_EQ(rig.exec->run(), RunStatus::BlockedOnRead);
    EXPECT_FALSE(rig.exec->done());
    rig.inFifo.push(10);
    EXPECT_EQ(rig.exec->run(), RunStatus::BlockedOnRead);
    rig.inFifo.push(20);
    EXPECT_EQ(rig.exec->run(), RunStatus::Done);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{20, 40}));
}

TEST(Exec, BlocksOnFullOutput)
{
    Rig rig(makeDoubler(3), 1); // capacity-1 FIFOs
    rig.inFifo.push(5);
    // Consumes 5, writes 10 (fits), then blocks reading input.
    EXPECT_EQ(rig.exec->run(), RunStatus::BlockedOnRead);
    rig.inFifo.push(6);
    // Output still holds 10, so the write of 12 backpressures.
    EXPECT_EQ(rig.exec->run(), RunStatus::BlockedOnWrite);
    EXPECT_EQ(rig.outFifo.pop(), 10u);
    EXPECT_EQ(rig.exec->run(), RunStatus::BlockedOnRead);
    EXPECT_EQ(rig.outFifo.pop(), 12u);
}

TEST(Exec, BudgetReturnsAndResumes)
{
    Rig rig(makeDoubler(100));
    for (uint32_t i = 0; i < 100; ++i)
        rig.inFifo.push(i);
    int slices = 0;
    while (rig.exec->run(10) == RunStatus::Budget)
        ++slices;
    EXPECT_TRUE(rig.exec->done());
    EXPECT_GT(slices, 2);
    EXPECT_EQ(rig.drain().size(), 100u);
}

TEST(Exec, StatsCountWork)
{
    Rig rig(makeDoubler(4));
    for (uint32_t i = 0; i < 4; ++i)
        rig.inFifo.push(i);
    rig.exec->run();
    const auto &st = rig.exec->stats();
    EXPECT_EQ(st.streamReads, 4u);
    EXPECT_EQ(st.streamWrites, 4u);
    EXPECT_GT(st.computeOps, 0u);
    EXPECT_GE(st.statements, 5u);
}

TEST(Exec, ResetRestoresInitialState)
{
    Rig rig(makeDoubler(2));
    rig.inFifo.push(1);
    rig.inFifo.push(2);
    rig.exec->run();
    EXPECT_TRUE(rig.exec->done());
    rig.exec->reset();
    EXPECT_FALSE(rig.exec->done());
    rig.inFifo.push(3);
    rig.inFifo.push(4);
    EXPECT_EQ(rig.exec->run(), RunStatus::Done);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{2, 4, 6, 8}));
}

TEST(Exec, RomAndArrayAccess)
{
    OpBuilder b("weighted");
    auto in = b.input("in");
    auto out = b.output("out");
    auto w = b.rom("w", Type::s(32), {2.0, 3.0, 5.0, 7.0});
    b.forLoop(0, 4, [&](Ex i) {
        Ex x = b.read(in).bitcast(Type::s(32));
        b.write(out, x * w[i]);
    });
    Rig rig(b.finish());
    for (uint32_t i = 1; i <= 4; ++i)
        rig.inFifo.push(i);
    rig.exec->run();
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{2, 6, 15, 28}));
}

TEST(Exec, IfElseBranches)
{
    OpBuilder b("classify");
    auto in = b.input("in");
    auto out = b.output("out");
    b.forLoop(0, 4, [&](Ex) {
        Ex x = b.read(in).bitcast(Type::s(32));
        auto y = b.var("y" + std::to_string(0), Type::s(32));
        b.ifElse(
            x > 10, [&] { b.set(y, lit(1)); },
            [&] { b.set(y, lit(0)); });
        b.write(out, y);
    });
    Rig rig(b.finish());
    for (uint32_t v : {5u, 15u, 10u, 11u})
        rig.inFifo.push(v);
    rig.exec->run();
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{0, 1, 0, 1}));
}

TEST(Exec, WhileLoopRuns)
{
    OpBuilder b("countdown");
    auto in = b.input("in");
    auto out = b.output("out");
    auto n = b.var("n", Type::s(32));
    auto steps = b.var("steps", Type::s(32));
    b.set(n, b.read(in).bitcast(Type::s(32)));
    b.set(steps, lit(0));
    b.whileLoop(Ex(n) > 0,
                [&] {
                    b.set(n, Ex(n) - 1);
                    b.set(steps, Ex(steps) + 1);
                },
                10);
    b.write(out, steps);
    Rig rig(b.finish());
    rig.inFifo.push(7);
    EXPECT_EQ(rig.exec->run(), RunStatus::Done);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{7}));
}

TEST(Exec, PrintCapturedWhenEnabled)
{
    OpBuilder b("printer");
    auto in = b.input("in");
    auto out = b.output("out");
    Ex x = b.read(in).bitcast(Type::s(32));
    b.print("got value");
    b.write(out, x);
    Rig rig(b.finish());
    rig.exec->setPrintsEnabled(true);
    rig.inFifo.push(9);
    rig.exec->run();
    ASSERT_EQ(rig.exec->printLog().size(), 1u);
    EXPECT_NE(rig.exec->printLog()[0].find("got value"),
              std::string::npos);
}

TEST(Exec, PrintSuppressedByDefault)
{
    OpBuilder b("quiet");
    auto in = b.input("in");
    auto out = b.output("out");
    b.print("secret");
    b.write(out, b.read(in));
    Rig rig(b.finish());
    rig.inFifo.push(1);
    rig.exec->run();
    EXPECT_TRUE(rig.exec->printLog().empty());
}

TEST(Exec, NestedLoopOrder)
{
    OpBuilder b("nest");
    auto out = b.output("out");
    b.forLoop(0, 3, [&](Ex r) {
        b.forLoop(0, 2, [&](Ex c) { b.write(out, r * 2 + c); });
    });
    Rig rig(b.finish());
    rig.exec->run();
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(Exec, EmptyLoopRangeSkips)
{
    OpBuilder b("empty");
    auto out = b.output("out");
    b.forLoop(5, 5, [&](Ex) { b.write(out, lit(1, Type::u(32))); });
    b.write(out, lit(42, Type::u(32)));
    Rig rig(b.finish());
    EXPECT_EQ(rig.exec->run(), RunStatus::Done);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{42}));
}

// -------- step granularity ------------------------------------------
//
// The HW-page model polls run(1) and charges each step's
// computeOps + memOps, so where the interpreter spends a step and what
// each step counts is simulated timing. These cases pin shapes the
// Rosetta apps may never reach.

namespace {

/**
 * Step @p e with run(1) until it ends or blocks (at most @p limit
 * steps). One token per step: D(one), B(udget), R(ead-blocked) or
 * W(rite-blocked), then the computeOps + memOps the step added.
 */
std::string
stepTrace(OperatorExec &e, int limit = 64)
{
    std::string s;
    for (int i = 0; i < limit; ++i) {
        const interp::ExecStats &st = e.stats();
        uint64_t before = st.computeOps + st.memOps;
        RunStatus rs = e.run(1);
        const char *tag = rs == RunStatus::Done            ? "D"
                          : rs == RunStatus::Budget        ? "B"
                          : rs == RunStatus::BlockedOnRead ? "R"
                                                           : "W";
        s += (s.empty() ? "" : " ") + std::string(tag) +
             std::to_string(st.computeOps + st.memOps - before);
        if (rs != RunStatus::Budget)
            break;
    }
    return s;
}

} // namespace

TEST(ExecSteps, ZeroTripForTakesOneStep)
{
    OpBuilder b("zero_trip");
    auto out = b.output("out");
    b.forLoop(5, 5, [&](Ex i) { b.write(out, i + 1); });
    b.forLoop(0, 3, [&](Ex) {}); // positive trip, empty body
    b.write(out, lit(42, Type::u(32)));
    Rig rig(b.finish());
    // Each For is one step with nothing pushed and no end-of-body
    // step; the write counts its raw-word cast.
    EXPECT_EQ(stepTrace(*rig.exec), "B0 B0 B1 D0");
    EXPECT_EQ(rig.exec->stats().statements, 3u);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{42}));
}

TEST(ExecSteps, IfWithEmptyThenAndNonEmptyElse)
{
    OpBuilder b("if_else_only");
    auto in = b.input("in");
    auto out = b.output("out");
    auto x = b.var("x", Type::s(32));
    auto y = b.var("y", Type::s(32));
    b.set(x, b.read(in).bitcast(Type::s(32)));
    b.ifElse(
        Ex(x) > 10, [&] {},
        [&] {
            b.set(y, Ex(x) + 1);
            b.set(y, Ex(y) * 3);
        });
    b.write(out, y);
    OperatorFn fn = b.finish();

    // set (bitcast, cast), If (compare), then per branch statement a
    // step, the branch's end step, the write and the body's end.
    Rig taken(fn);
    taken.inFifo.push(4);
    EXPECT_EQ(stepTrace(*taken.exec), "B2 B1 B2 B2 B0 B1 D0");
    EXPECT_EQ(taken.drain(), (std::vector<uint32_t>{15}));

    Rig skipped(fn); // empty then branch: the If step alone
    skipped.inFifo.push(20);
    EXPECT_EQ(stepTrace(*skipped.exec), "B2 B1 B1 D0");
    EXPECT_EQ(skipped.drain(), (std::vector<uint32_t>{0}));
}

TEST(ExecSteps, EmptyBlockAndWhileBodies)
{
    OpBuilder b("empty_bodies");
    auto out = b.output("out");
    auto n = b.var("n", Type::s(32));
    b.set(n, lit(3));
    // A While with a true condition and an empty body falls through
    // after one test, as a zero-trip loop does.
    b.whileLoop(Ex(n) > 0, [&] {}, 4);
    b.write(out, n);
    auto inc = makeStmt(StmtKind::Assign);
    inc->imm = n.idx;
    inc->args.push_back((Ex(n) + 1).cast(n.type).node());
    OperatorFn fn = b.finish();
    // The builder has no Block; splice two in after the first set.
    auto empty = makeStmt(StmtKind::Block);
    auto full = makeStmt(StmtKind::Block);
    full->body.push_back(inc);
    fn.body.insert(fn.body.begin() + 1, empty);
    fn.body.insert(fn.body.begin() + 2, full);
    Rig rig(fn);
    // set, empty Block, Block, its body, its end, While, write, end.
    EXPECT_EQ(stepTrace(*rig.exec), "B1 B0 B0 B2 B0 B1 B1 D0");
    EXPECT_EQ(rig.exec->stats().statements, 6u);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{4}));
}

TEST(ExecSteps, WhileRetestCountsArrayLoads)
{
    OpBuilder b("scan");
    auto out = b.output("out");
    auto rom = b.romRaw("r", Type::s(32), {1, 2, 3, 7, 9});
    auto i = b.var("i", Type::s(32));
    b.set(i, lit(0));
    b.whileLoop(rom[Ex(i)] < 5, [&] { b.set(i, Ex(i) + 1); }, 4);
    b.write(out, i);
    Rig rig(b.finish());
    // The test and every re-test load rom[i] and compare (2 ops); the
    // re-test is the body's end step and counts no statement.
    EXPECT_EQ(stepTrace(*rig.exec),
              "B1 B2 B2 B2 B2 B2 B2 B2 B1 D0");
    EXPECT_EQ(rig.exec->stats().statements, 6u);
    EXPECT_EQ(rig.exec->stats().memOps, 4u);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{3}));
}

TEST(ExecSteps, SelectEvaluatesOnlyTheTakenArm)
{
    OpBuilder b("lazy_select");
    auto in = b.input("in");
    auto out = b.output("out");
    auto arr = b.array("a", Type::s(32), 4);
    auto x = b.var("x", Type::s(32));
    b.set(x, b.read(in).bitcast(Type::s(32)));
    // The untaken arm indexes far out of bounds: it must neither count
    // nor trip the bounds check.
    b.write(out, b.select(Ex(x) > 0, Ex(x) * 2, arr[lit(1000)]));
    b.write(out, b.select(Ex(x) > 0, arr[Ex(x) - 1], arr[lit(-7)]));
    Rig rig(b.finish());
    rig.inFifo.push(3);
    EXPECT_EQ(stepTrace(*rig.exec), "B2 B4 B5 D0");
    EXPECT_EQ(rig.exec->stats().memOps, 1u);
    EXPECT_EQ(rig.drain(), (std::vector<uint32_t>{6, 0}));
}

TEST(ExecSteps, DisabledPrintStillBlocksOnItsRead)
{
    OpBuilder b("quiet_read");
    auto in = b.input("in");
    auto out = b.output("out");
    b.print("peek", {b.read(in).bitcast(Type::s(32)) + 1});
    b.write(out, b.read(in));
    OperatorFn fn = b.finish();

    Rig off(fn);
    EXPECT_EQ(stepTrace(*off.exec), "R0");
    EXPECT_EQ(stepTrace(*off.exec), "R0");
    off.inFifo.push(8);
    // The disabled Print waits for its word but neither evaluates nor
    // consumes it; the write then reads it.
    EXPECT_EQ(stepTrace(*off.exec), "B0 B1 D0");
    EXPECT_EQ(off.exec->stats().streamReads, 1u);
    EXPECT_TRUE(off.exec->printLog().empty());
    EXPECT_EQ(off.drain(), (std::vector<uint32_t>{8}));

    Rig on(fn);
    on.exec->setPrintsEnabled(true);
    on.inFifo.push(8);
    on.inFifo.push(5);
    EXPECT_EQ(stepTrace(*on.exec), "B2 B1 D0");
    ASSERT_EQ(on.exec->printLog().size(), 1u);
    EXPECT_EQ(on.exec->printLog()[0], "quiet_read: peek 9");
    EXPECT_EQ(on.drain(), (std::vector<uint32_t>{5}));
}
