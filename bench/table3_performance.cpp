/**
 * Reproduces Table 3: Rosetta benchmark performance — Fmax and
 * per-input latency for the Vitis baseline, PLD -O3, PLD -O1
 * (overlay/NoC at 200 MHz), PLD -O0 (softcores), plus the X86 native
 * execution (median wall clock of five runs of the functional KPN
 * runtime) and a Vitis-Emu-style estimate (functional simulation
 * slowdown). Beside them, the interpreter statements each item
 * costs: a work count a rerun reproduces exactly, where the two
 * wall-clock columns move by up to about 1.7x between invocations.
 *
 * Shape to check: -O3 ~ Vitis, -O1 1.5-10x slower than monolithic,
 * -O0 orders of magnitude slower again (paper Table 3).
 */

#include "bench_common.h"

#include "common/stopwatch.h"
#include "dataflow/runtime.h"

using namespace pld;
using namespace pld::flow;

int
main()
{
    double effort = bench::benchEffort(4.0);
    auto benches = rosetta::allBenchmarks();

    Table t("Table 3: Rosetta Benchmark Performance "
            "(per logical input item)");
    t.addRow({"Benchmark", "vitis:Fmax", "t/in", "O3:Fmax", "t/in",
              "O1:Fmax", "t/in", "O0:Fmax", "t/in", "x86 t/in",
              "emu t/in", "stmts/in"});

    for (auto &bm : benches) {
        PldCompiler pc(bench::device(), bench::compileOptions(effort));
        AppBuild vit = pc.build(bm.graph, OptLevel::Vitis);
        AppBuild o3 = pc.build(bm.graph, OptLevel::O3);
        AppBuild o1 = pc.build(bm.graph, OptLevel::O1);
        AppBuild o0 = pc.build(bm.graph, OptLevel::O0);

        auto vit_rs = bench::execute(bm, vit);
        auto o3_rs = bench::execute(bm, o3);
        auto o1_rs = bench::execute(bm, o1);
        auto o0_rs = bench::execute(bm, o0);

        // X86 native: wall clock of the compiled functional model,
        // the median of five fresh runs (single runs are noisy).
        std::vector<double> runs;
        uint64_t stmts = 0;
        for (int rep = 0; rep < 5; ++rep) {
            Stopwatch sw;
            dataflow::GraphRuntime rt(bm.graph);
            rt.pushInput(0, bm.input);
            rt.run();
            runs.push_back(sw.seconds());
            stmts = rt.totalStatements();
        }
        std::sort(runs.begin(), runs.end());
        double x86_t = runs[runs.size() / 2] / double(bm.itemsPerRun);
        // Vitis-Emu-style RTL simulation: model as ~50x the native
        // functional run (RTL simulators interpret the netlist).
        double emu_t = x86_t * 50.0;

        t.row(bm.name, fmtDouble(vit.fmaxMHz, 0) + "MHz",
              fmtSeconds(bench::perInputSeconds(bm, vit, vit_rs)),
              fmtDouble(o3.fmaxMHz, 0) + "MHz",
              fmtSeconds(bench::perInputSeconds(bm, o3, o3_rs)),
              fmtDouble(o1.fmaxMHz, 0) + "MHz",
              fmtSeconds(bench::perInputSeconds(bm, o1, o1_rs)),
              fmtDouble(o0.fmaxMHz, 0) + "MHz",
              fmtSeconds(bench::perInputSeconds(bm, o0, o0_rs)),
              fmtSeconds(x86_t), fmtSeconds(emu_t),
              fmtDouble(double(stmts) / double(bm.itemsPerRun), 0));
    }
    t.print();
    std::printf(
        "(paper: -O1 1.5-10x slower than monolithic; -O0 3-5 orders "
        "slower; -O3 sometimes beats Vitis via pipelined links)\n");
    return 0;
}
