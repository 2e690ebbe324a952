/**
 * Reproduces Table 2: Rosetta benchmark compile time by stage (hls /
 * syn / p&r / bitgen) for the Vitis baseline flow, PLD -O3, PLD -O1
 * (parallel page compiles; the stage value is the slowest operator,
 * matching the paper's per-operator cluster nodes), and PLD -O0.
 *
 * Absolute times are scaled (our backend is a simulator); the claims
 * to check are the ratios: -O1 is several-fold faster than the
 * monolithic flows, and -O0 compiles orders of magnitude faster
 * still (paper: 1-2 h monolithic, 10-20 min -O1, <4 s -O0).
 *
 * Beside the wall-clock speedup, two placer-work ratios that a rerun
 * reproduces exactly (pure functions of effort and seed): the
 * critical-path ratio, Vitis placer moves over the largest -O1
 * page's, and the total-work ratio, summed -O1 page moves over the
 * Vitis moves.
 */

#include "bench_common.h"

using namespace pld;
using namespace pld::flow;

int
main()
{
    double effort = bench::benchEffort(25.0);
    auto benches = rosetta::allBenchmarks();

    Table t("Table 2: Rosetta Benchmark Compile Time (seconds, "
            "simulated backend)");
    t.addRow({"Benchmark",
              "vitis:hls", "syn", "p&r", "bit", "total",
              "O3:total", "O1:hls", "syn", "p&r", "bit", "total",
              "O0:total", "O1 speedup", "crit work", "total work"});

    for (auto &bm : benches) {
        PldCompiler pc(bench::device(), bench::compileOptions(effort));
        AppBuild vit = pc.build(bm.graph, OptLevel::Vitis);
        AppBuild o3 = pc.build(bm.graph, OptLevel::O3);
        pc.clearCache();
        AppBuild o1 = pc.build(bm.graph, OptLevel::O1);
        AppBuild o0 = pc.build(bm.graph, OptLevel::O0);

        const StageTimes &vit_w = vit.wallTimes;
        const StageTimes &o3_w = o3.wallTimes;
        const StageTimes &o1_w = o1.wallTimes;
        const StageTimes &o0_w = o0.wallTimes;
        double speedup =
            vit_w.total() / std::max(1e-9, o1_w.total());
        uint64_t page_max = 0, page_sum = 0;
        for (const auto &op : o1.ops) {
            page_max = std::max(page_max, op.pnr.placeMoves);
            page_sum += op.pnr.placeMoves;
        }
        double vit_moves = double(vit.monoPnr.placeMoves);
        double crit_work = vit_moves / std::max(1.0, double(page_max));
        double total_work = double(page_sum) / std::max(1.0, vit_moves);
        t.row(bm.name, fmtDouble(vit_w.hls, 3),
              fmtDouble(vit_w.syn, 3),
              fmtDouble(vit_w.pnr, 3),
              fmtDouble(vit_w.bitgen, 3),
              fmtDouble(vit_w.total(), 3),
              fmtDouble(o3_w.total(), 3),
              fmtDouble(o1_w.hls, 3),
              fmtDouble(o1_w.syn, 3),
              fmtDouble(o1_w.pnr, 3),
              fmtDouble(o1_w.bitgen, 3),
              fmtDouble(o1_w.total(), 3),
              fmtDouble(o0_w.total(), 4),
              fmtDouble(speedup, 1) + "x",
              fmtDouble(crit_work, 2) + "x",
              fmtDouble(total_work, 2) + "x");
    }
    t.print();
    std::printf("(paper: monolithic 3942-6584s; -O1 578-1152s => "
                "4.2-7.3x; -O0 1.0-3.4s)\n"
                "(crit work: vitis placer moves / largest -O1 page's; "
                "total work: summed -O1 page moves / vitis moves)\n");
    return 0;
}
