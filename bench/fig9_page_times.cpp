/**
 * Reproduces Fig 9: the distribution of per-page (-O1) operator
 * mapping times for each benchmark. Prints min / median / max plus an
 * ASCII strip per benchmark — the claim being that pages within one
 * design vary several-fold, so typical incremental recompiles are
 * cheaper than the worst page (paper: 10 vs 20 minutes).
 */

#include <algorithm>

#include "bench_common.h"

using namespace pld;
using namespace pld::flow;

int
main()
{
    double effort = bench::benchEffort(25.0);
    auto benches = rosetta::allBenchmarks();

    Table t("Figure 9: Operators Mapping Time for PLD -O1 "
            "(seconds per page)");
    t.addRow({"Benchmark", "pages", "min", "median", "max",
              "per-page times"});

    for (auto &bm : benches) {
        PldCompiler pc(bench::device(), bench::compileOptions(effort));
        AppBuild o1 = pc.build(bm.graph, OptLevel::O1);

        // The same samples pld.page.seconds records for this build.
        std::vector<double> times = bench::pageSeconds(o1);
        std::string strip;
        for (double s : times)
            strip += fmtDouble(s, 2) + " ";
        t.row(bm.name, times.size(), fmtDouble(times.front(), 2),
              fmtDouble(times[times.size() / 2], 2),
              fmtDouble(times.back(), 2), strip);
    }
    t.print();
    std::printf("(paper: page mapping times spread ~500-1200s within "
                "one design)\n");
    return 0;
}
