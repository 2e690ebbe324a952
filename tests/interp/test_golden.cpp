/**
 * @file
 * Interpreter golden: per-operator ExecStats, print logs, step traces
 * and output words of the six Rosetta apps and the pldfuzz corpus.
 *
 * The HW-page timing model charges `computeOps + memOps` per poll of
 * `OperatorExec::run(1)`, so the interpreter's counts and its step
 * granularity are simulated behaviour, not just statistics. Any change
 * to the interpreter that claims bit-identical results must keep these
 * values.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hash.h"
#include "dataflow/runtime.h"
#include "fuzz/corpus.h"
#include "interp/exec.h"
#include "rosetta/benchmark.h"

#ifndef PLD_FUZZ_CORPUS_DIR
#define PLD_FUZZ_CORPUS_DIR "tests/fuzz/corpus"
#endif

using namespace pld;
using interp::RunStatus;

namespace {

/** What one operator did over a whole run. */
struct OpRecord
{
    uint64_t statements = 0;
    uint64_t computeOps = 0;
    uint64_t streamReads = 0;
    uint64_t streamWrites = 0;
    uint64_t memOps = 0;
    /** Digest of the print log (prints enabled). */
    uint64_t prints = 0;
    /** Digest of the run(1) trace: per step, the status returned and
     * the `computeOps + memOps` it added. */
    uint64_t trace = 0;

    bool
    operator==(const OpRecord &o) const
    {
        return statements == o.statements &&
               computeOps == o.computeOps &&
               streamReads == o.streamReads &&
               streamWrites == o.streamWrites && memOps == o.memOps &&
               prints == o.prints && trace == o.trace;
    }
};

/** A graph's records: one per operator plus its output words. */
struct GraphRecord
{
    std::vector<OpRecord> ops;
    uint64_t outputs = 0;
};

/**
 * Run @p g on @p inputs with prints enabled, stepping every operator
 * with run(1): each turn runs one operator until it blocks or ends,
 * in index order, like GraphRuntime::run.
 */
GraphRecord
recordGraph(const ir::Graph &g,
            const std::vector<std::vector<uint32_t>> &inputs)
{
    dataflow::GraphRuntime rt(g);
    rt.setPrintsEnabled(true);
    for (size_t i = 0; i < inputs.size(); ++i)
        rt.pushInput(static_cast<int>(i), inputs[i]);

    const size_t n = g.ops.size();
    std::vector<Hasher> trace(n);
    for (bool progress = true; progress;) {
        progress = false;
        for (size_t oi = 0; oi < n; ++oi) {
            interp::OperatorExec &e = rt.exec(static_cast<int>(oi));
            while (!e.done()) {
                const interp::ExecStats &st = e.stats();
                uint64_t before = st.computeOps + st.memOps;
                RunStatus rs = e.run(1);
                trace[oi].u64(static_cast<uint64_t>(rs));
                trace[oi].u64(st.computeOps + st.memOps - before);
                if (rs == RunStatus::BlockedOnRead ||
                    rs == RunStatus::BlockedOnWrite)
                    break;
                progress = true;
            }
        }
    }

    GraphRecord r;
    for (size_t oi = 0; oi < n; ++oi) {
        const interp::OperatorExec &e = rt.exec(static_cast<int>(oi));
        EXPECT_TRUE(e.done()) << g.name << " " << g.ops[oi].instName
                              << " never finished";
        const interp::ExecStats &st = e.stats();
        Hasher prints;
        for (const std::string &line : e.printLog())
            prints.str(line);
        r.ops.push_back({st.statements, st.computeOps, st.streamReads,
                         st.streamWrites, st.memOps, prints.digest(),
                         trace[oi].digest()});
    }
    Hasher out;
    for (size_t i = 0; i < g.extOutputs.size(); ++i) {
        for (uint32_t w : rt.takeOutput(static_cast<int>(i)))
            out.u64(w);
        out.u64(~0ull); // stream separator
    }
    r.outputs = out.digest();
    return r;
}

struct GoldenGraph
{
    const char *name;
    uint64_t outputs;
    std::vector<OpRecord> ops;
};

/** Print @p r as a GoldenGraph initializer, for regenerating. */
std::string
initializer(const std::string &name, const GraphRecord &r)
{
    char buf[256];
    std::snprintf(buf, sizeof buf, "        {\"%s\", 0x%016" PRIx64
                                   "ull,\n         {\n",
                  name.c_str(), r.outputs);
    std::string s = buf;
    for (const OpRecord &o : r.ops) {
        std::snprintf(buf, sizeof buf,
                      "             {%" PRIu64 ", %" PRIu64 ", %" PRIu64
                      ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64
                      "ull,\n              0x%016" PRIx64 "ull},\n",
                      o.statements, o.computeOps, o.streamReads,
                      o.streamWrites, o.memOps, o.prints, o.trace);
        s += buf;
    }
    return s + "         }},\n";
}

void
expectGolden(const GoldenGraph &want, const GraphRecord &got)
{
    bool same = want.outputs == got.outputs &&
                want.ops.size() == got.ops.size();
    for (size_t i = 0; same && i < got.ops.size(); ++i) {
        EXPECT_EQ(want.ops[i], got.ops[i])
            << want.name << " operator " << i;
        same = want.ops[i] == got.ops[i];
    }
    EXPECT_TRUE(same) << want.name << " record is now:\n"
                      << initializer(want.name, got);
}

} // namespace

TEST(Interp, GoldenExecStats)
{
    // Rows: statements, computeOps, streamReads, streamWrites,
    // memOps, print-log digest, step-trace digest.
    const std::vector<GoldenGraph> golden = {
        {"3D Rendering", 0xa29a3169b341ed75ull,
         {
             {673, 2880, 216, 432, 0, 0xcbf29ce484222325ull,
              0x5c6d18c986cd2426ull},
             {12745, 119870, 216, 3072, 55882, 0xcbf29ce484222325ull,
              0xb662d817b1d6ab26ull},
             {12745, 119939, 216, 3072, 55813, 0xcbf29ce484222325ull,
              0xb662d817b1d6ab26ull},
             {6298, 30639, 3072, 128, 12207, 0xcbf29ce484222325ull,
              0x192252c26f17fc63ull},
             {6298, 30671, 3072, 128, 12239, 0xcbf29ce484222325ull,
              0x3f8f2a4718019963ull},
             {258, 256, 256, 256, 0, 0xcbf29ce484222325ull,
              0x41d84100f364cf25ull},
         }},
        {"Digit Recognition", 0x56c831534c363746ull,
         {
             {129, 128, 32, 96, 0, 0xcbf29ce484222325ull,
              0x1f132d1df2c69226ull},
             {35553, 104093, 96, 96, 611, 0xcbf29ce484222325ull,
              0x74e6a770a51ba2e0ull},
             {35553, 104176, 96, 96, 528, 0xcbf29ce484222325ull,
              0x024329d0eb800626ull},
             {35553, 104180, 96, 96, 524, 0xcbf29ce484222325ull,
              0x006bc5da5d4be626ull},
             {35553, 104187, 96, 96, 517, 0xcbf29ce484222325ull,
              0xfaafcf136e0b8ee0ull},
             {129, 160, 96, 32, 0, 0xcbf29ce484222325ull,
              0xe02a370fcd16d226ull},
         }},
        {"Spam Filter", 0x5b91ee94ab1a159cull,
         {
             {865, 768, 384, 384, 0, 0xcbf29ce484222325ull,
              0x627942fe35746b26ull},
             {265, 624, 96, 24, 96, 0xcbf29ce484222325ull,
              0x7d8e5b9531217626ull},
             {265, 624, 96, 24, 96, 0xcbf29ce484222325ull,
              0x7d8e5b9531217626ull},
             {265, 624, 96, 24, 96, 0xcbf29ce484222325ull,
              0x7d8e5b9531217626ull},
             {265, 624, 96, 24, 96, 0xcbf29ce484222325ull,
              0x7d8e5b9531217626ull},
             {121, 360, 96, 24, 0, 0xcbf29ce484222325ull,
              0x0fbeac4c6f13f426ull},
             {49, 120, 24, 24, 0, 0xcbf29ce484222325ull,
              0x0520361f52806926ull},
         }},
        {"Optical Flow", 0x648444e6739d897cull,
         {
             {721, 1008, 288, 432, 0, 0xcbf29ce484222325ull,
              0xcac2f3f38cedda26ull},
             {733, 2256, 144, 288, 276, 0xcbf29ce484222325ull,
              0x0133ff058b8d0b26ull},
             {289, 864, 288, 144, 0, 0xcbf29ce484222325ull,
              0xcac52e76bcf2b026ull},
             {1297, 3888, 432, 864, 0, 0xcbf29ce484222325ull,
              0x220793dcc5b97226ull},
             {2737, 9480, 864, 864, 1722, 0xcbf29ce484222325ull,
              0xd4242d6a36bbae26ull},
             {2737, 9480, 864, 864, 1722, 0xcbf29ce484222325ull,
              0xd4242d6a36bbae26ull},
             {1873, 4478, 864, 288, 2488, 0xcbf29ce484222325ull,
              0x494eb35571539226ull},
         }},
        {"Face Detection", 0xc8b12e2c672b381cull,
         {
             {4008, 26752, 576, 3200, 3776, 0xcbf29ce484222325ull,
              0x21cb74ee38b5cfa5ull},
             {5101, 28125, 1600, 25, 0, 0xcbf29ce484222325ull,
              0x1322f5ee7f8e8206ull},
             {5101, 29725, 1600, 25, 0, 0xcbf29ce484222325ull,
              0x3fe85729eae20206ull},
             {51, 150, 50, 25, 0, 0xcbf29ce484222325ull,
              0x3956f2d77df20323ull},
             {51, 250, 25, 25, 0, 0xcbf29ce484222325ull,
              0x2994463a6e1caeafull},
             {51, 250, 25, 25, 0, 0xcbf29ce484222325ull,
              0x2994463a6e1caeafull},
             {51, 125, 25, 25, 0, 0xcbf29ce484222325ull,
              0xc359c14d182fae84ull},
         }},
        {"Binary NN", 0x970ada7db8d7a67dull,
         {
             {8017, 137120, 256, 512, 8736, 0xcbf29ce484222325ull,
              0x824a8f96abf6bca6ull},
             {15441, 441472, 512, 512, 16000, 0xcbf29ce484222325ull,
              0x3cb11f8cb58abca6ull},
             {689, 5504, 512, 128, 1024, 0xcbf29ce484222325ull,
              0xfb6e724d5f8104a6ull},
             {3889, 98944, 128, 128, 3328, 0xcbf29ce484222325ull,
              0x29c17566f0eec4a6ull},
             {193, 1376, 128, 32, 256, 0xcbf29ce484222325ull,
              0xeb920e951cfa90a6ull},
             {393, 2496, 32, 32, 544, 0xcbf29ce484222325ull,
              0xc46c0011d10abea6ull},
             {393, 2496, 32, 32, 544, 0xcbf29ce484222325ull,
              0xc46c0011d10abea6ull},
             {533, 3300, 32, 4, 672, 0xcbf29ce484222325ull,
              0xd8c05f8d6f8d1226ull},
         }},
        {"addshift_wrap.pldfuzz", 0x080a205de581e647ull,
         {
             {4, 8, 2, 1, 1, 0xcbf29ce484222325ull,
              0xa5422774f8c0cf83ull},
         }},
        {"mod64_wide.pldfuzz", 0x7ae379ae72e4e1ceull,
         {
             {3, 5, 1, 1, 0, 0xcbf29ce484222325ull,
              0xca5b84b6d1e23b84ull},
         }},
        {"rom_init_canonical.pldfuzz", 0xda52dcc988a947fbull,
         {
             {3, 4, 1, 1, 1, 0xcbf29ce484222325ull,
              0xca5b84b6d1e23b84ull},
         }},
        {"signext_guard.pldfuzz", 0x821e65573beff6ddull,
         {
             {4, 10, 1, 1, 0, 0xcbf29ce484222325ull,
              0x9d5f4d634ff07de4ull},
         }},
    };

    std::vector<std::pair<std::string, GraphRecord>> got;
    for (const rosetta::Benchmark &bm : rosetta::allBenchmarks())
        got.emplace_back(bm.name, recordGraph(bm.graph, {bm.input}));
    for (const std::string &f :
         fuzz::listCorpusFiles(PLD_FUZZ_CORPUS_DIR)) {
        fuzz::GenCase c = fuzz::loadCorpusFile(f);
        got.emplace_back(f.substr(f.find_last_of('/') + 1),
                         recordGraph(c.graph, c.inputs));
    }

    if (got.size() != golden.size()) {
        std::string all;
        for (const auto &[name, r] : got)
            all += initializer(name, r);
        FAIL() << got.size() << " graphs, " << golden.size()
               << " golden records; records are now:\n"
               << all;
    }
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].first, golden[i].name);
        expectGolden(golden[i], got[i].second);
    }
}
