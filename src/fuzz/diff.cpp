#include "fuzz/diff.h"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common/logging.h"
#include "dataflow/runtime.h"
#include "fabric/device.h"
#include "hls/schedule.h"
#include "ir/validate.h"
#include "pld/compiler.h"
#include "rv32/iss.h"
#include "rvgen/codegen.h"
#include "sys/system.h"

namespace pld {
namespace fuzz {

namespace {

std::string
hex(uint32_t w)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", w);
    return buf;
}

/** Word-for-word comparison of one backend's streams vs golden. */
bool
compareOutputs(const std::string &backend, const GenCase &c,
               const std::vector<std::vector<uint32_t>> &golden,
               const std::vector<std::vector<uint32_t>> &got,
               std::string *detail)
{
    for (size_t s = 0; s < golden.size(); ++s) {
        const std::string &name = c.graph.extOutputs[s];
        if (got[s].size() != golden[s].size()) {
            *detail = backend + ": stream " + name + " produced " +
                      std::to_string(got[s].size()) + " words, want " +
                      std::to_string(golden[s].size());
            return false;
        }
        for (size_t i = 0; i < golden[s].size(); ++i) {
            if (got[s][i] != golden[s][i]) {
                *detail = backend + ": stream " + name + " word " +
                          std::to_string(i) + ": got " +
                          hex(got[s][i]) + " want " +
                          hex(golden[s][i]);
                return false;
            }
        }
    }
    return true;
}

/** Shared device model for compiler-level checks. */
const fabric::Device &
fuzzDevice()
{
    static fabric::Device dev = fabric::makeU50();
    return dev;
}

/** Run SystemSim with explicit bindings; false on non-completion. */
bool
runSystem(const GenCase &c, const std::vector<sys::PageBinding> &b,
          const sys::SystemConfig &scfg, uint64_t max_cycles,
          std::vector<std::vector<uint32_t>> *out, std::string *why)
{
    sys::SystemSim sim(c.graph, b, scfg);
    for (size_t i = 0; i < c.inputs.size(); ++i)
        sim.loadInput(static_cast<int>(i), c.inputs[i]);
    sys::RunStats rs = sim.run(max_cycles);
    if (!rs.completed) {
        *why = "system simulator hit the " +
               std::to_string(max_cycles) + "-cycle budget";
        return false;
    }
    out->clear();
    for (size_t i = 0; i < c.graph.extOutputs.size(); ++i)
        out->push_back(sim.takeOutput(static_cast<int>(i)));
    return true;
}

/** HW-page bindings: cycle charge from the real HLS schedule. */
std::vector<sys::PageBinding>
hwBindings(const ir::Graph &g)
{
    static const int kPages[] = {0, 5, 9, 13, 17, 20};
    std::vector<sys::PageBinding> bindings;
    for (size_t i = 0; i < g.ops.size(); ++i) {
        pld_assert(i < sizeof(kPages) / sizeof(int),
                   "fuzz graphs use at most 6 operators");
        sys::PageBinding b;
        b.opIdx = static_cast<int>(i);
        b.pageId = kPages[i];
        b.impl = sys::PageImpl::Hw;
        b.cyclesPerOp =
            hls::analyzeOperator(g.ops[i].fn).cyclesPerOp();
        bindings.push_back(std::move(b));
    }
    return bindings;
}

/** Softcore bindings with per-operator binaries at @p tier. */
std::vector<sys::PageBinding>
softcoreBindings(const ir::Graph &g, InjectedBug bug,
                 rvgen::Tier tier)
{
    static const int kPages[] = {0, 5, 9, 13, 17, 20};
    rvgen::RvOptions ro;
    ro.tier = tier;
    std::vector<sys::PageBinding> bindings;
    for (size_t i = 0; i < g.ops.size(); ++i) {
        sys::PageBinding b;
        b.opIdx = static_cast<int>(i);
        b.pageId = kPages[i];
        b.impl = sys::PageImpl::Softcore;
        b.elf =
            rvgen::compileToRiscv(applyBug(g.ops[i].fn, bug), ro).elf;
        bindings.push_back(std::move(b));
    }
    return bindings;
}

/**
 * Bare-metal ISS run for single-operator cases: one Core with plain
 * FIFO ports, inputs preloaded, outputs drained afterwards. Exercises
 * the MMIO stream path directly without the system model.
 */
bool
runBareIss(const GenCase &c, InjectedBug bug, uint64_t budget,
           rvgen::Tier tier,
           std::vector<std::vector<uint32_t>> *out, std::string *why)
{
    const ir::Graph &g = c.graph;
    const ir::OperatorFn fn = applyBug(g.ops[0].fn, bug);
    rvgen::RvOptions ro;
    ro.tier = tier;
    rv32::PldElf elf = rvgen::compileToRiscv(fn, ro).elf;

    // Port order <-> the external streams wired to each port.
    std::vector<std::vector<uint32_t>> ins, words;
    std::vector<int> out_stream;
    for (size_t p = 0; p < fn.ports.size(); ++p) {
        ir::Endpoint ep{0, static_cast<int>(p)};
        if (fn.ports[p].dir == ir::PortDir::In) {
            int li = g.linkInto(ep);
            pld_assert(li >= 0 && g.links[li].src.isExternal(),
                       "bare ISS runs need external inputs");
            ins.push_back(c.inputs[g.links[li].src.port]);
        } else {
            int li = g.linkFrom(ep);
            pld_assert(li >= 0 && g.links[li].dst.isExternal(),
                       "bare ISS runs need external outputs");
            out_stream.push_back(g.links[li].dst.port);
        }
    }
    bool halted = runOnFifos(
        fn, ins,
        [&](const std::vector<dataflow::StreamPort *> &ports) {
            rv32::Core core(elf, ports);
            rv32::CoreStatus st = core.step(budget);
            if (st == rv32::CoreStatus::Trapped)
                *why = "softcore trapped: " + core.trapReason();
            else if (st != rv32::CoreStatus::Halted)
                *why = "softcore did not halt (blocked or out of "
                       "budget)";
            return st == rv32::CoreStatus::Halted;
        },
        &words);
    if (!halted)
        return false;

    out->assign(g.extOutputs.size(), {});
    for (size_t o = 0; o < words.size(); ++o)
        (*out)[out_stream[o]] = std::move(words[o]);
    return true;
}

} // namespace

const char *
diffStatusName(DiffStatus s)
{
    switch (s) {
      case DiffStatus::Pass: return "pass";
      case DiffStatus::Mismatch: return "mismatch";
      case DiffStatus::Hang: return "hang";
      case DiffStatus::Invalid: return "invalid";
    }
    return "?";
}

bool
runOnFifos(const ir::OperatorFn &fn,
           const std::vector<std::vector<uint32_t>> &inputs,
           const std::function<bool(
               const std::vector<dataflow::StreamPort *> &)> &run,
           std::vector<std::vector<uint32_t>> *outputs)
{
    std::vector<dataflow::WordFifo> fifos(fn.ports.size());
    std::vector<std::unique_ptr<dataflow::StreamPort>> storage;
    std::vector<dataflow::StreamPort *> ports;
    size_t in_ord = 0;
    for (size_t p = 0; p < fn.ports.size(); ++p) {
        if (fn.ports[p].dir == ir::PortDir::In) {
            pld_assert(in_ord < inputs.size(),
                       "standalone run: missing input words");
            for (uint32_t w : inputs[in_ord++])
                fifos[p].push(w);
            storage.push_back(
                std::make_unique<dataflow::FifoReadPort>(fifos[p]));
        } else {
            storage.push_back(
                std::make_unique<dataflow::FifoWritePort>(fifos[p]));
        }
        ports.push_back(storage.back().get());
    }
    if (!run(ports))
        return false;

    outputs->clear();
    for (size_t p = 0; p < fn.ports.size(); ++p) {
        if (fn.ports[p].dir != ir::PortDir::Out)
            continue;
        std::vector<uint32_t> words;
        while (fifos[p].canPop())
            words.push_back(fifos[p].pop());
        outputs->push_back(std::move(words));
    }
    return true;
}

bool
goldenOutputs(const GenCase &c,
              std::vector<std::vector<uint32_t>> *out,
              std::string *why)
{
    auto diags = ir::validateGraph(c.graph);
    if (!ir::isClean(diags)) {
        *why = "validation: " + ir::renderDiagnostics(diags);
        return false;
    }
    dataflow::GraphRuntime rt(c.graph, 0);
    for (size_t i = 0; i < c.inputs.size(); ++i)
        rt.pushInput(static_cast<int>(i), c.inputs[i]);
    if (!rt.run()) {
        *why = "golden runtime deadlock: " + rt.deadlockReport();
        return false;
    }
    out->clear();
    for (size_t i = 0; i < c.graph.extOutputs.size(); ++i)
        out->push_back(rt.takeOutput(static_cast<int>(i)));
    return true;
}

DiffResult
diffCase(const GenCase &c, const DiffOptions &opts)
{
    DiffResult r;

    auto diags = ir::validateGraph(c.graph);
    if (!ir::isClean(diags)) {
        r.status = DiffStatus::Invalid;
        r.detail = ir::renderDiagnostics(diags);
        return r;
    }

    std::string why;
    if (!goldenOutputs(c, &r.golden, &why)) {
        r.status = DiffStatus::Hang;
        r.detail = why;
        return r;
    }

    std::vector<std::vector<uint32_t>> got;
    if (opts.runSys) {
        sys::SystemConfig scfg;
        scfg.useNoc = opts.sysUseNoc;
        if (!runSystem(c, hwBindings(c.graph), scfg,
                       opts.sysMaxCycles, &got, &why)) {
            r.status = DiffStatus::Hang;
            r.detail = "sys: " + why;
            return r;
        }
        if (!compareOutputs("sys", c, r.golden, got, &r.detail)) {
            r.status = DiffStatus::Mismatch;
            return r;
        }
    }

    // Both softcore legs are run the same way; only the codegen tier
    // differs. A divergence between them (or against golden) is a
    // codegen bug, never a case property.
    auto issLeg = [&](const char *backend,
                      rvgen::Tier tier) -> bool {
        bool ok;
        try {
            if (c.graph.ops.size() == 1) {
                ok = runBareIss(c, opts.bug, opts.issInstrBudget,
                                tier, &got, &why);
            } else {
                sys::SystemConfig scfg;
                scfg.useNoc = opts.sysUseNoc;
                ok = runSystem(
                    c, softcoreBindings(c.graph, opts.bug, tier),
                    scfg, opts.sysMaxCycles, &got, &why);
            }
        } catch (const std::runtime_error &e) {
            // -Os capacity limits never fire on fuzz-sized graphs;
            // reaching one here is a compiler bug worth a repro.
            r.status = DiffStatus::Mismatch;
            r.detail =
                std::string(backend) + ": compile threw: " + e.what();
            return false;
        }
        if (!ok) {
            r.status = DiffStatus::Hang;
            r.detail = std::string(backend) + ": " + why;
            return false;
        }
        if (!compareOutputs(backend, c, r.golden, got, &r.detail)) {
            r.status = DiffStatus::Mismatch;
            return false;
        }
        return true;
    };

    if (opts.runIss && !issLeg("iss", rvgen::Tier::O0))
        return r;
    if (opts.runOsIss && !issLeg("iss-Os", rvgen::Tier::Os))
        return r;

    return r;
}

DiffResult
checkFaultLadder(const GenCase &c, uint64_t seed)
{
    DiffResult r;
    std::string why;
    if (!goldenOutputs(c, &r.golden, &why)) {
        r.status = DiffStatus::Hang;
        r.detail = why;
        return r;
    }

    // Each plan pushes the first operator's compile further up the
    // retry ladder; four consecutive route failures reach the
    // softcore-fallback rung. Equivalence must hold at every rung.
    const std::string target = c.graph.ops[0].fn.name;
    const std::string plans[] = {
        "",
        "route_fail:" + target + "*1",
        "route_fail:" + target + "*2",
        "route_fail:" + target + "*3",
        "route_fail:" + target + "*4",
        "timing_miss:" + target + "*2",
    };

    for (const std::string &plan : plans) {
        flow::CompileOptions co;
        co.effort = 0.25;
        co.parallelJobs = 2;
        co.seed = seed;
        if (!plan.empty())
            co.faults = FaultPlan::parse(plan);
        flow::PldCompiler pc(fuzzDevice(), co);
        flow::AppBuild build =
            pc.build(c.graph, flow::OptLevel::O1);
        if (build.report.failedCount() > 0) {
            r.status = DiffStatus::Mismatch;
            r.detail = "ladder[" + plan + "]: build failed:\n" +
                       build.report.render();
            return r;
        }
        std::vector<std::vector<uint32_t>> got;
        if (!runSystem(c, build.bindings, build.sysCfg, 40000000ull,
                       &got, &why)) {
            r.status = DiffStatus::Hang;
            r.detail = "ladder[" + plan + "]: " + why;
            return r;
        }
        if (!compareOutputs("ladder[" + plan + "]", c, r.golden, got,
                            &r.detail)) {
            r.status = DiffStatus::Mismatch;
            return r;
        }
    }
    return r;
}

DiffResult
checkBuildDeterminism(const GenCase &c, uint64_t seed)
{
    DiffResult r;
    std::string why;
    if (!goldenOutputs(c, &r.golden, &why)) {
        r.status = DiffStatus::Hang;
        r.detail = why;
        return r;
    }

    flow::AppBuild builds[2];
    for (int i = 0; i < 2; ++i) {
        flow::CompileOptions co;
        co.effort = 0.25;
        co.parallelJobs = (i == 0) ? 1 : 4;
        co.seed = seed;
        flow::PldCompiler pc(fuzzDevice(), co);
        builds[i] = pc.build(c.graph, flow::OptLevel::O1);
    }

    if (builds[0].fmaxMHz != builds[1].fmaxMHz) {
        r.status = DiffStatus::Mismatch;
        r.detail = "determinism: fmax " +
                   std::to_string(builds[0].fmaxMHz) + " vs " +
                   std::to_string(builds[1].fmaxMHz) +
                   " across parallelJobs 1 vs 4";
        return r;
    }
    if (builds[0].report.render() != builds[1].report.render()) {
        r.status = DiffStatus::Mismatch;
        r.detail = "determinism: build reports differ across "
                   "parallelJobs 1 vs 4";
        return r;
    }

    for (int i = 0; i < 2; ++i) {
        std::vector<std::vector<uint32_t>> got;
        if (!runSystem(c, builds[i].bindings, builds[i].sysCfg,
                       40000000ull, &got, &why)) {
            r.status = DiffStatus::Hang;
            r.detail = "determinism run " + std::to_string(i) +
                       ": " + why;
            return r;
        }
        std::string backend =
            "determinism(jobs=" + std::to_string(i == 0 ? 1 : 4) +
            ")";
        if (!compareOutputs(backend, c, r.golden, got, &r.detail)) {
            r.status = DiffStatus::Mismatch;
            return r;
        }
    }
    return r;
}

} // namespace fuzz
} // namespace pld
