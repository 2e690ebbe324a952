/**
 * @file
 * pldbench: the repository benchmark program.
 *
 *   pldbench --workload <edit_loop|full_compile|sim_replay>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            --jobs <n> --out <scratch dir>
 *
 * Runs the workload's phase for the measured window and the other two
 * phases as reference slices, checks every output word, and prints one
 * JSON line last: the end-to-end metrics (--trace 0) or the per-layer
 * metrics (--trace 1). Exits 1 when any operation failed or a work
 * counter did not repeat. perfbench/run.py builds and invokes it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "bench.h"
#include "common/hash.h"

using namespace perfbench;

namespace {

namespace fs = std::filesystem;

const std::set<std::string> kE2eMetrics = {
    "edit_latency_p50_ms",        "edit_latency_p90_ms",
    "o1_build_s",                 "o3_build_s",
    "sim_hw_mcycles_per_s",       "sim_softcore_mcycles_per_s",
    "sim_direct_mcycles_per_s",   "setup_s",
    "peak_rss_mb",
};

const std::set<std::string> kLayerMetrics = {
    "o1_us_per_input_gmean",
    "o3_us_per_input_gmean",
    "svc.swap_rpc_ms",
    "svc.ping_us",
    "svc.store_put_ms",
    "svc.store_get_ms",
    "svc.store_hit_ratio",
    "svc.overhead_ms",
    "pld.swap_artifact_ms",
    "pld.cache_hit_ratio",
    "pld.retries",
    "hls.compile_ms",
    "hls.synth_ms",
    "hls.cells",
    "pnr.page_place_ns_per_move",
    "pnr.mono_place_ns_per_move",
    "pnr.place_moves",
    "pnr.place_accept_ratio",
    "pnr.route_ms",
    "pnr.timing_ms",
    "pnr.bitgen_ms",
    "rvgen.compile_ms",
    "rvgen.instructions",
    "rv32.minstr_per_s",
    "rv32.instret",
    "interp.mstmts_per_s",
    "interp.statements",
    "sys.swap_ns_per_cycle",
    "sys.swap_cycles",
    "sys.cycles.hw",
    "sys.cycles.softcore",
    "sys.cycles.direct",
    "noc.flits_delivered",
    "noc.deflections",
    "noc.flits_per_cycle",
    "bench.edit_self_ms",
    "edit.store_hit_latency_ms",
    "edit.store_miss_latency_ms",
    "trace_overhead_pct",
};

/** Set-up repetitions of the focal phase before its steps (setup_s is
 * the median of all its set-ups). */
constexpr int kSetups = 3;
/** Seed of the reference slices (fixed: the same work every run). */
constexpr uint64_t kSliceSeed = 1;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pldbench: %s\nusage: pldbench --workload "
                 "<edit_loop|full_compile|sim_replay> --seed <n> "
                 "--seconds <s> --trace <0|1> --jobs <n> --out <dir>\n",
                 why);
    std::exit(64);
}

/** Digest of this executable: counters are compared only between
 * runs of the same code. */
uint64_t
selfHash()
{
    std::ifstream f("/proc/self/exe", std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(f)),
                      std::istreambuf_iterator<char>());
    pld::Hasher h;
    h.bytes(bytes.data(), bytes.size());
    return h.digest();
}

/**
 * Compare this run's work counters with the ones an earlier run of the
 * same executable, workload, seed and trace mode recorded; record them
 * when none exist. Returns false on any difference.
 */
bool
checkCountersAcrossRuns(const Env &env, const std::string &workload)
{
    char name[128];
    std::snprintf(name, sizeof(name), "%016llx-%s-%llu-t%d.txt",
                  static_cast<unsigned long long>(selfHash()),
                  workload.c_str(),
                  static_cast<unsigned long long>(env.seed),
                  env.trace ? 1 : 0);
    fs::path dir = fs::path(env.outDir) / "counters";
    fs::create_directories(dir);
    std::ostringstream now;
    for (const auto &[k, v] : env.counters)
        now << k << " " << v << "\n";
    fs::path path = dir / name;
    std::ifstream in(path);
    if (in) {
        std::string before((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
        if (before != now.str()) {
            std::fprintf(stderr,
                         "FAILED: work counters differ from an earlier "
                         "run of the same code and seed (%s)\nbefore:\n"
                         "%snow:\n%s",
                         path.c_str(), before.c_str(), now.str().c_str());
            return false;
        }
        return true;
    }
    std::ofstream(path) << now.str();
    return true;
}

void
printResult(bool correct, const Env &env,
            const std::map<std::string, Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(env.attempted),
                static_cast<unsigned long long>(env.failed));
    const char *sep = "";
    for (const auto &[name, m] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                    m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir;
    long long seed = -1, trace = -1, jobs = 0;
    double seconds = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            workload = v;
        else if (k == "--seed")
            seed = std::atoll(v.c_str());
        else if (k == "--seconds")
            seconds = std::atof(v.c_str());
        else if (k == "--trace")
            trace = std::atoll(v.c_str());
        else if (k == "--jobs")
            jobs = std::atoll(v.c_str());
        else if (k == "--out")
            out_dir = v;
        else
            usage(("unknown argument " + k).c_str());
    }
    if (workload != "edit_loop" && workload != "full_compile" &&
        workload != "sim_replay")
        usage("unknown workload");
    if (seed < 0 || seconds < 0 || (trace != 0 && trace != 1) ||
        jobs < 1 || out_dir.empty())
        usage("missing or bad argument");

    // Threads come from --jobs only; no tracer or fault plan may leak
    // in from the environment (the untraced run installs no tracer,
    // as pldd installs none).
    setenv("PLD_THREADS", std::to_string(jobs).c_str(), 1);
    for (const char *var : {"PLD_TRACE", "PLD_METRICS", "PLD_FAULT",
                            "PLD_FAULT_SEED", "PLD_RVGEN_TIER"})
        unsetenv(var);

    Env env;
    env.seed = static_cast<uint64_t>(seed);
    env.trace = trace == 1;
    env.jobs = static_cast<unsigned>(jobs);
    env.outDir = out_dir;
    fs::create_directories(out_dir);
    env.dev = pld::fabric::makeU50();
    env.apps = pld::rosetta::allBenchmarks();
    env.spans.setEnabled(env.trace);

    PhaseScale focal{true, seconds, kSetups, env.seed};
    PhaseScale slice{false, 0, 1, kSliceSeed};
    // The focal phase comes first; the slices are the same in every
    // workload.
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(workload == "edit_loop"      ? makeEditPhase(env, focal)
                     : workload == "full_compile" ? makeCompilePhase(env, focal)
                                                  : makeSimPhase(env, focal));
    if (workload != "edit_loop")
        phases.push_back(makeEditPhase(env, slice));
    if (workload != "full_compile")
        phases.push_back(makeCompilePhase(env, slice));
    if (workload != "sim_replay")
        phases.push_back(makeSimPhase(env, slice));

    for (auto &phase : phases)
        phase->setUp();
    // The slices take steps in turn whenever they have had less time
    // than the focal phase, so their repetitions are spread over the
    // whole run; this host's speed changes for seconds at a time.
    std::vector<bool> more(phases.size(), true);
    double focalSec = 0, sliceSec = 0;
    size_t next = 1;
    auto slicesLeft = [&] {
        return std::find(more.begin() + 1, more.end(), true) != more.end();
    };
    while (more[0] || slicesLeft()) {
        const double t0 = nowSec();
        if (more[0] && (sliceSec >= focalSec || !slicesLeft())) {
            more[0] = phases[0]->step();
            focalSec += nowSec() - t0;
            continue;
        }
        while (!more[next])
            next = next % (phases.size() - 1) + 1;
        more[next] = phases[next]->step();
        sliceSec += nowSec() - t0;
        next = next % (phases.size() - 1) + 1;
    }
    for (auto &phase : phases)
        phase->finish();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    env.setE2e("setup_s", median(env.setupSec), "s");
    env.setE2e("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB");
    env.setLayer("pld.cache_hit_ratio",
                 env.cacheLookups ? double(env.cacheHits) /
                                        double(env.cacheLookups)
                                  : 0.0,
                 "ratio");
    env.setLayer("pld.retries", double(env.retries), "count");

    bool correct = env.failed == 0;
    correct = checkCountersAcrossRuns(env, workload) && correct;

    const std::set<std::string> &want =
        env.trace ? kLayerMetrics : kE2eMetrics;
    const std::map<std::string, Metric> &have =
        env.trace ? env.layer : env.e2e;
    std::map<std::string, Metric> metrics;
    for (const std::string &name : want) {
        auto it = have.find(name);
        if (it == have.end()) {
            std::fprintf(stderr, "FAILED: metric %s was not measured\n",
                         name.c_str());
            correct = false;
            continue;
        }
        metrics.insert(*it);
    }
    if (env.trace) {
        std::string path = out_dir + "/spans-" + workload + "-" +
                           std::to_string(seed) + ".json";
        if (!env.spans.writeJson(path)) {
            std::fprintf(stderr, "FAILED: cannot write %s\n", path.c_str());
            correct = false;
        }
    }
    printResult(correct, env, metrics);
    return correct ? 0 : 1;
}
