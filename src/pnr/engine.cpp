#include "pnr/engine.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "obs/trace.h"

namespace pld {
namespace pnr {

using fabric::Device;
using fabric::Rect;
using netlist::Netlist;

Bitstream
generateBitstream(const Netlist &net, const Rect &region)
{
    // Frame data proportional to the reconfigured region plus cell
    // configuration — so partial bitstreams are small and full-chip
    // bitstreams are large (Sec 2.3: load time tracks bitstream
    // size). Bytes are actually produced and hashed so generation
    // time also tracks size.
    size_t frame_bytes = static_cast<size_t>(region.area()) * 48;
    size_t cell_bytes = net.cells.size() * 16;
    std::vector<uint8_t> image;
    image.reserve(frame_bytes + cell_bytes);
    uint32_t lcg = 0x1234567u;
    for (size_t i = 0; i < frame_bytes + cell_bytes; ++i) {
        lcg = lcg * 1664525u + 1013904223u;
        image.push_back(static_cast<uint8_t>(lcg >> 24));
    }
    Hasher h;
    h.bytes(image.data(), image.size());
    h.u64(net.contentHash());
    Bitstream b;
    b.bytes = image.size();
    b.hash = h.digest();
    return b;
}

PnrResult
placeAndRoute(const Netlist &net, const Device &dev,
              const Rect &region, const PnrOptions &opts)
{
    PnrResult res;
    obs::Span span("pnr", "pnr.pnr");
    span.arg("cells", static_cast<int64_t>(net.cells.size()));
    span.arg("nets", static_cast<int64_t>(net.nets.size()));
    span.arg("shell", opts.abstractShell ? "abstract" : "full");
    obs::count("pnr.runs");

    if (!opts.abstractShell) {
        // Without the abstract shell, Vitis loads and checks the
        // logic of the linking network and every other page before
        // touching the target region (Sec 4.1). Model that context
        // load as a full-device sweep with per-tile checks.
        Stopwatch ctx;
        obs::Span cspan("pnr", "pnr.context");
        volatile int64_t checked = 0;
        for (int pass = 0; pass < 6; ++pass) {
            for (int r = 0; r < dev.height; ++r) {
                for (int c = 0; c < dev.width; ++c) {
                    checked = checked +
                              (static_cast<int>(dev.at(c, r)) + pass);
                }
            }
        }
        res.contextSeconds = ctx.seconds();
    }

    PlacerOptions popts;
    popts.effort = opts.effort;
    popts.seed = opts.seed;
    popts.restarts = opts.placeRestarts;
    PlaceResult pr;
    {
        obs::Span pspan("pnr", "pnr.place");
        Stopwatch wall;
        ThreadCpuStopwatch cpu;
        pr = place(net, dev, region, popts);
        res.placeSeconds = wall.seconds();
        res.placeCpuSeconds = cpu.seconds();
        pspan.arg("restarts", static_cast<int64_t>(popts.restarts));
        pspan.arg("moves", static_cast<int64_t>(pr.movesAttempted));
    }
    res.place = pr.place;
    res.placeMoves = pr.movesAttempted;
    obs::record("pnr.place.seconds", res.placeSeconds);
    if (res.placeMoves > 0)
        obs::record("pnr.place.ns_per_move",
                    res.placeCpuSeconds * 1e9 / double(res.placeMoves));

    RouterOptions ropts;
    ropts.channelCapacity = opts.channelCapacity;
    ropts.maxIters = opts.routeMaxIters;
    {
        obs::Span rspan("pnr", "pnr.route");
        Stopwatch wall;
        ThreadCpuStopwatch cpu;
        res.routing = route(net, dev, res.place, ropts);
        res.routeSeconds = wall.seconds();
        res.routeCpuSeconds = cpu.seconds();
        rspan.arg("iterations",
                  static_cast<int64_t>(res.routing.iterations));
        rspan.arg("overused",
                  static_cast<int64_t>(res.routing.overusedTiles));
        rspan.arg("feasible",
                  static_cast<int64_t>(res.routing.feasible ? 1 : 0));
    }
    obs::record("pnr.route.seconds", res.routeSeconds);
    if (opts.injectRouteFail && res.routing.feasible) {
        // Injected congestion: report the run exactly as a real
        // infeasible route would, at the result boundary.
        res.routing.feasible = false;
        res.routing.overusedTiles =
            std::max(res.routing.overusedTiles, 1);
        res.routing.maxUtilization =
            std::max(res.routing.maxUtilization, 1.01);
    }
    if (!res.routing.feasible) {
        obs::count("pnr.route_fails");
        Diagnostic d;
        d.code = CompileCode::RouteInfeasible;
        d.stage = CompileStage::Route;
        d.severity = DiagSeverity::Error;
        d.retriable = true;
        d.detail = detail::format(
            "routing left %d overused tiles (util %.2f) after %d "
            "iterations%s",
            res.routing.overusedTiles, res.routing.maxUtilization,
            res.routing.iterations,
            opts.injectRouteFail ? " [injected]" : "");
        pld_warn("%s", d.detail.c_str());
        res.status.add(std::move(d));
    }

    {
        obs::Span tspan("pnr", "pnr.timing");
        res.timing = analyzeTiming(net, dev, res.place, opts.timing);
    }
    if (opts.injectFmaxDerate < 1.0) {
        res.timing.fmaxMHz *= opts.injectFmaxDerate;
        res.timing.critPathNs /= opts.injectFmaxDerate;
    }
    if (opts.requiredFmaxMHz > 0 &&
        res.timing.fmaxMHz < opts.requiredFmaxMHz) {
        Diagnostic d;
        d.code = CompileCode::TimingMiss;
        d.stage = CompileStage::Timing;
        d.severity = DiagSeverity::Error;
        d.retriable = true;
        d.detail = detail::format(
            "fmax %.1f MHz below required %.1f MHz (crit path "
            "%.2f ns on %s)%s",
            res.timing.fmaxMHz, opts.requiredFmaxMHz,
            res.timing.critPathNs, res.timing.critNetName.c_str(),
            opts.injectFmaxDerate < 1.0 ? " [injected]" : "");
        res.status.add(std::move(d));
        res.timingMet = false;
        obs::count("pnr.timing_misses");
    }

    Stopwatch bg;
    {
        obs::Span bspan("pnr", "pnr.bitgen");
        res.bits = generateBitstream(net, region);
        bspan.arg("bytes", static_cast<int64_t>(res.bits.bytes));
    }
    res.bitgenSeconds = bg.seconds();

    res.success = res.routing.feasible && res.timingMet;
    return res;
}

} // namespace pnr
} // namespace pld
