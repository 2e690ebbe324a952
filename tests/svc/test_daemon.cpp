/**
 * @file
 * Service-level tests for the compile daemon: cross-client
 * coalescing (N identical requests, exactly one backend compile),
 * bounded-queue admission rejection as a structured diagnostic,
 * bit-identity of daemon-built artifacts against direct library
 * builds at different thread counts, warm-restart store hits, swap
 * against a store-served base, fault containment per request, the
 * per-request trace file, the kill-the-client regression (a client
 * hanging up mid-compile never strands a second client), and that
 * finished connections release their handler threads.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <future>
#include <thread>

#include "fabric/device.h"
#include "ir/builder.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"

using namespace pld;
using namespace pld::svc;
namespace fs = std::filesystem;

namespace {

constexpr ir::Type kFx = ir::Type::fx(32, 17);

/** Two-operator scale→offset pipeline; @p factor and @p offset
 * distinguish graph "edits" (a different constant → a different IR
 * hash → a different request key). */
ir::Graph
makePipeline(double factor, double offset = -2.0)
{
    ir::OpBuilder s("scale");
    auto sin = s.input("Input_1");
    auto sout = s.output("mid");
    auto sx = s.var("x", kFx);
    s.pragma(ir::Target::HW);
    s.forLoop(0, 16, [&](ir::Ex) {
        s.set(sx, s.read(sin).bitcast(kFx));
        s.write(sout, (ir::Ex(sx) * ir::litF(factor, kFx)).cast(kFx));
    });

    ir::OpBuilder o("offset");
    auto oin = o.input("mid");
    auto oout = o.output("Output_1");
    auto ox = o.var("x", kFx);
    o.pragma(ir::Target::HW);
    o.forLoop(0, 16, [&](ir::Ex) {
        o.set(ox, o.read(oin).bitcast(kFx));
        o.write(oout, (ir::Ex(ox) + ir::litF(offset, kFx)).cast(kFx));
    });

    ir::GraphBuilder gb("svc_app");
    auto in = gb.extIn("Input_1");
    auto out = gb.extOut("Output_1");
    auto mid = gb.wire();
    gb.inst(s.finish(), {in}, {mid});
    gb.inst(o.finish(), {mid}, {out});
    return gb.finish();
}

CompileRequest
makeRequest(double factor, uint32_t jobs = 0)
{
    CompileRequest req;
    req.opts.level = 1; // O1
    req.opts.parallelJobs = jobs;
    req.graphText = encodeGraphText(makePipeline(factor));
    return req;
}

/** The image hash of @p op's page binding in a compile response. */
uint64_t
imageOf(const CompileResponse &r, const std::string &op)
{
    BuildArtifact ba = BuildArtifact::decode(r.blob);
    for (const sys::PageBinding &b : ba.bindings) {
        if (ba.ops.at(static_cast<size_t>(b.opIdx)).name == op)
            return b.imageHash;
    }
    ADD_FAILURE() << "no binding for " << op;
    return 0;
}

/** Lines in /proc/self/maps: every live thread stack adds its own
 * mappings. */
size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

class DaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/pld_daemon_test_XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir = tmpl;
        dev = fabric::makeU50();
        cfg.storeDir = dir + "/store";
    }

    void
    TearDown() override
    {
        std::error_code ec;
        fs::remove_all(dir, ec);
    }

    std::string dir;
    fabric::Device dev;
    ServiceConfig cfg;
};

// ---- service behaviour -------------------------------------------

TEST_F(DaemonTest, NConcurrentIdenticalRequestsOneCompile)
{
    constexpr int kClients = 8;
    CompileService svcc(dev, cfg);
    CompileRequest req = makeRequest(1.5);

    // Hold the claimant inside execution until every client has
    // submitted, so the others deterministically join in flight.
    svcc.setExecuteHook([&] {
        while (svcc.stats().submitted.load() < kClients)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });

    std::vector<std::thread> clients;
    std::vector<CompileResponse> resp(kClients);
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back(
            [&, i] { resp[i] = svcc.compile(req); });
    for (auto &t : clients)
        t.join();

    EXPECT_EQ(svcc.stats().storeMisses.load(), 1u)
        << "identical edits must trigger exactly one backend compile";
    EXPECT_EQ(svcc.stats().coalesced.load() +
                  svcc.stats().storeHits.load(),
              static_cast<uint64_t>(kClients - 1));
    EXPECT_GE(svcc.stats().coalesced.load(), 1u);
    for (int i = 0; i < kClients; ++i) {
        EXPECT_EQ(resp[i].status, RespStatus::Ok) << "client " << i;
        EXPECT_EQ(resp[i].blob, resp[0].blob)
            << "all clients must see the identical artifact";
    }
}

TEST_F(DaemonTest, AdmissionRejectionIsStructuredNotAHang)
{
    cfg.maxExecuting = 1;
    cfg.maxQueued = 0;
    CompileService svcc(dev, cfg);

    std::promise<void> entered, release;
    auto released = release.get_future().share();
    svcc.setExecuteHook([&, flagged = std::make_shared<
                                std::atomic<bool>>(false)]() mutable {
        if (!flagged->exchange(true))
            entered.set_value();
        released.wait();
    });

    CompileResponse holder_resp;
    std::thread holder([&] {
        holder_resp = svcc.compile(makeRequest(1.5));
    });
    entered.get_future().wait();
    svcc.setExecuteHook(nullptr);

    // Queue bound is zero and the only slot is held: a *different*
    // request must come back rejected immediately — a structured
    // diagnostic, not a hang and not an abort.
    CompileResponse rejected = svcc.compile(makeRequest(2.5));
    EXPECT_EQ(rejected.status, RespStatus::Rejected);
    ASSERT_FALSE(rejected.diags.diags.empty());
    const Diagnostic &d = rejected.diags.diags.front();
    EXPECT_EQ(d.code, CompileCode::AdmissionRejected);
    EXPECT_EQ(d.severity, DiagSeverity::Error);
    EXPECT_TRUE(d.retriable);
    EXPECT_NE(d.detail.find("queue full"), std::string::npos);
    EXPECT_EQ(svcc.stats().rejected.load(), 1u);

    release.set_value();
    holder.join();
    EXPECT_EQ(holder_resp.status, RespStatus::Ok)
        << "the executing request must be unaffected by rejections";

    // The rejected request succeeds on resubmit (retriable).
    EXPECT_EQ(svcc.compile(makeRequest(2.5)).status, RespStatus::Ok);
}

TEST_F(DaemonTest, DaemonArtifactBitIdenticalToDirectBuild)
{
    // Direct library build, single-threaded.
    ir::Graph g = makePipeline(1.5);
    flow::CompileOptions copts;
    copts.parallelJobs = 1;
    flow::PldCompiler direct(dev, copts);
    auto direct_blob =
        BuildArtifact::fromAppBuild(direct.build(g, flow::OptLevel::O1))
            .encode();

    // Service builds at parallelJobs 1 and 4, separate cold stores.
    for (uint32_t jobs : {1u, 4u}) {
        ServiceConfig jcfg = cfg;
        jcfg.storeDir = dir + "/store_j" + std::to_string(jobs);
        CompileService svcc(dev, jcfg);
        CompileRequest req = makeRequest(1.5, jobs);
        CompileResponse resp = svcc.compile(req);
        ASSERT_EQ(resp.status, RespStatus::Ok);
        EXPECT_FALSE(resp.storeHit);
        EXPECT_EQ(resp.blob, direct_blob)
            << "daemon artifact at parallelJobs=" << jobs
            << " must be bit-identical to the direct build";
    }

    // And the request key ignores parallelJobs entirely, so those
    // requests would have coalesced had they shared a daemon.
    EXPECT_EQ(CompileService::requestKey(makeRequest(1.5, 1)),
              CompileService::requestKey(makeRequest(1.5, 4)));
}

TEST_F(DaemonTest, WarmRestartServesStoreHitAndSwaps)
{
    CompileRequest req = makeRequest(1.5);
    uint64_t base_key = 0;
    {
        CompileService first(dev, cfg);
        CompileResponse r = first.compile(req);
        ASSERT_EQ(r.status, RespStatus::Ok);
        EXPECT_FALSE(r.storeHit);
        base_key = r.key;
    } // daemon "restart": service torn down, store dir survives

    CompileService second(dev, cfg);
    CompileResponse r2 = second.compile(req);
    ASSERT_EQ(r2.status, RespStatus::Ok);
    EXPECT_TRUE(r2.storeHit)
        << "a warm-restarted daemon must serve the on-disk artifact";
    EXPECT_EQ(r2.key, base_key);
    EXPECT_EQ(second.store().stats().hits.load(), 1u);

    // Hot-swap an edited operator against the store-served base.
    SwapRequest sw;
    sw.opts = req.opts;
    sw.baseBuild = base_key;
    sw.opName = "scale";
    sw.graphText = encodeGraphText(makePipeline(1.75));
    CompileResponse r3 = second.swap(sw);
    ASSERT_EQ(r3.status, RespStatus::Ok) << r3.diags.render();
    SwapBlob sb = SwapBlob::decode(r3.blob);
    EXPECT_EQ(sb.op, "scale");
    EXPECT_TRUE(sb.fnChanged);
    EXPECT_TRUE(sb.binding.hasFallback);
}

TEST_F(DaemonTest, CompilersKeepOnlyTheNewestVersionPerPage)
{
    // Every swap compiles a new version of 'scale'. The daemon's
    // compilers keep only the newest version of each operator on each
    // page and target, so what they hold does not grow with the
    // number of edits served.
    CompileService svcc(dev, cfg);
    CompileRequest req = makeRequest(1.5);
    req.opts.effort = 0.2;
    CompileResponse base = svcc.compile(req);
    ASSERT_EQ(base.status, RespStatus::Ok);
    const CompileService::BackendCache built = svcc.backendCache();
    EXPECT_EQ(built.compiles, 2u);
    EXPECT_EQ(built.held, 2u);

    SwapRequest sw;
    sw.opts = req.opts;
    sw.baseBuild = base.key;
    sw.opName = "scale";
    std::vector<uint8_t> first;
    CompileService::BackendCache swapped;
    for (int i = 1; i <= 40; ++i) {
        sw.graphText = encodeGraphText(makePipeline(1.5 + 0.125 * i));
        CompileResponse r = svcc.swap(sw);
        ASSERT_EQ(r.status, RespStatus::Ok) << r.diags.render();
        EXPECT_FALSE(r.storeHit) << "edit " << i;
        EXPECT_TRUE(SwapBlob::decode(r.blob).fnChanged) << "edit " << i;
        const CompileService::BackendCache c = svcc.backendCache();
        if (i == 1) {
            first = r.blob;
            swapped = c;
            // The new scale image, and its softcore fallback.
            EXPECT_EQ(c.compiles, built.compiles + 2);
            EXPECT_EQ(c.held, built.held + 1);
        } else {
            EXPECT_EQ(c.compiles, swapped.compiles + 2 * (i - 1))
                << "edit " << i;
            EXPECT_EQ(c.held, swapped.held) << "edit " << i;
        }
    }

    // Revisiting the first edit is a store hit with the same blob.
    sw.graphText = encodeGraphText(makePipeline(1.625));
    CompileResponse again = svcc.swap(sw);
    ASSERT_EQ(again.status, RespStatus::Ok);
    EXPECT_TRUE(again.storeHit);
    EXPECT_EQ(again.blob, first);
}

TEST_F(DaemonTest, EditedGraphRecompilesOnlyTheEditedOperator)
{
    // Separate compilation through the daemon: a request that misses
    // the store still reuses every unchanged operator.
    CompileService svcc(dev, cfg);
    CompileRequest a = makeRequest(1.5);
    a.opts.effort = 0.2;
    CompileResponse ra = svcc.compile(a);
    ASSERT_EQ(ra.status, RespStatus::Ok);
    const uint64_t built = svcc.backendCache().compiles;
    EXPECT_EQ(built, 2u);

    // Only 'offset' changed.
    CompileRequest b = a;
    b.graphText = encodeGraphText(makePipeline(1.5, -3.0));
    CompileResponse rb = svcc.compile(b);
    ASSERT_EQ(rb.status, RespStatus::Ok);
    EXPECT_FALSE(rb.storeHit);
    EXPECT_EQ(svcc.backendCache().compiles, built + 1);
    EXPECT_EQ(imageOf(rb, "scale"), imageOf(ra, "scale"));
    EXPECT_NE(imageOf(rb, "offset"), imageOf(ra, "offset"));

    // Swapping in the operator that request built reuses its image;
    // only the softcore fallback is new.
    SwapRequest sw;
    sw.opts = a.opts;
    sw.baseBuild = ra.key;
    sw.opName = "offset";
    sw.graphText = b.graphText;
    CompileResponse rs = svcc.swap(sw);
    ASSERT_EQ(rs.status, RespStatus::Ok) << rs.diags.render();
    SwapBlob blob = SwapBlob::decode(rs.blob);
    EXPECT_TRUE(blob.fnChanged);
    EXPECT_EQ(blob.binding.imageHash, imageOf(rb, "offset"));
    EXPECT_EQ(svcc.backendCache().compiles, built + 2);
}

TEST_F(DaemonTest, CountedFaultShapesEveryImageOfItsKey)
{
    // 'route_fail:scale*8' fails every hardware attempt of scale's
    // first compile (claim generation 0), so its ladder ends in the
    // softcore fallback. Every later request sharing that key gets
    // the same fallback image, as the library's cache would return
    // it: from the cache while it is the newest version of scale, and
    // from a recompile at the same claim generation after a newer
    // version evicted it.
    CompileService svcc(dev, cfg);
    CompileRequest clean = makeRequest(1.5);
    clean.opts.effort = 0.2;
    CompileResponse r0 = svcc.compile(clean);
    ASSERT_EQ(r0.status, RespStatus::Ok);

    CompileRequest a = clean;
    a.opts.faultSpec = "route_fail:scale*8";
    CompileResponse ra = svcc.compile(a);
    ASSERT_EQ(ra.status, RespStatus::Ok) << ra.diags.render();
    const uint64_t fallback = imageOf(ra, "scale");
    EXPECT_TRUE(BuildArtifact::decode(ra.blob).ops.at(0).degraded);
    EXPECT_NE(fallback, imageOf(r0, "scale"))
        << "the fault must change scale's image";

    CompileRequest b = a;
    b.graphText = encodeGraphText(makePipeline(1.5, -3.0));
    uint64_t before = svcc.backendCache().compiles;
    CompileResponse rb = svcc.compile(b);
    ASSERT_EQ(rb.status, RespStatus::Ok);
    EXPECT_EQ(svcc.backendCache().compiles, before + 1)
        << "only offset is compiled";
    EXPECT_EQ(imageOf(rb, "scale"), fallback);

    // A newer version of scale on the same page evicts this one.
    SwapRequest sw;
    sw.opts = a.opts;
    sw.baseBuild = ra.key;
    sw.opName = "scale";
    sw.graphText = encodeGraphText(makePipeline(1.75));
    ASSERT_EQ(svcc.swap(sw).status, RespStatus::Ok);

    CompileRequest c = a;
    c.graphText = encodeGraphText(makePipeline(1.5, -4.0));
    before = svcc.backendCache().compiles;
    CompileResponse rc = svcc.compile(c);
    ASSERT_EQ(rc.status, RespStatus::Ok);
    EXPECT_EQ(svcc.backendCache().compiles, before + 2)
        << "scale was evicted, so it is compiled again";
    EXPECT_EQ(imageOf(rc, "scale"), fallback)
        << "the recompile repeats the first compile, faults included";
}

TEST_F(DaemonTest, InjectedCacheCorruptionIsCaughtByTheNextSharer)
{
    // 'cache_corrupt:scale*1' spoils the checksum stored with scale's
    // first artifact. The daemon keeps it like any newest version, so
    // the next request sharing scale detects the mismatch and
    // recompiles it once; the one after that is a plain hit.
    CompileService svcc(dev, cfg);
    CompileRequest a = makeRequest(1.5);
    a.opts.effort = 0.2;
    a.opts.faultSpec = "cache_corrupt:scale*1";
    CompileResponse ra = svcc.compile(a);
    ASSERT_EQ(ra.status, RespStatus::Ok);
    EXPECT_EQ(svcc.backendCache().compiles, 2u);

    CompileRequest b = a;
    b.graphText = encodeGraphText(makePipeline(1.5, -3.0));
    CompileResponse rb = svcc.compile(b);
    ASSERT_EQ(rb.status, RespStatus::Ok);
    EXPECT_EQ(svcc.backendCache().compiles, 4u)
        << "scale recompiled after its corrupt entry, and offset";
    EXPECT_EQ(imageOf(rb, "scale"), imageOf(ra, "scale"));

    CompileRequest c = a;
    c.graphText = encodeGraphText(makePipeline(1.5, -4.0));
    ASSERT_EQ(svcc.compile(c).status, RespStatus::Ok);
    EXPECT_EQ(svcc.backendCache().compiles, 5u) << "offset only";
}

TEST_F(DaemonTest, SwapAgainstUnknownBaseIsDiagnosed)
{
    CompileService svcc(dev, cfg);
    SwapRequest sw;
    sw.baseBuild = 0xdeadbeef;
    sw.opName = "scale";
    sw.graphText = encodeGraphText(makePipeline(1.5));
    CompileResponse r = svcc.swap(sw);
    EXPECT_EQ(r.status, RespStatus::Failed);
    ASSERT_FALSE(r.diags.diags.empty());
    EXPECT_EQ(r.diags.diags.front().code, CompileCode::SwapRejected);
    EXPECT_EQ(r.diags.diags.front().stage, CompileStage::Swap);
}

TEST_F(DaemonTest, InjectedFaultContainedToRequestingClient)
{
    CompileService svcc(dev, cfg);

    // Every compile of 'scale' throws for THIS request only.
    CompileRequest faulty = makeRequest(1.5);
    faulty.opts.faultSpec = "throw:scale";
    CompileResponse bad = svcc.compile(faulty);
    EXPECT_EQ(bad.status, RespStatus::Failed);
    EXPECT_FALSE(bad.diags.diags.empty());
    EXPECT_EQ(svcc.stats().failed.load(), 1u);

    // A clean client with the same graph is unaffected (different
    // request key, different backend compiler) and the failure was
    // never stored.
    CompileResponse good = svcc.compile(makeRequest(1.5));
    EXPECT_EQ(good.status, RespStatus::Ok);
    EXPECT_FALSE(good.storeHit);
    EXPECT_FALSE(good.blob.empty());

    // A malformed fault spec is a structured diagnostic, not a crash.
    CompileRequest bad_spec = makeRequest(1.5);
    bad_spec.opts.faultSpec = "not_a_fault_kind:zzz";
    CompileResponse r = svcc.compile(bad_spec);
    EXPECT_EQ(r.status, RespStatus::Failed);
    ASSERT_FALSE(r.diags.diags.empty());
    EXPECT_EQ(r.diags.diags.front().code,
              CompileCode::FaultSpecInvalid);
}

TEST_F(DaemonTest, PerRequestTraceFileWritten)
{
    CompileService svcc(dev, cfg);
    CompileRequest req = makeRequest(1.5);
    req.opts.traceFile = dir + "/request.trace.json";
    CompileResponse r = svcc.compile(req);
    ASSERT_EQ(r.status, RespStatus::Ok);

    std::ifstream f(req.opts.traceFile);
    ASSERT_TRUE(f.is_open()) << "trace file must exist";
    std::string text((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("traceEvents"), std::string::npos);
    EXPECT_NE(text.find("pld.op"), std::string::npos)
        << "the per-request trace must contain compile spans";
}

TEST_F(DaemonTest, StatsReportOversizeRejections)
{
    // A blob larger than the whole store budget fails put(): the
    // request is still served from memory, and `pldc stats` must say
    // why the artifact was not stored.
    cfg.storeBudgetBytes = 16;
    CompileService svcc(dev, cfg);
    CompileResponse r = svcc.compile(makeRequest(1.5));
    EXPECT_EQ(r.status, RespStatus::Ok);
    std::string stats = svcc.statsText();
    EXPECT_NE(stats.find("store.oversize 1\n"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("store.io_errors 0\n"), std::string::npos)
        << stats;
}

// ---- socket-level tests ------------------------------------------

TEST_F(DaemonTest, SocketRoundTripAndStats)
{
    CompileService svcc(dev, cfg);
    DaemonServer server(svcc, dir + "/pldd.sock");
    server.start();

    Client client(server.socketPath());
    ASSERT_TRUE(client.connect());
    CompileResponse r = client.compile(makeRequest(1.5));
    EXPECT_EQ(r.status, RespStatus::Ok);
    EXPECT_FALSE(r.blob.empty());

    std::string stats = client.stats();
    EXPECT_NE(stats.find("svc.submitted 1"), std::string::npos)
        << stats;

    EXPECT_TRUE(client.shutdownDaemon());
    server.waitForShutdownRequest();
    server.stop();
}

TEST_F(DaemonTest, ClientDeathMidCompileNeverStrandsWaiters)
{
    CompileService svcc(dev, cfg);
    DaemonServer server(svcc, dir + "/pldd.sock");
    server.start();
    CompileRequest req = makeRequest(3.25);

    // Client A fires the request and hangs up without reading the
    // response — its handler thread is now compiling for a dead peer.
    {
        Client a(server.socketPath());
        ASSERT_TRUE(a.connect());
        a.submitOnly(req);
    } // destructor closes the socket

    // Client B submits the identical request and must receive the
    // artifact: either it coalesces onto A's in-flight compile, or
    // A's finished result is served from the store/coalescer.
    Client b(server.socketPath());
    ASSERT_TRUE(b.connect());
    CompileResponse r = b.compile(req);
    EXPECT_EQ(r.status, RespStatus::Ok);
    EXPECT_FALSE(r.blob.empty());

    server.stop(); // waits for A's handler
    EXPECT_EQ(svcc.stats().storeMisses.load(), 1u)
        << "the dead client's compile and B's must have shared one "
           "backend execution";
}

TEST_F(DaemonTest, SequentialConnectionsDoNotGrowMappings)
{
    // Every connection gets its own handler thread. A handler kept
    // until stop() holds its stack mapped, so a long-lived daemon
    // serving short connections would grow without bound and, at
    // the kernel's mapping limit, fail to start threads at all.
    CompileService svcc(dev, cfg);
    DaemonServer server(svcc, dir + "/pldd.sock");
    server.start();
    auto cycle = [&](uint64_t nonce) {
        Client c(server.socketPath());
        ASSERT_TRUE(c.connect());
        EXPECT_TRUE(c.ping(nonce));
        c.close();
    };
    for (uint64_t i = 0; i < 8; ++i)
        cycle(i);
    size_t before = mappingCount();
    for (uint64_t i = 0; i < 64; ++i)
        cycle(100 + i);
    size_t after = mappingCount();
    EXPECT_LT(after, before + 16)
        << "mappings grew from " << before << " to " << after
        << " over 64 finished connections";
    server.stop();
}

TEST(Wire, ElfTextCountThatWrapsIsCacheCorrupt)
{
    // A text-word count whose byte size wraps 64 bits must fail the
    // length check as CacheCorrupt, not reach vector::reserve.
    SwapBlob sb;
    sb.op = "op";
    sb.binding.elf.text = {1, 2, 3};
    std::vector<uint8_t> blob = sb.encode();
    // magic, version, op (u64 length + bytes), fnChanged, opIdx,
    // pageId, impl, cyclesPerOp, elf entry, elf memBytes.
    size_t at = 4 + 4 + 8 + sb.op.size() + 1 + 4 + 4 + 1 + 8 + 4 + 4;
    ASSERT_LE(at + 8, blob.size());
    uint64_t count = 0;
    for (int i = 0; i < 8; ++i)
        count |= uint64_t(blob[at + i]) << (8 * i);
    ASSERT_EQ(count, 3u);
    const uint64_t wraps = 0x4000000000000001ull; // * 4 == 4 mod 2^64
    for (int i = 0; i < 8; ++i)
        blob[at + i] = static_cast<uint8_t>(wraps >> (8 * i));
    try {
        SwapBlob::decode(blob);
        FAIL() << "decode accepted a text count past the blob";
    } catch (const CompileError &e) {
        EXPECT_EQ(e.diag().code, CompileCode::CacheCorrupt);
    }
}

} // namespace
