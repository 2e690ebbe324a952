/**
 * Unit tests for the observability subsystem in isolation: span
 * RAII (including unwinding through exceptions), logical parenting
 * across threads, counter/distribution math against hand-computed
 * values, the structural-vs-scheduling event split, and the Chrome
 * trace-event export checked by the same JSON validator that
 * `pldtrace --check` uses in CI.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

using namespace pld;
using namespace pld::obs;

namespace {

/** Flat (cat, name) index of everything the tracer recorded. */
std::map<std::string, const Event *>
eventsByName(const Tracer &t)
{
    std::map<std::string, const Event *> by;
    for (const Event *e : t.allEvents())
        by[e->name] = e;
    return by;
}

} // namespace

// -------- fast path / disabled behaviour ----------------------------

TEST(Trace, DisabledPathIsInert)
{
    // Force the mode decision past the env check, then uninstall.
    Tracer::current();
    Tracer *prev = Tracer::install(nullptr);

    EXPECT_FALSE(active());
    EXPECT_EQ(currentSpan(), 0u);
    {
        Span s("test", "should-not-record");
        EXPECT_EQ(s.id(), 0u);
        s.arg("k", int64_t(1)); // must not crash
    }
    count("test.counter", 5);
    gauge("test.gauge", 1.0);
    record("test.dist", 2.0);
    instant("test", "i").arg("k", int64_t(1));

    // A window opened while disabled snapshots as empty/disabled.
    auto w = beginWindow();
    MetricsSnapshot snap = endWindow(w);
    EXPECT_FALSE(snap.enabled);
    EXPECT_TRUE(snap.counters.empty());

    Tracer::install(prev);
}

// -------- span RAII and nesting -------------------------------------

TEST(Trace, SpanNestingLinksParents)
{
    ScopedTracer st;
    {
        Span outer("test", "outer");
        ASSERT_NE(outer.id(), 0u);
        EXPECT_EQ(currentSpan(), outer.id());
        {
            Span mid("test", "mid");
            Span inner("test", "inner");
            EXPECT_EQ(currentSpan(), inner.id());
        }
        EXPECT_EQ(currentSpan(), outer.id());
    }
    EXPECT_EQ(currentSpan(), 0u);

    auto by = eventsByName(st.tracer());
    ASSERT_TRUE(by.count("outer") && by.count("mid") &&
                by.count("inner"));
    EXPECT_EQ(by["outer"]->parent, 0u);
    EXPECT_EQ(by["mid"]->parent, by["outer"]->id);
    EXPECT_EQ(by["inner"]->parent, by["mid"]->id);
    for (const char *n : {"outer", "mid", "inner"}) {
        EXPECT_FALSE(by[n]->open) << n << " must be closed";
        EXPECT_GE(by[n]->durUs, 0.0) << n;
    }
}

TEST(Trace, SpansCloseWhenExceptionsUnwind)
{
    ScopedTracer st;
    try {
        Span outer("test", "outer");
        Span inner("test", "inner");
        throw std::runtime_error("compile blew up");
    } catch (const std::runtime_error &) {
    }

    EXPECT_EQ(currentSpan(), 0u) << "stack must unwind fully";
    for (const Event *e : st.tracer().allEvents()) {
        EXPECT_FALSE(e->open)
            << e->name << " left open after unwind";
    }
    // A well-formed trace after the throw: the validator sees only
    // complete events.
    std::ostringstream os;
    st.tracer().writeChromeTrace(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, err)) << err;
    EXPECT_TRUE(json::checkChromeTrace(doc, err)) << err;
}

TEST(Trace, ExplicitParentSurvivesThreadHop)
{
    ScopedTracer st;
    uint64_t worker_span = 0;
    {
        Span build("test", "build");
        uint64_t tok = currentSpan();
        std::thread worker([&] {
            Span s("test", "worker", tok);
            worker_span = s.id();
            // On the worker the auto-parent is the worker span, not
            // anything from the spawning thread.
            Span auto_child("test", "auto-child");
            EXPECT_EQ(currentSpan(), auto_child.id());
        });
        worker.join();
    }
    auto by = eventsByName(st.tracer());
    ASSERT_TRUE(by.count("build") && by.count("worker") &&
                by.count("auto-child"));
    EXPECT_EQ(by["worker"]->parent, by["build"]->id)
        << "logical parent token must survive the thread hop";
    EXPECT_EQ(by["auto-child"]->parent, worker_span);
}

TEST(Trace, SpanArgsAreRecorded)
{
    ScopedTracer st;
    {
        Span s("test", "with-args");
        s.arg("op", "flow_calc").arg("cells", int64_t(42));
        s.arg("eff", 1.5);
    }
    auto by = eventsByName(st.tracer());
    ASSERT_TRUE(by.count("with-args"));
    const Event *e = by["with-args"];
    ASSERT_EQ(e->args.size(), 3u);
    EXPECT_EQ(e->args[0].key, "op");
    EXPECT_EQ(e->args[0].val, "flow_calc");
    EXPECT_TRUE(e->args[0].quoted);
    EXPECT_EQ(e->args[1].key, "cells");
    EXPECT_EQ(e->args[1].val, "42");
    EXPECT_FALSE(e->args[1].quoted);
    EXPECT_EQ(e->args[2].key, "eff");
    EXPECT_FALSE(e->args[2].quoted);
}

// -------- structural hash -------------------------------------------

TEST(Trace, StructureHashIgnoresSchedEvents)
{
    auto run = [](bool with_sched) {
        ScopedTracer st;
        {
            Span a("pld", "build");
            {
                Span b("pnr", "route");
                if (with_sched) {
                    // Scheduling-dependent: an instant in category
                    // "sched", marked non-structural.
                    instant("sched", "cache.hit",
                            /*structural=*/false);
                }
                Span c("pnr", "iter");
            }
        }
        return st.tracer().structureHash();
    };
    uint64_t bare = run(false);
    uint64_t sched = run(true);
    EXPECT_EQ(bare, sched)
        << "sched events must not perturb the structure hash";
}

TEST(Trace, StructureHashSeesShapeNamesAndArgs)
{
    auto run = [](const char *inner, int64_t arg_v, bool nested) {
        ScopedTracer st;
        if (nested) {
            Span a("t", "outer");
            Span b("t", inner);
            b.arg("v", arg_v);
        } else {
            // Same two events as siblings instead of parent/child.
            { Span a("t", "outer"); }
            Span b("t", inner);
            b.arg("v", arg_v);
        }
        return st.tracer().structureHash();
    };
    uint64_t base = run("inner", 1, true);
    EXPECT_NE(base, run("other", 1, true)) << "name must matter";
    EXPECT_NE(base, run("inner", 2, true)) << "args must matter";
    EXPECT_NE(base, run("inner", 1, false)) << "shape must matter";
    EXPECT_EQ(base, run("inner", 1, true)) << "must be reproducible";
}

// -------- counters, gauges, distributions ---------------------------

TEST(Metrics, CounterMathAndWindows)
{
    ScopedTracer st;
    count("c.x", 3);
    auto w = beginWindow();
    count("c.x", 4);
    count("c.x");
    count("c.y", -2);
    MetricsSnapshot delta = endWindow(w);
    EXPECT_TRUE(delta.enabled);
    EXPECT_EQ(delta.counter("c.x"), 5) << "window must be a delta";
    EXPECT_EQ(delta.counter("c.y"), -2);
    EXPECT_EQ(delta.counter("c.missing", 7), 7);

    MetricsSnapshot total = st.tracer().metrics().snapshot();
    EXPECT_EQ(total.counter("c.x"), 8);
}

TEST(Metrics, DistributionSummaryMatchesHandComputed)
{
    ScopedTracer st;
    // 1..100 shuffled-ish (record order must not matter).
    for (int i = 100; i >= 1; --i)
        record("d.t", double(i));
    MetricsSnapshot s = st.tracer().metrics().snapshot();
    const DistSummary *d = s.dist("d.t");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->count, 100u);
    EXPECT_DOUBLE_EQ(d->sum, 5050.0);
    EXPECT_DOUBLE_EQ(d->mean(), 50.5);
    EXPECT_DOUBLE_EQ(d->min, 1.0);
    EXPECT_DOUBLE_EQ(d->p50, 50.0); // nearest rank: ceil(.5*100)=50
    EXPECT_DOUBLE_EQ(d->p95, 95.0); // ceil(.95*100)=95
    EXPECT_DOUBLE_EQ(d->max, 100.0);
}

TEST(Metrics, DistributionSmallSampleQuantiles)
{
    DistSummary one = summarize({3.0});
    EXPECT_DOUBLE_EQ(one.p50, 3.0);
    EXPECT_DOUBLE_EQ(one.p95, 3.0);

    DistSummary two = summarize({2.0, 1.0});
    EXPECT_DOUBLE_EQ(two.min, 1.0);
    EXPECT_DOUBLE_EQ(two.p50, 1.0); // ceil(.5*2)=1 -> first
    EXPECT_DOUBLE_EQ(two.p95, 2.0); // ceil(.95*2)=2 -> second
    EXPECT_DOUBLE_EQ(two.max, 2.0);

    DistSummary none = summarize({});
    EXPECT_EQ(none.count, 0u);
    EXPECT_DOUBLE_EQ(none.mean(), 0.0);
}

TEST(Metrics, SchedCountersExcludedFromDeterminism)
{
    ScopedTracer st;
    count("cache.hits", 2);
    MetricsSnapshot a = st.tracer().metrics().snapshot();
    uint64_t h = a.countersHash();

    count("sched.cache.waits", 9);
    MetricsSnapshot b = st.tracer().metrics().snapshot();
    EXPECT_EQ(b.counter("sched.cache.waits"), 9)
        << "sched counters are still recorded";
    EXPECT_EQ(b.countersHash(), h)
        << "but must not perturb the determinism hash";
    auto det = b.deterministicCounters();
    EXPECT_EQ(det.count("sched.cache.waits"), 0u);
    EXPECT_EQ(det.at("cache.hits"), 2);

    count("cache.hits");
    EXPECT_NE(st.tracer().metrics().snapshot().countersHash(), h)
        << "deterministic counters must perturb it";
}

TEST(Metrics, GaugesLastWriteWins)
{
    ScopedTracer st;
    gauge("g.x", 1.0);
    gauge("g.x", 42.5);
    MetricsSnapshot s = st.tracer().metrics().snapshot();
    EXPECT_DOUBLE_EQ(s.gauge("g.x"), 42.5);
}

// -------- Chrome trace export + validator ---------------------------

TEST(Export, ChromeTraceSchemaRoundTrip)
{
    ScopedTracer st;
    {
        Span a("pld", "build");
        a.arg("level", "o1").arg("ops", int64_t(2));
        {
            Span b("hls", "hls.compile");
            instant("cache", "cache.corrupt_recompile")
                .arg("op", std::string("flow_calc"));
        }
        flowStart("sys", "sys.dma.in", 1).arg("words", int64_t(64));
        flowFinish("sys", "sys.dma.in", 1);
    }
    std::ostringstream os;
    st.tracer().writeChromeTrace(os);

    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, err)) << err;
    ASSERT_TRUE(json::checkChromeTrace(doc, err)) << err;

    // Every recorded event appears (plus per-thread metadata).
    const json::Value *evs = doc.get("traceEvents");
    ASSERT_NE(evs, nullptr);
    size_t meta = 0, x = 0, inst = 0, flow = 0;
    for (const auto &e : evs->arr) {
        const std::string &ph = e.get("ph")->str;
        if (ph == "M")
            ++meta;
        else if (ph == "X")
            ++x;
        else if (ph == "i")
            ++inst;
        else if (ph == "s" || ph == "f")
            ++flow;
    }
    EXPECT_EQ(x, 2u);
    EXPECT_EQ(inst, 1u);
    EXPECT_EQ(flow, 2u);
    EXPECT_GE(meta, 1u);
}

TEST(Export, ValidatorRejectsMalformedTraces)
{
    auto check = [](const char *text, std::string *why) {
        json::Value doc;
        std::string err;
        if (!json::parse(text, doc, err)) {
            *why = "parse: " + err;
            return false;
        }
        bool ok = json::checkChromeTrace(doc, err);
        *why = err;
        return ok;
    };
    std::string why;
    // Unmatched B.
    EXPECT_FALSE(check(R"({"traceEvents":[
        {"ph":"B","name":"a","cat":"t","pid":1,"tid":1,"ts":0}
    ]})",
                       &why))
        << why;
    // E without B.
    EXPECT_FALSE(check(R"({"traceEvents":[
        {"ph":"E","name":"a","cat":"t","pid":1,"tid":1,"ts":0}
    ]})",
                       &why));
    // Negative duration.
    EXPECT_FALSE(check(R"({"traceEvents":[
        {"ph":"X","name":"a","cat":"t","pid":1,"tid":1,"ts":5,
         "dur":-1}
    ]})",
                       &why));
    // Flow event without an id.
    EXPECT_FALSE(check(R"({"traceEvents":[
        {"ph":"s","name":"a","cat":"t","pid":1,"tid":1,"ts":0}
    ]})",
                       &why));
    // Well-formed B/E pair passes.
    EXPECT_TRUE(check(R"({"traceEvents":[
        {"ph":"B","name":"a","cat":"t","pid":1,"tid":1,"ts":0},
        {"ph":"E","name":"a","cat":"t","pid":1,"tid":1,"ts":2}
    ]})",
                      &why))
        << why;
}

TEST(Export, MetricsJsonParsesAndCarriesHashes)
{
    ScopedTracer st;
    {
        Span a("pld", "build");
        count("cache.hits", 3);
        record("hls.seconds", 0.25);
        gauge("pld.wall.hls", 0.5);
    }
    std::ostringstream os;
    st.tracer().writeMetricsJson(os);
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(os.str(), doc, err)) << err;

    const json::Value *hash = doc.get("structure_hash");
    ASSERT_NE(hash, nullptr);
    EXPECT_EQ(hash->type, json::Type::Str);
    EXPECT_EQ(hash->str.rfind("0x", 0), 0u);

    const json::Value *counters = doc.get("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->get("cache.hits"), nullptr);
    EXPECT_DOUBLE_EQ(counters->get("cache.hits")->num, 3.0);
}
