/**
 * @file
 * Telemetry layer tests (DESIGN.md §14): SpanTracer semantics
 * (inertness, nesting, thread attribution, overflow, annotations),
 * Chrome trace_event export shape, run() phases mirrored as phase
 * spans, the PerfCounters no-op fallback, and sweep integration —
 * one cell span per grid cell with stdout staying silent.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "obs/json.hh"
#include "obs/span_tracer.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "util/perf_counters.hh"

namespace sdbp
{
namespace
{

using obs::JsonValue;
using obs::SpanRecord;
using obs::SpanTracer;

TEST(SpanTracer, DisabledTracerIsInert)
{
    SpanTracer tracer(16);
    ASSERT_FALSE(tracer.enabled());
    {
        auto s = tracer.span("cell", "x/y");
        EXPECT_FALSE(s.active());
        s.setFailed(true); // must be callable on an inert handle
    }
    tracer.emit("phase", "warmup", {}, {});
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(SpanTracer, RecordsNamesCategoriesAndNesting)
{
    SpanTracer tracer(16);
    tracer.setEnabled(true);
    {
        auto outer = tracer.span("cell", "hmmer/Sampler");
        auto inner = tracer.span("phase", "measure");
        EXPECT_TRUE(outer.active());
        EXPECT_TRUE(inner.active());
    }
    ASSERT_EQ(tracer.size(), 2u);
    const auto spans = tracer.snapshot();
    // Start-time order: outer began first.
    EXPECT_EQ(spans[0].name, "hmmer/Sampler");
    EXPECT_EQ(spans[0].category, "cell");
    EXPECT_EQ(spans[0].depth, 0u);
    EXPECT_EQ(spans[1].name, "measure");
    EXPECT_EQ(spans[1].category, "phase");
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[0].tid, spans[1].tid);
}

TEST(SpanTracer, AttributesSpansToThreads)
{
    SpanTracer tracer(64);
    tracer.setEnabled(true);
    auto worker = [&tracer] {
        auto s = tracer.span("cell", "w");
    };
    std::thread a(worker), b(worker);
    a.join();
    b.join();
    ASSERT_EQ(tracer.size(), 2u);
    const auto spans = tracer.snapshot();
    EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(SpanTracer, OverflowDropsInsteadOfOverwriting)
{
    SpanTracer tracer(2);
    tracer.setEnabled(true);
    for (int i = 0; i < 5; ++i) {
        auto s = tracer.span("cell", "c" + std::to_string(i));
    }
    EXPECT_EQ(tracer.recorded(), 5u);
    EXPECT_EQ(tracer.size(), 2u);
    EXPECT_EQ(tracer.dropped(), 3u);
    // The stored spans are the first two; nothing was overwritten.
    const auto spans = tracer.snapshot();
    EXPECT_EQ(spans[0].name, "c0");
    EXPECT_EQ(spans[1].name, "c1");

    tracer.clear();
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.size(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(SpanTracer, AnnotationsRideAlong)
{
    SpanTracer tracer(16);
    tracer.setEnabled(true);
    {
        auto s = tracer.span("cell", "a/B");
        s.setAttempts(3);
        s.setFailed(/*timed_out=*/true);
    }
    {
        auto s = tracer.span("cell", "c/D");
        s.setResumed();
    }
    const auto spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].attempts, 3u);
    EXPECT_TRUE(spans[0].failed);
    EXPECT_TRUE(spans[0].timedOut);
    EXPECT_TRUE(spans[1].resumed);
    EXPECT_FALSE(spans[1].failed);
}

TEST(SpanTracer, ChromeTraceExportIsValidAndShaped)
{
    SpanTracer tracer(16);
    tracer.setEnabled(true);
    {
        auto s = tracer.span("cell", "hmmer/Sampler");
        s.setAttempts(2);
        s.setFailed(false);
    }
    tracer.emit("phase", "warmup", {}, {}, "hmmer/Sampler");

    const std::string text = tracer.toChromeTrace().dump();
    std::string err;
    const auto doc = JsonValue::parse(text, &err);
    ASSERT_TRUE(doc.has_value()) << err;

    EXPECT_EQ(doc->find("schema")->asString(), "sdbp.trace_spans/1");
    EXPECT_EQ(doc->find("spans_recorded")->asUInt(), 2u);
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_EQ(events->size(), 2u);
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        // The Chrome trace_event complete-event contract.
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("cat"), nullptr);
        EXPECT_EQ(e.find("ph")->asString(), "X");
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("dur"), nullptr);
        ASSERT_NE(e.find("pid"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        ASSERT_NE(e.find("args"), nullptr);
    }
    // Identify events by category: the emitted phase span carries a
    // zero begin stamp, so its sort position relative to the cell
    // span depends on whether the cell began within the epoch's
    // first microsecond.
    const JsonValue *cell = nullptr;
    const JsonValue *phase = nullptr;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &e = events->at(i);
        (e.find("cat")->asString() == "cell" ? cell : phase) = &e;
    }
    ASSERT_NE(cell, nullptr);
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(cell->find("args")->find("attempts")->asUInt(), 2u);
    EXPECT_TRUE(cell->find("args")->find("failed")->asBool());
    EXPECT_EQ(phase->find("args")->find("cell")->asString(),
              "hmmer/Sampler");
}

/** A run mirrors its two phases as "phase" spans attributed to its
 *  cell, whether or not artifact collection is on. */
TEST(SpanTracer, RunMirrorsPhasesAsPhaseSpans)
{
    SpanTracer &tracer = SpanTracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 5000;
    cfg.measureInstructions = 20000;
    for (const bool collect : {false, true}) {
        tracer.clear();
        cfg.obs.collect = collect;
        runSingleCore("456.hmmer", PolicyKind::Sampler, cfg);
        ASSERT_EQ(tracer.size(), 2u) << "collect=" << collect;
        const auto spans = tracer.snapshot();
        EXPECT_EQ(spans[0].name, "warmup");
        EXPECT_EQ(spans[1].name, "measure");
        for (const SpanRecord &s : spans) {
            EXPECT_EQ(s.category, "phase");
            EXPECT_EQ(s.cell, "456.hmmer/Sampler");
        }
        EXPECT_LE(spans[0].startUs, spans[1].startUs);
    }
    tracer.setEnabled(was_enabled);
    tracer.clear();
}

TEST(PerfCounters, FallbackIsExplicitNoop)
{
    util::PerfCounters pc;
    // Whatever the host supports, the API must stay callable and the
    // valid flag must tell the truth.
    pc.start();
    pc.stop();
    const auto s = pc.sample();
    EXPECT_EQ(s.valid, pc.available());
    if (!pc.available()) {
        EXPECT_EQ(s.cycles, 0u);
        EXPECT_EQ(s.instructions, 0u);
        EXPECT_EQ(s.hostIpc(), 0.0);
    }
}

TEST(PerfCounters, DefaultSampleIsInvalid)
{
    const util::PerfCounters::Sample s{};
    EXPECT_FALSE(s.valid);
    EXPECT_EQ(s.hostIpc(), 0.0);
}

TEST(PerfCounters, CountsWorkWhenAvailable)
{
    util::PerfCounters pc;
    if (!pc.available())
        GTEST_SKIP() << "perf_event unavailable on this host";
    pc.start();
    // Burn some cycles the compiler cannot elide.
    std::atomic<std::uint64_t> sink{0};
    for (int i = 0; i < 100000; ++i)
        sink.fetch_add(i, std::memory_order_relaxed);
    pc.stop();
    const auto s = pc.sample();
    EXPECT_TRUE(s.valid);
    EXPECT_GT(s.instructions, 0u);
    EXPECT_GT(s.cycles, 0u);
}

/** Sweep integration: every grid cell leaves exactly one cell span,
 *  phases are attributed, and stdout stays byte-silent. */
TEST(SpanTracer, SweepEmitsOneCellSpanPerCellAndNoStdout)
{
    SpanTracer &tracer = SpanTracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);
    tracer.clear();

    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 5000;
    cfg.measureInstructions = 20000;
    sweep::SweepOptions opts;
    opts.jobs = 2;

    ::testing::internal::CaptureStdout();
    const sweep::Grid grid = sweep::runGrid(
        {"456.hmmer", "462.libquantum"},
        {PolicyKind::Lru, PolicyKind::Sampler}, cfg, opts);
    const std::string out = ::testing::internal::GetCapturedStdout();

    tracer.setEnabled(was_enabled);
    ASSERT_TRUE(grid.ok());
    EXPECT_EQ(out, "") << "sweep wrote to stdout with tracing on";

    std::multiset<std::string> cells;
    std::size_t phases = 0;
    for (const SpanRecord &s : tracer.snapshot()) {
        if (s.category == "cell")
            cells.insert(s.name);
        else if (s.category == "phase") {
            ++phases;
            EXPECT_FALSE(s.cell.empty());
        }
    }
    for (const char *bench : {"456.hmmer", "462.libquantum"})
        for (const char *pol : {"LRU", "Sampler"})
            EXPECT_EQ(cells.count(std::string(bench) + "/" + pol), 1u)
                << bench << "/" << pol;
    // Each cell runs a warmup and a measure phase.
    EXPECT_GE(phases, 8u);
    tracer.clear();
}

/** A cell whose deadline expires mid-measure keeps its phase spans:
 *  the whole warm-up and the partial measure phase, attributed to
 *  the cell and nested inside its (failed) cell span. */
TEST(SpanTracer, TimedOutCellKeepsItsPhaseSpans)
{
    SpanTracer &tracer = SpanTracer::global();
    const bool was_enabled = tracer.enabled();
    tracer.setEnabled(true);
    tracer.clear();

    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 5000;
    // Far more than one second of simulation: the 1 s deadline
    // always lands in the measure phase.
    cfg.measureInstructions = 1'000'000'000'000;
    sweep::SweepOptions opts;
    opts.jobs = 1;
    ::setenv("SDBP_CELL_TIMEOUT", "1", 1);
    const sweep::Grid grid = sweep::runGrid(
        {"456.hmmer"}, {PolicyKind::Lru}, cfg, opts);
    ::unsetenv("SDBP_CELL_TIMEOUT");
    tracer.setEnabled(was_enabled);

    ASSERT_EQ(grid.errors.size(), 1u);
    EXPECT_TRUE(grid.errors[0].timedOut);
    const SpanRecord *cell = nullptr;
    std::vector<SpanRecord> phases;
    const std::vector<SpanRecord> spans = tracer.snapshot();
    for (const SpanRecord &s : spans) {
        if (s.category == "cell")
            cell = &s;
        else if (s.category == "phase")
            phases.push_back(s);
    }
    ASSERT_NE(cell, nullptr);
    EXPECT_EQ(cell->name, "456.hmmer/LRU");
    EXPECT_TRUE(cell->failed);
    EXPECT_TRUE(cell->timedOut);
    ASSERT_EQ(phases.size(), 2u);
    EXPECT_EQ(phases[0].name, "warmup");
    EXPECT_EQ(phases[1].name, "measure");
    for (const SpanRecord &p : phases) {
        EXPECT_EQ(p.cell, "456.hmmer/LRU");
        EXPECT_GT(p.depth, cell->depth);
        EXPECT_GE(p.startUs, cell->startUs);
        EXPECT_LE(p.startUs + p.durUs, cell->startUs + cell->durUs + 1);
    }
    // The measure phase ran until the deadline cut it short.
    EXPECT_GE(phases[1].durUs, 500'000u);
    tracer.clear();
}

} // anonymous namespace
} // namespace sdbp
