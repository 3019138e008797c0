/**
 * @file
 * Tests of the observability layer (DESIGN.md §9): stat registry
 * registration and lookup, interval timeline semantics, confusion
 * matrix accounting against a real instrumented run, JSON/CSV
 * round-trips, event-stream completeness (every prediction, fill,
 * eviction and bypass reaches the JSONL file, one file per grid
 * cell), and the phase-derived timing block and profile.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>

#include "obs/artifacts.hh"
#include "obs/confusion.hh"
#include "obs/interval.hh"
#include "obs/json.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_sink.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"

using namespace sdbp;
using namespace sdbp::obs;

namespace
{

/** Small instrumented config with an LLC small enough to evict. */
RunConfig
instrumentedConfig(InstCount warmup = 0)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = warmup;
    cfg.measureInstructions = 200000;
    cfg.hierarchy.llc.numSets = 64; // force evictions quickly
    cfg.obs.collect = true;
    cfg.obs.intervalInstructions = 50000;
    return cfg;
}

RunResult
instrumentedRun(InstCount warmup = 0)
{
    return runSingleCore("456.hmmer", PolicyKind::Sampler,
                         instrumentedConfig(warmup));
}

/**
 * Events per kind in the JSONL stream at @p path.  Every line must
 * parse and name one of the four kinds the engine emits.
 */
std::map<std::string, std::uint64_t>
countEvents(const std::string &path)
{
    std::map<std::string, std::uint64_t> counts;
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << path;
    std::string line;
    std::uint64_t n = 0;
    while (std::getline(in, line)) {
        ++n;
        const auto parsed = JsonValue::parse(line);
        if (!parsed.has_value() || parsed->find("event") == nullptr) {
            ADD_FAILURE() << path << ":" << n << " does not parse: "
                          << line;
            continue;
        }
        const std::string kind = parsed->find("event")->asString();
        EXPECT_TRUE(kind == "prediction" || kind == "fill" ||
                    kind == "eviction" || kind == "bypass")
            << path << ":" << n << " has kind " << kind;
        ++counts[kind];
    }
    return counts;
}

/**
 * The stream carries every event of a run without warm-up: one per
 * DBRB consultation, LLC fill, eviction and bypass.
 */
void
expectCompleteStream(const std::string &path, const RunResult &res)
{
    ASSERT_NE(res.artifacts, nullptr);
    const StatSnapshot &snap = res.artifacts->finalSnapshot;
    auto counts = countEvents(path);
    EXPECT_EQ(counts["prediction"], snap.counter("dbrb.predictions"));
    EXPECT_EQ(counts["fill"], snap.counter("llc.fills"));
    EXPECT_EQ(counts["eviction"], snap.counter("llc.evictions"));
    EXPECT_EQ(counts["bypass"], snap.counter("llc.bypasses"));
    EXPECT_GT(counts["fill"], 0u) << path;
    EXPECT_GT(counts["eviction"], 0u) << path;
}

} // anonymous namespace

TEST(StatRegistry, RegistrationAndLookup)
{
    StatRegistry reg;
    std::uint64_t hits = 7;
    double level = 0.25;
    reg.addCounter("llc.hits", &hits);
    reg.addGauge("llc.level", [&] { return level; });

    EXPECT_TRUE(reg.has("llc.hits"));
    EXPECT_TRUE(reg.has("llc.level"));
    EXPECT_FALSE(reg.has("llc.misses"));
    EXPECT_EQ(reg.size(), 2u);
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"llc.hits", "llc.level"}));

    StatSnapshot snap = reg.snapshot(42);
    EXPECT_EQ(snap.tick, 42u);
    EXPECT_EQ(snap.counter("llc.hits"), 7u);
    EXPECT_DOUBLE_EQ(snap.value("llc.level"), 0.25);
    EXPECT_EQ(snap.find("nope"), nullptr);
    EXPECT_DOUBLE_EQ(snap.value("nope", -1.0), -1.0);

    // The registry pulls: later mutations show up in later snapshots,
    // while the earlier snapshot stays frozen.
    hits = 9;
    level = 0.5;
    EXPECT_EQ(snap.counter("llc.hits"), 7u);
    EXPECT_EQ(reg.snapshot().counter("llc.hits"), 9u);
}

TEST(StatRegistry, Join)
{
    EXPECT_EQ(StatRegistry::join("llc", "hits"), "llc.hits");
    EXPECT_EQ(StatRegistry::join("", "hits"), "hits");
}

using StatRegistryDeathTest = ::testing::Test;

TEST(StatRegistryDeathTest, DuplicateNamePanics)
{
    StatRegistry reg;
    std::uint64_t c = 0;
    reg.addCounter("dup", &c);
    EXPECT_DEATH(reg.addCounter("dup", &c), "duplicate stat name");
    EXPECT_DEATH(reg.addGauge("dup", [] { return 0.0; }),
                 "duplicate stat name");
}

TEST(IntervalTimeline, SampleDedupAndDeltas)
{
    StatRegistry reg;
    std::uint64_t insts = 0;
    reg.addCounter("sys.instructions", &insts);

    IntervalTimeline tl(&reg);
    tl.sample(0);
    insts = 100;
    tl.sample(10);
    tl.sample(10); // duplicate tick: dropped
    insts = 250;
    tl.sample(20);

    ASSERT_EQ(tl.snapshots().size(), 3u);
    EXPECT_EQ(tl.numIntervals(), 2u);
    const auto deltas = tl.deltaSeries("sys.instructions");
    ASSERT_EQ(deltas.size(), 2u);
    EXPECT_DOUBLE_EQ(deltas[0], 100.0);
    EXPECT_DOUBLE_EQ(deltas[1], 150.0);
}

TEST(Obs, RunCountersMonotoneAcrossIntervals)
{
    const RunResult res = instrumentedRun();
    ASSERT_NE(res.artifacts, nullptr);
    const auto &art = *res.artifacts;
    ASSERT_GE(art.intervals.size(), 2u);

    // Every counter is cumulative, so each interval snapshot must be
    // >= the previous one for every counter stat.
    for (std::size_t i = 1; i < art.intervals.size(); ++i) {
        const auto &prev = art.intervals[i - 1];
        const auto &cur = art.intervals[i];
        EXPECT_GT(cur.tick, prev.tick);
        ASSERT_EQ(cur.samples.size(), prev.samples.size());
        for (std::size_t s = 0; s < cur.samples.size(); ++s) {
            if (cur.samples[s].kind != StatKind::Counter)
                continue;
            EXPECT_GE(cur.samples[s].counter, prev.samples[s].counter)
                << cur.samples[s].name << " decreased in interval "
                << i;
        }
    }

    // Derived series cover every interval.
    for (const auto &series : art.series)
        EXPECT_EQ(series.values.size(), art.intervals.size() - 1)
            << series.name;
}

TEST(Obs, ConfusionMatchesEvictionCount)
{
    // With no warm-up, every eviction the policy observed is
    // classified in the confusion matrix, so the dead/live eviction
    // cells partition llc.evictions exactly.
    const RunResult res = instrumentedRun(/*warmup=*/0);
    ASSERT_NE(res.artifacts, nullptr);
    const auto &art = *res.artifacts;
    ASSERT_TRUE(art.hasConfusion);

    const std::uint64_t evictions =
        art.finalSnapshot.counter("llc.evictions");
    ASSERT_GT(evictions, 0u) << "run too small to evict";
    EXPECT_EQ(art.confusion.evictionsObserved(), evictions);

    // Confusion cells also appear as registry counters.
    EXPECT_EQ(art.finalSnapshot.counter("dbrb.confusion.dead_evicted"),
              art.confusion.deadEvicted);
    EXPECT_EQ(art.finalSnapshot.counter("dbrb.confusion.live_hit"),
              art.confusion.liveHit);
}

TEST(Obs, ArtifactJsonRoundTrip)
{
    const RunResult res = instrumentedRun();
    ASSERT_NE(res.artifacts, nullptr);
    const std::string text = res.artifacts->toJson().dump();

    std::string error;
    const auto parsed = JsonValue::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_TRUE(parsed->isObject());
    ASSERT_NE(parsed->find("schema"), nullptr);
    EXPECT_EQ(parsed->find("schema")->asString(),
              "sdbp.run_artifacts/1");
    EXPECT_EQ(parsed->find("benchmark")->asString(), "456.hmmer");
    EXPECT_EQ(parsed->find("policy")->asString(), "Sampler");

    // Final snapshot: {"tick": ..., "stats": {flat name -> value}}.
    const JsonValue *final_snap = parsed->find("stats");
    ASSERT_NE(final_snap, nullptr);
    const JsonValue *final_stats = final_snap->find("stats");
    ASSERT_NE(final_stats, nullptr);
    ASSERT_NE(final_stats->find("llc.demand_misses"), nullptr);
    EXPECT_EQ(final_stats->find("llc.demand_misses")->asUInt(),
              res.artifacts->finalSnapshot.counter(
                  "llc.demand_misses"));
}

TEST(Obs, TimelineCsvShape)
{
    const RunResult res = instrumentedRun();
    ASSERT_NE(res.artifacts, nullptr);
    const auto &art = *res.artifacts;
    const std::string csv = art.timelineCsv();

    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(),
                                            '\n'));
    // Header + one row per interval.
    EXPECT_EQ(lines, art.intervals.size());
    EXPECT_EQ(csv.rfind("interval,tick_end", 0), 0u);
}

TEST(JsonValue, EscapingRoundTrip)
{
    JsonValue doc = JsonValue::object();
    doc.set("text", "quote\" slash\\ newline\n tab\t");
    doc.set("n", std::uint64_t{18446744073709551615ull});
    doc.set("x", 1.5);

    const auto parsed = JsonValue::parse(doc.dump(0));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("text")->asString(),
              "quote\" slash\\ newline\n tab\t");
    EXPECT_EQ(parsed->find("n")->asUInt(),
              18446744073709551615ull);
    EXPECT_DOUBLE_EQ(parsed->find("x")->asNumber(), 1.5);
}

TEST(Obs, EventStreamIsComplete)
{
    RunConfig cfg = instrumentedConfig(/*warmup=*/0);
    cfg.obs.traceJsonlPath =
        testing::TempDir() + "sdbp_obs_stream.jsonl";
    const RunResult res =
        runSingleCore("456.hmmer", PolicyKind::Sampler, cfg);
    ASSERT_TRUE(res.hasDbrb);
    EXPECT_GT(res.dbrb.bypasses, 0u);
    expectCompleteStream(cfg.obs.traceJsonlPath, res);
}

TEST(Obs, GridWritesOneEventStreamPerCell)
{
    RunConfig cfg = instrumentedConfig(/*warmup=*/0);
    cfg.obs.traceJsonlPath = testing::TempDir() + "sdbp_obs_grid.jsonl";
    sweep::SweepOptions opts;
    opts.jobs = 2;
    const sweep::Grid grid = sweep::runGrid(
        {"456.hmmer"}, {PolicyKind::Lru, PolicyKind::Sampler}, cfg,
        opts);
    ASSERT_TRUE(grid.ok());
    for (std::size_t p = 0; p < grid.policies.size(); ++p) {
        const RunResult &res = grid.at(0, p);
        expectCompleteStream(
            sweep::cellArtifactPath(cfg.obs.traceJsonlPath,
                                    grid.benchmarks[0], res.policy),
            res);
    }
}

TEST(TraceSink, JsonlLineParses)
{
    TraceEvent e;
    e.tick = 5;
    e.kind = TraceEventKind::Eviction;
    e.set = 3;
    e.blockAddr = 0xdeadbeef;
    e.pc = 0x400000;
    e.predictedDead = true;
    const auto parsed = JsonValue::parse(TraceSink::toJsonl(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->find("event")->asString(), "eviction");
    EXPECT_EQ(parsed->find("tick")->asUInt(), 5u);
    EXPECT_TRUE(parsed->find("dead")->asBool());
}

TEST(ConfusionMatrix, Rates)
{
    ConfusionMatrix c;
    c.deadEvicted = 6; // TP
    c.deadHit = 2;     // FP
    c.liveEvicted = 1; // FN
    c.liveHit = 11;    // TN
    EXPECT_EQ(c.evictionsObserved(), 7u);
    EXPECT_EQ(c.total(), 20u);
    EXPECT_DOUBLE_EQ(c.accuracy(), 17.0 / 20.0);
    EXPECT_DOUBLE_EQ(c.falseDiscoveryRate(), 2.0 / 8.0);
    EXPECT_DOUBLE_EQ(ConfusionMatrix{}.accuracy(), 0.0);
}


namespace
{

/**
 * Host time comes from one record: the timing block and the profile
 * entries both derive from run()'s two phases, which cover every
 * instruction run() ticked (warm-up and restarted programs
 * included), so simulated_instructions is the final tick.
 */
void
expectTimingFromPhases(const RunArtifacts &art)
{
    const JsonValue doc = art.toJson();
    const std::uint64_t tick = doc.find("stats")->find("tick")->asUInt();
    ASSERT_GT(tick, 0u);
    const JsonValue &timing = *doc.find("timing");
    EXPECT_EQ(timing.find("simulated_instructions")->asUInt(), tick);

    const JsonValue &profile = *doc.find("profile");
    ASSERT_EQ(profile.size(), 2u);
    EXPECT_EQ(profile.at(0).find("scope")->asString(), "warmup");
    EXPECT_EQ(profile.at(1).find("scope")->asString(), "measure");
    double seconds = 0;
    std::uint64_t events = 0;
    for (std::size_t i = 0; i < profile.size(); ++i) {
        EXPECT_EQ(profile.at(i).find("calls")->asUInt(), 1u);
        seconds += profile.at(i).find("seconds")->asNumber();
        events += profile.at(i).find("events")->asUInt();
    }
    EXPECT_EQ(events, tick);
    EXPECT_DOUBLE_EQ(timing.find("ns_per_instr")->asNumber(),
                     seconds * 1e9 / static_cast<double>(tick));
}

} // anonymous namespace

TEST(Obs, TimingMatchesPhaseProfileSingleCore)
{
    const RunResult res = instrumentedRun(20000);
    ASSERT_NE(res.artifacts, nullptr);
    expectTimingFromPhases(*res.artifacts);
}

TEST(Obs, TimingMatchesPhaseProfileQuadCore)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 10000;
    cfg.measureInstructions = 20000;
    cfg.hierarchy.llc.numSets = 64;
    cfg.obs.collect = true;
    const MulticoreRunResult res =
        runMulticore(multicoreMixes()[0], PolicyKind::Sampler, cfg);
    ASSERT_NE(res.artifacts, nullptr);
    expectTimingFromPhases(*res.artifacts);
}
