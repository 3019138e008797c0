/**
 * @file
 * Tests for the parallel experiment engine (`sim/sweep`): the
 * determinism contract (parallel grids bit-identical to the serial
 * loop), parallelFor semantics, SDBP_JOBS parsing, per-cell artifact
 * path derivation, and thread-safety of the isolatedIpc memo.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "obs/json.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "trace/spec_profiles.hh"

namespace sdbp
{
namespace
{

/** Tiny budget: determinism does not need long runs. */
RunConfig
tinyConfig()
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 50000;
    cfg.measureInstructions = 200000;
    return cfg;
}

/** Sweep options with @p jobs workers and everything else default. */
sweep::SweepOptions
withJobs(unsigned jobs)
{
    sweep::SweepOptions opts;
    opts.jobs = jobs;
    return opts;
}

void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.benchmark, b.benchmark);
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.llcAccesses, b.llcAccesses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
    EXPECT_EQ(a.hasDbrb, b.hasDbrb);
    EXPECT_EQ(a.dbrb.predictions, b.dbrb.predictions);
    EXPECT_EQ(a.dbrb.positives, b.dbrb.positives);
    EXPECT_EQ(a.dbrb.falsePositiveHits, b.dbrb.falsePositiveHits);
    EXPECT_EQ(a.dbrb.bypassReuses, b.dbrb.bypassReuses);
    EXPECT_EQ(a.dbrb.deadEvictions, b.dbrb.deadEvictions);
    EXPECT_EQ(a.dbrb.bypasses, b.dbrb.bypasses);
}

TEST(SweepEngine, GridMatchesSerialLoop)
{
    const RunConfig cfg = tinyConfig();
    const std::vector<std::string> benches = {"456.hmmer", "429.mcf",
                                              "450.soplex"};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};

    const sweep::Grid par =
        sweep::runGrid(benches, policies, cfg, withJobs(4));
    ASSERT_EQ(par.cells.size(), benches.size() * policies.size());
    EXPECT_EQ(par.benchmarks, benches);

    for (std::size_t b = 0; b < benches.size(); ++b)
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunResult serial =
                runSingleCore(benches[b], policies[p], cfg);
            expectSameRun(par.at(b, p), serial);
        }
}

TEST(SweepEngine, JobCountDoesNotChangeResults)
{
    const RunConfig cfg = tinyConfig();
    const std::vector<std::string> benches = {"429.mcf", "403.gcc"};
    const std::vector<PolicyKind> policies = {PolicyKind::Sampler};

    const sweep::Grid one =
        sweep::runGrid(benches, policies, cfg, withJobs(1));
    const sweep::Grid four =
        sweep::runGrid(benches, policies, cfg, withJobs(4));
    ASSERT_EQ(one.cells.size(), four.cells.size());
    for (std::size_t i = 0; i < one.cells.size(); ++i)
        expectSameRun(one.cells[i], four.cells[i]);
}

/** Artifact JSON with wall-clock-dependent members removed. */
obs::JsonValue
scrubbed(const obs::JsonValue &doc)
{
    obs::JsonValue out = obs::JsonValue::object();
    for (const auto &[key, value] : doc.members())
        if (key != "profile" && key != "timing")
            out.set(key, value);
    return out;
}

TEST(SweepEngine, ArtifactsAreDeterministicModuloProfile)
{
    RunConfig cfg = tinyConfig();
    cfg.obs.collect = true;

    const std::vector<std::string> benches = {"456.hmmer"};
    const std::vector<PolicyKind> policies = {PolicyKind::Sampler};

    const sweep::Grid a = sweep::runGrid(benches, policies, cfg, withJobs(1));
    const sweep::Grid b = sweep::runGrid(benches, policies, cfg, withJobs(2));
    ASSERT_TRUE(a.at(0, 0).artifacts);
    ASSERT_TRUE(b.at(0, 0).artifacts);
    // The profile and timing sections carry wall-clock seconds;
    // everything else (stats, intervals, config echo) must match
    // byte for byte.
    EXPECT_EQ(scrubbed(a.at(0, 0).artifacts->toJson()).dump(),
              scrubbed(b.at(0, 0).artifacts->toJson()).dump());
}

TEST(SweepEngine, MixGridMatchesSerialLoop)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 40000;
    cfg.measureInstructions = 120000;

    const auto &all = multicoreMixes();
    ASSERT_GE(all.size(), 2u);
    const std::vector<MixProfile> mixes(all.begin(), all.begin() + 2);
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};

    const sweep::MixGrid par =
        sweep::runMixGrid(mixes, policies, cfg, withJobs(4));
    ASSERT_EQ(par.cells.size(), mixes.size() * policies.size());

    for (std::size_t m = 0; m < mixes.size(); ++m)
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const MulticoreRunResult serial =
                runMulticore(mixes[m], policies[p], cfg);
            const MulticoreRunResult &cell = par.at(m, p);
            EXPECT_EQ(cell.mix, serial.mix);
            EXPECT_EQ(cell.policy, serial.policy);
            EXPECT_EQ(cell.ipc, serial.ipc);
            EXPECT_EQ(cell.llcMisses, serial.llcMisses);
            EXPECT_EQ(cell.totalInstructions,
                      serial.totalInstructions);
            EXPECT_EQ(cell.mpki, serial.mpki);
        }
}

TEST(SweepEngine, DefaultJobsHonorsEnvironment)
{
    ::setenv("SDBP_JOBS", "3", 1);
    EXPECT_EQ(sweep::defaultJobs(), 3u);

    ::setenv("SDBP_JOBS", "1", 1);
    EXPECT_EQ(sweep::defaultJobs(), 1u);

    ::unsetenv("SDBP_JOBS");
    EXPECT_GE(sweep::defaultJobs(), 1u);
}

TEST(SweepEngineDeathTest, MalformedJobsEnvironmentIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Malformed or out-of-range SDBP_JOBS is a hard error with a
    // one-line diagnostic, never a silent fallback.
    ::setenv("SDBP_JOBS", "0", 1);
    EXPECT_EXIT(sweep::defaultJobs(), testing::ExitedWithCode(1),
                "SDBP_JOBS");
    ::setenv("SDBP_JOBS", "banana", 1);
    EXPECT_EXIT(sweep::defaultJobs(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    ::setenv("SDBP_JOBS", "12banana", 1);
    EXPECT_EXIT(sweep::defaultJobs(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    ::setenv("SDBP_JOBS", "-2", 1);
    EXPECT_EXIT(sweep::defaultJobs(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    ::setenv("SDBP_JOBS", "5000", 1);
    EXPECT_EXIT(sweep::defaultJobs(), testing::ExitedWithCode(1),
                "out of range");
    ::unsetenv("SDBP_JOBS");
}

TEST(SweepEngine, DefaultRetriesHonorsEnvironment)
{
    ::setenv("SDBP_RETRIES", "2", 1);
    EXPECT_EQ(sweep::defaultRetries(), 2u);
    ::unsetenv("SDBP_RETRIES");
    EXPECT_EQ(sweep::defaultRetries(), 0u);
}

TEST(SweepEngineDeathTest, MalformedRetriesEnvironmentIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    ::setenv("SDBP_RETRIES", "17", 1);
    EXPECT_EXIT(sweep::defaultRetries(), testing::ExitedWithCode(1),
                "out of range");
    ::setenv("SDBP_RETRIES", "two", 1);
    EXPECT_EXIT(sweep::defaultRetries(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    ::unsetenv("SDBP_RETRIES");
}

TEST(SweepEngine, CellArtifactPathDerivation)
{
    EXPECT_EQ(sweep::cellArtifactPath("run.json", "456.hmmer",
                                      "Random Sampler"),
              "run.456_hmmer.random_sampler.json");
    EXPECT_EQ(sweep::cellArtifactPath("out/stats.json", "429.mcf",
                                      "LRU"),
              "out/stats.429_mcf.lru.json");
    // No extension: suffixes are appended.
    EXPECT_EQ(sweep::cellArtifactPath("artifacts", "mix1", "LRU"),
              "artifacts.mix1.lru");
    // Dots in directory names must not be mistaken for extensions.
    EXPECT_EQ(sweep::cellArtifactPath("a.b/stats", "x", "LRU"),
              "a.b/stats.x.lru");
}

TEST(SweepEngine, ParallelForCoversEveryIndexOnce)
{
    for (unsigned jobs : {1u, 2u, 8u}) {
        std::vector<std::atomic<int>> hits(64);
        sweep::parallelFor(hits.size(), jobs,
                           [&](std::size_t i) { ++hits[i]; });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(SweepEngine, ParallelForEdgeCases)
{
    // n == 0: no calls, no hang.
    sweep::parallelFor(0, 4, [](std::size_t) { FAIL(); });

    // jobs > n: every index still runs exactly once.
    std::vector<std::atomic<int>> hits(3);
    sweep::parallelFor(hits.size(), 16,
                       [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(SweepEngine, ParallelForRethrowsLowestFailingIndex)
{
    std::atomic<int> ran{0};
    try {
        sweep::parallelFor(8, 4, [&](std::size_t i) {
            ++ran;
            if (i == 5)
                throw std::runtime_error("five");
            if (i == 2)
                throw std::runtime_error("two");
        });
        FAIL() << "expected parallelFor to rethrow";
    } catch (const std::runtime_error &e) {
        // Deterministic error reporting: the lowest failing index
        // wins, matching what a serial loop would hit first.
        EXPECT_STREQ(e.what(), "two");
    }
    // Every task still ran to completion before the rethrow.
    EXPECT_EQ(ran.load(), 8);
}

TEST(SweepEngine, IsolatedIpcIsThreadSafeAndConsistent)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 40000;
    cfg.measureInstructions = 120000;

    const std::string bench = "429.mcf";
    const double expected = isolatedIpc(bench, cfg);

    std::vector<double> got(8);
    sweep::parallelFor(got.size(), 4, [&](std::size_t i) {
        got[i] = isolatedIpc(bench, cfg);
    });
    for (double v : got)
        EXPECT_EQ(v, expected);
}

} // namespace
} // namespace sdbp
