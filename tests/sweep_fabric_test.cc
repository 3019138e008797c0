/**
 * @file
 * Tests for the crash-isolated multi-process sweep fabric
 * (DESIGN.md §16): worker-mode grids merge bit-identically to
 * serial runs, deterministic chaos injection (abort / segv / exit1 /
 * hang) is charged only to the claimed cell, the coordinator's hard
 * timeout SIGKILLs wedged workers, stale leases are reclaimed, and
 * manifests of an older schema are refused.
 *
 * This binary has a custom main(): sweep::maybeWorkerMain must run
 * before InitGoogleTest so the test binary itself can host worker
 * subprocesses — the same contract every bench binary follows.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/sweep_manifest.hh"
#include "sim/worker.hh"
#include "trace/spec_profiles.hh"
#include "util/file.hh"

namespace sdbp
{
namespace
{

RunConfig
tinyConfig()
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;
    return cfg;
}

std::vector<std::string>
twoBenchmarks()
{
    const auto &subset = memoryIntensiveSubset();
    return {subset[0], subset[1]};
}

/** Fresh manifest path per test so checkpoints never collide. */
std::string
manifestPath(const std::string &test)
{
    const std::string path =
        testing::TempDir() + "sdbp_fabric_" + test + ".manifest.json";
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    return path;
}

/** RAII environment variable, restored to unset on scope exit. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~EnvGuard() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/** Every scalar a checkpoint carries must round-trip bit-exactly. */
void
expectSameResult(const RunResult &a, const RunResult &b)
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
    EXPECT_EQ(a.llcEfficiency, b.llcEfficiency);
    EXPECT_EQ(a.hasDbrb, b.hasDbrb);
    EXPECT_EQ(a.dbrb.predictions, b.dbrb.predictions);
    EXPECT_EQ(a.dbrb.positives, b.dbrb.positives);
    EXPECT_EQ(a.dbrb.falsePositiveHits, b.dbrb.falsePositiveHits);
    EXPECT_EQ(a.dbrb.deadEvictions, b.dbrb.deadEvictions);
    EXPECT_EQ(a.dbrb.bypasses, b.dbrb.bypasses);
    EXPECT_EQ(a.faultsInjected, b.faultsInjected);
    // wallSeconds is timing, not physics: deliberately not compared.
}

TEST(SweepFabric, BinaryIsWorkerCapable)
{
    // main() below calls maybeWorkerMain before anything else; the
    // coordinator refuses to spawn from binaries that did not.
    EXPECT_TRUE(sweep::workerCapable());
    EXPECT_FALSE(sweep::inWorkerProcess());
}

TEST(SweepFabric, ConfigJsonRoundTrip)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 1234;
    cfg.measureInstructions = 56789;
    cfg.recordLlcTrace = true;
    cfg.trackEfficiency = true;
    cfg.hierarchy.llc.numSets = 1024;
    cfg.hierarchy.llc.assoc = 8;
    cfg.hierarchy.memLatency = 321;
    cfg.hierarchy.memServiceInterval = 7;
    cfg.hierarchy.prefetch.degree = 2;
    cfg.policy.seed = 0x1234;
    cfg.policy.dbrb.fault.faultsPerMillion = 42;
    cfg.policy.dbrb.fault.seed = 99;
    cfg.obs.collect = true;
    cfg.obs.intervalInstructions = 5000;
    cfg.obs.statsJsonPath = "stats.json";

    // Manifests written by older builds carry the retired
    // forced-virtual-route flag and event-ring capacity; they must
    // still parse.
    obs::JsonValue legacy = obs::toJson(cfg);
    legacy.set("force_virtual_path", true);
    obs::JsonValue legacy_obs = obs::toJson(cfg.obs);
    legacy_obs.set("trace_capacity", std::uint64_t{4096});
    legacy.set("obs", std::move(legacy_obs));
    for (const obs::JsonValue &json : {obs::toJson(cfg), legacy}) {
        const RunConfig back = obs::fromJson<RunConfig>(json);
        EXPECT_EQ(back.warmupInstructions, cfg.warmupInstructions);
        EXPECT_EQ(back.measureInstructions, cfg.measureInstructions);
        EXPECT_EQ(back.recordLlcTrace, cfg.recordLlcTrace);
        EXPECT_EQ(back.trackEfficiency, cfg.trackEfficiency);
        EXPECT_EQ(back.hierarchy.llc.numSets, cfg.hierarchy.llc.numSets);
        EXPECT_EQ(back.hierarchy.llc.assoc, cfg.hierarchy.llc.assoc);
        EXPECT_EQ(back.hierarchy.memLatency, cfg.hierarchy.memLatency);
        EXPECT_EQ(back.hierarchy.memServiceInterval,
                  cfg.hierarchy.memServiceInterval);
        EXPECT_EQ(back.hierarchy.numCores, cfg.hierarchy.numCores);
        EXPECT_EQ(back.hierarchy.prefetch.degree,
                  cfg.hierarchy.prefetch.degree);
        EXPECT_EQ(back.policy.seed, cfg.policy.seed);
        EXPECT_EQ(back.policy.dbrb.fault.faultsPerMillion,
                  cfg.policy.dbrb.fault.faultsPerMillion);
        EXPECT_EQ(back.policy.dbrb.fault.seed, cfg.policy.dbrb.fault.seed);
        EXPECT_EQ(back.obs.collect, cfg.obs.collect);
        EXPECT_EQ(back.obs.intervalInstructions,
                  cfg.obs.intervalInstructions);
        EXPECT_EQ(back.obs.statsJsonPath, cfg.obs.statsJsonPath);
    }
}

TEST(SweepFabric, ChaosSpecParsing)
{
    EXPECT_FALSE(sweep::chaosSpec().enabled);
    const EnvGuard guard("SDBP_TEST_CRASH_CELL", "3:segv");
    const sweep::ChaosSpec spec = sweep::chaosSpec();
    EXPECT_TRUE(spec.enabled);
    EXPECT_EQ(spec.index, 3u);
    EXPECT_EQ(spec.mode, "segv");
}

TEST(SweepFabricDeathTest, MalformedChaosSpecIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    {
        const EnvGuard guard("SDBP_TEST_CRASH_CELL", "nonsense");
        EXPECT_EXIT(sweep::chaosSpec(), testing::ExitedWithCode(1),
                    "SDBP_TEST_CRASH_CELL");
    }
    {
        const EnvGuard guard("SDBP_TEST_CRASH_CELL", "2:explode");
        EXPECT_EXIT(sweep::chaosSpec(), testing::ExitedWithCode(1),
                    "SDBP_TEST_CRASH_CELL");
    }
}

TEST(SweepFabric, WorkersMatchSerialBitIdentical)
{
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};

    sweep::SweepOptions serial_opts;
    serial_opts.jobs = 1;
    const sweep::Grid serial =
        sweep::runGrid(benchmarks, policies, cfg, serial_opts);
    ASSERT_TRUE(serial.ok());

    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.manifestPath = manifestPath("bit_identical");
    const sweep::Grid fabric =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    ASSERT_TRUE(fabric.ok());
    EXPECT_EQ(fabric.jobs, 2u);

    // Cells are deterministic, so the merge must reproduce the
    // serial grid no matter which worker ran which cell.
    ASSERT_EQ(fabric.cells.size(), serial.cells.size());
    for (std::size_t b = 0; b < benchmarks.size(); ++b)
        for (std::size_t p = 0; p < policies.size(); ++p)
            expectSameResult(fabric.at(b, p), serial.at(b, p));

    std::remove(opts.manifestPath.c_str());
    std::remove((opts.manifestPath + ".lock").c_str());
}

struct ChaosCase
{
    const char *mode;
    bool crashed;
    int signal;
};

// Without this gtest prints the raw bytes of the struct, pointer and
// padding included, so the test's listed name would change per run.
void
PrintTo(const ChaosCase &cc, std::ostream *os)
{
    *os << cc.mode;
}

class SweepFabricChaos : public testing::TestWithParam<ChaosCase>
{
};

TEST_P(SweepFabricChaos, CrashedCellIsIsolated)
{
    const ChaosCase cc = GetParam();
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};
    const std::string path =
        manifestPath(std::string("chaos_") + cc.mode);

    {
        // Kill the worker claiming cell 2 (row-major: bench 1, LRU).
        const EnvGuard chaos("SDBP_TEST_CRASH_CELL",
                             std::string("2:") + cc.mode);
        sweep::SweepOptions opts;
        opts.workers = 2;
        opts.manifestPath = path;
        const sweep::Grid grid =
            sweep::runGrid(benchmarks, policies, cfg, opts);

        ASSERT_EQ(grid.errors.size(), 1u);
        const sweep::CellError &err = grid.errors.front();
        EXPECT_EQ(err.index, 2u);
        EXPECT_EQ(err.run, benchmarks[1]);
        EXPECT_EQ(err.policy, policyName(PolicyKind::Lru));
        EXPECT_EQ(err.crashed, cc.crashed);
        EXPECT_EQ(err.signal, cc.signal);
        EXPECT_FALSE(err.timedOut);
        EXPECT_EQ(err.attempts, 1u);
        EXPECT_EQ(err.leaseGeneration, 1u);

        // Only the chaos cell is lost; its three neighbors carry
        // real metrics despite two dead worker processes.
        EXPECT_GT(grid.at(0, 0).cycles, 0u);
        EXPECT_GT(grid.at(0, 1).cycles, 0u);
        EXPECT_EQ(grid.at(1, 0).cycles, 0u);
        EXPECT_GT(grid.at(1, 1).cycles, 0u);
    }

    // With the chaos hook cleared, a resume re-runs exactly the
    // crashed cell and completes the grid.
    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.manifestPath = path;
    opts.resume = true;
    const sweep::Grid resumed =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumed, 3u);
    EXPECT_GT(resumed.at(1, 0).cycles, 0u);

    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SweepFabricChaos,
    testing::Values(ChaosCase{"abort", true, SIGABRT},
                    ChaosCase{"segv", true, SIGSEGV},
                    ChaosCase{"exit1", true, 0}),
    [](const testing::TestParamInfo<ChaosCase> &info) {
        return info.param.mode;
    });

TEST(SweepFabric, CrashedCellRetriesOnFreshWorker)
{
    const RunConfig cfg = tinyConfig();
    const std::vector<std::string> benchmarks = {twoBenchmarks()[0]};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("crash_retry");

    // The chaos env is inherited by every replacement worker, so the
    // cell crashes on each of its 1 + retries lease generations.
    const EnvGuard chaos("SDBP_TEST_CRASH_CELL", "0:abort");
    sweep::SweepOptions opts;
    opts.workers = 1;
    opts.retries = 1;
    opts.manifestPath = path;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);

    ASSERT_EQ(grid.errors.size(), 1u);
    EXPECT_EQ(grid.errors.front().attempts, 2u);
    EXPECT_EQ(grid.errors.front().leaseGeneration, 2u);
    EXPECT_TRUE(grid.errors.front().crashed);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(SweepFabric, HangCellKilledByHardTimeout)
{
    const RunConfig cfg = tinyConfig();
    const std::vector<std::string> benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("hang");

    // A hang-mode worker heartbeats forever without progressing, so
    // neither in-band failure nor stale-lease reclamation can end
    // it: only the coordinator's hard timeout (cooperative deadline
    // plus grace) does, via SIGKILL.
    const EnvGuard chaos("SDBP_TEST_CRASH_CELL", "0:hang");
    const EnvGuard timeout("SDBP_CELL_TIMEOUT", "1");
    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.manifestPath = path;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);

    ASSERT_EQ(grid.errors.size(), 1u);
    const sweep::CellError &err = grid.errors.front();
    EXPECT_EQ(err.index, 0u);
    EXPECT_TRUE(err.crashed);
    EXPECT_TRUE(err.timedOut);
    EXPECT_EQ(err.signal, SIGKILL);
    // The sibling worker finished the healthy cell meanwhile.
    EXPECT_GT(grid.at(1, 0).cycles, 0u);
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(SweepFabric, StaleLeaseIsReclaimed)
{
    const std::string path = manifestPath("stale_lease");
    sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"}, 1000,
                           2000);

    const std::uint64_t ttl = 5000;
    const auto first = m.tryClaim(111, 1000, ttl);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(first->generation, 1u);

    // A live (fresh-heartbeat) lease is not claimable: the second
    // claimer gets the other cell, the third gets nothing.
    const auto second = m.tryClaim(222, 2000, ttl);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->index, 1u);
    EXPECT_FALSE(m.tryClaim(333, 3000, ttl).has_value());

    // Heartbeats hold the lease past its original TTL...
    m.heartbeat(0, 111, first->generation, 4000);
    EXPECT_FALSE(m.tryClaim(333, 6500, ttl).has_value());

    // ...but once the owner goes silent past the TTL, the cell is
    // re-farmed under the next generation.
    const auto reclaimed = m.tryClaim(333, 9500, ttl);
    ASSERT_TRUE(reclaimed.has_value());
    EXPECT_EQ(reclaimed->index, 0u);
    EXPECT_EQ(reclaimed->generation, 2u);

    // A completion from the evicted owner's stale (pid, generation)
    // no longer lands.
    obs::JsonValue metrics = obs::JsonValue::object();
    metrics.set("mpki", 1.0);
    m.completeClaimed(0, 111, first->generation, metrics, 1000, 9600);
    EXPECT_FALSE(m.isCompleted(0));
    m.completeClaimed(0, 333, reclaimed->generation, metrics, 9500,
                      9700);
    EXPECT_TRUE(m.isCompleted(0));
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(SweepFabricDeathTest, SchemaV1ManifestIsRejected)
{
    // Checkpoints are ephemeral: a manifest of an older schema is
    // refused rather than half-read.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = manifestPath("v1_rejected");
    const std::string v1 = R"({
  "schema": 1,
  "kind": "grid",
  "fingerprint": {
    "runs": ["a", "b"],
    "policies": ["LRU"],
    "warmup_instructions": 1000,
    "measure_instructions": 2000
  },
  "cells": [
    {"run": "a", "policy": "LRU", "status": "completed",
     "metrics": {"mpki": 3.5}},
    {"run": "b", "policy": "LRU", "status": "pending"}
  ]
})";
    ASSERT_TRUE(util::atomicWriteFile(path, v1));
    EXPECT_EXIT(
        {
            sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"},
                                   1000, 2000);
            m.loadCompleted();
        },
        testing::ExitedWithCode(1), "unsupported schema version");
    std::remove(path.c_str());
}

TEST(SweepFabric, FallsBackInProcessWithoutManifest)
{
    const RunConfig cfg = tinyConfig();
    const std::vector<std::string> benchmarks = {twoBenchmarks()[0]};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};

    // Workers need the manifest as coordination substrate; without
    // one the sweep must still complete — in-process, with a warning.
    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.jobs = 1;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(grid.ok());
    EXPECT_GT(grid.at(0, 0).cycles, 0u);
}

TEST(SweepFabric, FallsBackInProcessForArtifactGrids)
{
    RunConfig cfg = tinyConfig();
    cfg.recordLlcTrace = true; // cannot cross process boundaries
    const std::vector<std::string> benchmarks = {twoBenchmarks()[0]};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("artifact_fallback");

    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.jobs = 1;
    opts.manifestPath = path;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(grid.ok());
    EXPECT_FALSE(grid.at(0, 0).llcTrace.empty());
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

TEST(SweepFabric, MixGridRunsUnderWorkers)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;
    const auto &all = multicoreMixes();
    ASSERT_GE(all.size(), 2u);
    const std::vector<MixProfile> mixes(all.begin(), all.begin() + 2);
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("mix_workers");

    sweep::SweepOptions serial_opts;
    serial_opts.jobs = 1;
    const sweep::MixGrid serial =
        sweep::runMixGrid(mixes, policies, cfg, serial_opts);
    ASSERT_TRUE(serial.ok());

    sweep::SweepOptions opts;
    opts.workers = 2;
    opts.manifestPath = path;
    const sweep::MixGrid fabric =
        sweep::runMixGrid(mixes, policies, cfg, opts);
    ASSERT_TRUE(fabric.ok());
    for (std::size_t i = 0; i < fabric.cells.size(); ++i) {
        EXPECT_EQ(fabric.cells[i].mix, serial.cells[i].mix);
        EXPECT_EQ(fabric.cells[i].policy, serial.cells[i].policy);
        EXPECT_EQ(fabric.cells[i].benchmarks,
                  serial.cells[i].benchmarks);
        EXPECT_EQ(fabric.cells[i].ipc, serial.cells[i].ipc);
        EXPECT_EQ(fabric.cells[i].llcMisses,
                  serial.cells[i].llcMisses);
        EXPECT_EQ(fabric.cells[i].totalInstructions,
                  serial.cells[i].totalInstructions);
        EXPECT_EQ(fabric.cells[i].mpki, serial.cells[i].mpki);
    }
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
}

} // anonymous namespace
} // namespace sdbp

int
main(int argc, char **argv)
{
    // Must precede InitGoogleTest: in a worker invocation this never
    // returns, and in a normal one it unlocks worker spawning.
    sdbp::sweep::maybeWorkerMain(argc, argv);
    testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
