/**
 * @file
 * Tests for the soft-error fault injection subsystem (`src/fault`,
 * DESIGN.md §11): injector unit behavior (addressing, determinism,
 * rate convergence, freeze semantics), end-to-end determinism of
 * faulty runs across repetitions and job counts, and the safety
 * property that faults degrade prediction quality without corrupting
 * architectural state or structural invariants.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "fault/fault_injector.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "trace/spec_profiles.hh"

namespace sdbp
{
namespace
{

RunConfig
tinyConfig()
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 50000;
    cfg.measureInstructions = 200000;
    return cfg;
}

RunConfig
faultyConfig(std::uint64_t rate, std::uint64_t seed = 0x5eed)
{
    RunConfig cfg = tinyConfig();
    cfg.policy.dbrb.fault.faultsPerMillion = rate;
    cfg.policy.dbrb.fault.seed = seed;
    return cfg;
}

TEST(FaultInjector, DisabledAtRateZero)
{
    fault::FaultInjectorConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    fault::FaultInjector inj(cfg);
    inj.addTarget({"t", 4, 8, [](std::uint64_t, unsigned) {
                       FAIL() << "flip with injection disabled";
                   }});
    for (int i = 0; i < 10000; ++i)
        inj.onAccess();
    EXPECT_EQ(inj.injected(), 0u);
}

TEST(FaultInjector, FlipsStayInsideTargetBounds)
{
    fault::FaultInjectorConfig cfg;
    cfg.faultsPerMillion = 1'000'000; // one flip per access
    fault::FaultInjector inj(cfg);
    std::uint64_t small = 0;
    std::uint64_t large = 0;
    inj.addTarget({"small", 3, 2, [&](std::uint64_t w, unsigned b) {
                       EXPECT_LT(w, 3u);
                       EXPECT_LT(b, 2u);
                       ++small;
                   }});
    inj.addTarget({"large", 64, 15, [&](std::uint64_t w, unsigned b) {
                       EXPECT_LT(w, 64u);
                       EXPECT_LT(b, 15u);
                       ++large;
                   }});
    EXPECT_EQ(inj.injectedInto("small"), 0u);

    const int accesses = 20000;
    for (int i = 0; i < accesses; ++i)
        inj.onAccess();

    EXPECT_EQ(inj.totalBits(), 3u * 2u + 64u * 15u);
    EXPECT_EQ(inj.injected(), static_cast<std::uint64_t>(accesses));
    EXPECT_EQ(small + large, inj.injected());
    EXPECT_EQ(inj.injectedInto("small"), small);
    EXPECT_EQ(inj.injectedInto("large"), large);
    EXPECT_EQ(inj.injectedInto("missing"), 0u);
    // Uniform over bits: the large target owns 960 of 966 bits, so
    // it must absorb nearly every flip.
    EXPECT_GT(large, small);
}

TEST(FaultInjector, SameSeedSameFaultSequence)
{
    auto record = [](std::uint64_t seed) {
        fault::FaultInjectorConfig cfg;
        cfg.faultsPerMillion = 250'000;
        cfg.seed = seed;
        fault::FaultInjector inj(cfg);
        std::vector<std::pair<std::uint64_t, unsigned>> flips;
        inj.addTarget({"a", 16, 4, [&](std::uint64_t w, unsigned b) {
                           flips.emplace_back(w, b);
                       }});
        inj.addTarget({"b", 7, 1, [&](std::uint64_t w, unsigned b) {
                           flips.emplace_back(1000 + w, b);
                       }});
        for (int i = 0; i < 5000; ++i)
            inj.onAccess();
        return flips;
    };

    const auto first = record(42);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, record(42));
    EXPECT_NE(first, record(43));
}

TEST(FaultInjector, RateConvergesOnConfiguredValue)
{
    fault::FaultInjectorConfig cfg;
    cfg.faultsPerMillion = 100'000; // 10 %
    fault::FaultInjector inj(cfg);
    inj.addTarget({"t", 8, 8, [](std::uint64_t, unsigned) {}});
    const int accesses = 100000;
    for (int i = 0; i < accesses; ++i)
        inj.onAccess();
    const double observed =
        static_cast<double>(inj.injected()) / accesses;
    EXPECT_NEAR(observed, 0.1, 0.01);
}

TEST(FaultInjectorDeathTest, LateTargetRegistrationPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    fault::FaultInjectorConfig cfg;
    cfg.faultsPerMillion = 1;
    fault::FaultInjector inj(cfg);
    inj.addTarget({"t", 1, 1, [](std::uint64_t, unsigned) {}});
    inj.onAccess(); // freezes the bit map
    EXPECT_DEATH(
        inj.addTarget({"late", 1, 1, [](std::uint64_t, unsigned) {}}),
        "after freeze");
}

/** Policies whose predictors expose fault targets. */
const std::vector<PolicyKind> kFaultablePolicies = {
    PolicyKind::Sampler, PolicyKind::Tdbp, PolicyKind::Cdbp};

TEST(FaultDeterminism, RepeatedRunsAreBitIdentical)
{
    const RunConfig cfg = faultyConfig(10000);
    const std::string bench = memoryIntensiveSubset().front();
    for (const PolicyKind kind : kFaultablePolicies) {
        const RunResult a = runSingleCore(bench, kind, cfg);
        const RunResult b = runSingleCore(bench, kind, cfg);
        EXPECT_GT(a.faultsInjected, 0u) << policyName(kind);
        EXPECT_EQ(a.faultsInjected, b.faultsInjected);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.llcMisses, b.llcMisses);
        EXPECT_EQ(a.llcBypasses, b.llcBypasses);
        EXPECT_EQ(a.dbrb.predictions, b.dbrb.predictions);
        EXPECT_EQ(a.dbrb.positives, b.dbrb.positives);
        EXPECT_EQ(a.dbrb.deadEvictions, b.dbrb.deadEvictions);
    }
}

TEST(FaultDeterminism, IndependentOfJobCount)
{
    const RunConfig cfg = faultyConfig(10000);
    const auto &subset = memoryIntensiveSubset();
    const std::vector<std::string> benchmarks(subset.begin(),
                                              subset.begin() + 3);

    sweep::SweepOptions serial_opts;
    serial_opts.jobs = 1;
    sweep::SweepOptions parallel_opts;
    parallel_opts.jobs = 4;
    const sweep::Grid serial =
        sweep::runGrid(benchmarks, kFaultablePolicies, cfg, serial_opts);
    const sweep::Grid parallel =
        sweep::runGrid(benchmarks, kFaultablePolicies, cfg, parallel_opts);
    ASSERT_EQ(serial.cells.size(), parallel.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        const RunResult &a = serial.cells[i];
        const RunResult &b = parallel.cells[i];
        EXPECT_GT(a.faultsInjected, 0u);
        EXPECT_EQ(a.faultsInjected, b.faultsInjected);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.llcMisses, b.llcMisses);
        EXPECT_EQ(a.mpki, b.mpki);
    }
}

TEST(FaultDeterminism, SeedAndRateChangeTheSequence)
{
    const std::string bench = memoryIntensiveSubset().front();
    const RunResult base =
        runSingleCore(bench, PolicyKind::Sampler, faultyConfig(10000));
    const RunResult reseeded = runSingleCore(
        bench, PolicyKind::Sampler, faultyConfig(10000, 0x0ddba11));
    const RunResult hotter =
        runSingleCore(bench, PolicyKind::Sampler, faultyConfig(100000));
    // Different seed: same expected rate, different draw sequence.
    EXPECT_NE(base.faultsInjected, 0u);
    EXPECT_NE(reseeded.faultsInjected, 0u);
    // Higher rate: strictly more faults over the same run.
    EXPECT_GT(hotter.faultsInjected, base.faultsInjected);
}

TEST(FaultSafety, MaxRateDegradesButNeverCorrupts)
{
    // One fault per consultation — far beyond any physical soft-error
    // rate.  The run must complete, pass every invariant audit
    // (runSingleCore re-audits after the run), and retire exactly the
    // configured instruction budget: faults reach prediction quality
    // only, never architectural state.
    const RunConfig cfg = faultyConfig(1'000'000);
    const std::string bench = memoryIntensiveSubset().front();
    for (const PolicyKind kind : kFaultablePolicies) {
        const RunResult res = runSingleCore(bench, kind, cfg);
        // Cores may retire a handful of instructions past the budget
        // (superscalar overshoot), never fewer.
        EXPECT_GE(res.instructions, cfg.measureInstructions)
            << policyName(kind);
        EXPECT_LE(res.instructions, cfg.measureInstructions + 16)
            << policyName(kind);
        EXPECT_GT(res.faultsInjected, 0u) << policyName(kind);
        EXPECT_GT(res.cycles, 0u) << policyName(kind);
        EXPECT_GT(res.llcAccesses, 0u) << policyName(kind);
    }
}

TEST(FaultSafety, NonPredictorPoliciesIgnoreFaultConfig)
{
    // LRU has no predictor state: a fault config on the policy
    // options must be inert, not crash or change the run.
    const std::string bench = memoryIntensiveSubset().front();
    const RunResult clean =
        runSingleCore(bench, PolicyKind::Lru, tinyConfig());
    const RunResult faulty =
        runSingleCore(bench, PolicyKind::Lru, faultyConfig(1'000'000));
    EXPECT_EQ(faulty.faultsInjected, 0u);
    EXPECT_EQ(clean.llcMisses, faulty.llcMisses);
    EXPECT_EQ(clean.cycles, faulty.cycles);
}

TEST(FaultStats, InjectionCountersExported)
{
    RunConfig cfg = faultyConfig(100000);
    cfg.obs.collect = true;
    const std::string bench = memoryIntensiveSubset().front();
    const RunResult res =
        runSingleCore(bench, PolicyKind::Sampler, cfg);
    ASSERT_TRUE(res.artifacts);
    const auto &snap = res.artifacts->finalSnapshot;
    const auto *injected = snap.find("dbrb.faults.injected");
    ASSERT_NE(injected, nullptr);
    EXPECT_EQ(injected->counter, res.faultsInjected);
    const auto *surface = snap.find("dbrb.faults.surface_bits");
    ASSERT_NE(surface, nullptr);
    EXPECT_GT(surface->value, 0.0);
    // Per-target counters sum to the total.
    std::uint64_t per_target = 0;
    for (const auto &s : snap.samples)
        if (s.name.rfind("dbrb.faults.sampler.", 0) == 0 ||
            s.name.rfind("dbrb.faults.table.", 0) == 0)
            per_target += s.counter;
    EXPECT_EQ(per_target, res.faultsInjected);
}

} // anonymous namespace
} // namespace sdbp
