/**
 * @file
 * Unit tests for the sim layer: policy factory, run configs, and
 * metric plumbing.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/random_repl.hh"
#include "cache/rrip.hh"
#include "sim/runner.hh"

namespace sdbp
{
namespace
{

TEST(PolicyFactory, BuildsEveryKindWithCorrectGeometry)
{
    const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,         PolicyKind::Random,
        PolicyKind::Dip,         PolicyKind::Tadip,
        PolicyKind::Rrip,        PolicyKind::Sampler,
        PolicyKind::Tdbp,        PolicyKind::Cdbp,
        PolicyKind::RandomSampler, PolicyKind::RandomCdbp,
        PolicyKind::SamplingCounting,
    };
    for (const auto kind : kinds) {
        PolicyOptions opts;
        opts.numThreads = kind == PolicyKind::Tadip ? 4 : 1;
        auto policy = makePolicy(kind, 2048, 16, opts);
        ASSERT_NE(policy, nullptr) << policyName(kind);
        EXPECT_EQ(policy->numSets(), 2048u);
        EXPECT_EQ(policy->assoc(), 16u);
        EXPECT_FALSE(policyName(kind).empty());
    }
}

TEST(PolicyFactory, DbrbKindsExposePredictors)
{
    auto sampler = makePolicy(PolicyKind::Sampler, 2048, 16);
    auto *dbrb = dynamic_cast<DeadBlockPolicyBase *>(sampler.get());
    ASSERT_NE(dbrb, nullptr);
    EXPECT_EQ(dbrb->predictor().name(), "sampler");
    EXPECT_EQ(dbrb->inner().name(), "lru");

    auto rc = makePolicy(PolicyKind::RandomCdbp, 2048, 16);
    auto *dbrb2 = dynamic_cast<DeadBlockPolicyBase *>(rc.get());
    ASSERT_NE(dbrb2, nullptr);
    EXPECT_EQ(dbrb2->predictor().name(), "counting");
    EXPECT_EQ(dbrb2->inner().name(), "random");
}

TEST(PolicyFactory, SdbpOverrideIsHonored)
{
    PolicyOptions opts;
    opts.sdbp = SdbpConfig::singleTable();
    opts.sdbp->useSampler = false;
    auto policy = makePolicy(PolicyKind::Sampler, 2048, 16, opts);
    auto *dbrb = dynamic_cast<DeadBlockPolicyBase *>(policy.get());
    ASSERT_NE(dbrb, nullptr);
    const auto &pred = dynamic_cast<const SamplingDeadBlockPredictor &>(
        dbrb->predictor());
    EXPECT_FALSE(pred.config().useSampler);
    EXPECT_EQ(pred.config().table.numTables, 1u);
    // llcSets is always patched to the real geometry.
    EXPECT_EQ(pred.config().llcSets, 2048u);
}

TEST(PolicyFactory, BypassDisableFlagPropagates)
{
    PolicyOptions opts;
    opts.dbrb.enableBypass = false;
    auto policy = makePolicy(PolicyKind::Sampler, 64, 4, opts);
    auto *dbrb = dynamic_cast<DeadBlockPolicyBase *>(policy.get());
    ASSERT_NE(dbrb, nullptr);
    EXPECT_FALSE(dbrb->shouldBypass(1, Access::atBlock(1)));
}

TEST(PolicyFactory, PolicyLists)
{
    EXPECT_EQ(lruDefaultPolicies().size(), 5u);
    EXPECT_EQ(randomDefaultPolicies().size(), 3u);
    EXPECT_EQ(multicoreLruPolicies().size(), 5u);
}

TEST(RunConfigTest, SingleCoreDefaultsMatchPaperGeometry)
{
    const RunConfig cfg = RunConfig::singleCore();
    EXPECT_EQ(cfg.hierarchy.l1.sizeBytes(), 32u * 1024);
    EXPECT_EQ(cfg.hierarchy.l2.sizeBytes(), 256u * 1024);
    EXPECT_EQ(cfg.hierarchy.llc.sizeBytes(), 2u * 1024 * 1024);
    EXPECT_EQ(cfg.hierarchy.llc.assoc, 16u);
    EXPECT_EQ(cfg.core.width, 4u);
    EXPECT_EQ(cfg.core.robSize, 128u);
}

TEST(RunConfigTest, QuadCoreUsesSharedEightMegLlc)
{
    const RunConfig cfg = RunConfig::quadCore();
    EXPECT_EQ(cfg.hierarchy.numCores, 4u);
    EXPECT_EQ(cfg.hierarchy.llc.sizeBytes(), 8u * 1024 * 1024);
    EXPECT_EQ(cfg.policy.numThreads, 4u);
}

TEST(RunConfigTest, EnvironmentOverridesInstructionCounts)
{
    setenv("SDBP_INSTRUCTIONS", "123456", 1);
    setenv("SDBP_WARMUP", "7890", 1);
    const RunConfig cfg = RunConfig::singleCore();
    EXPECT_EQ(cfg.measureInstructions, 123456u);
    EXPECT_EQ(cfg.warmupInstructions, 7890u);
    unsetenv("SDBP_INSTRUCTIONS");
    unsetenv("SDBP_WARMUP");
}

TEST(RunConfigDeathTest, InvalidEnvironmentIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A malformed knob is a one-line fatal diagnostic, never a
    // silent fallback (README environment-variable table).
    setenv("SDBP_INSTRUCTIONS", "not-a-number", 1);
    EXPECT_EXIT(RunConfig::singleCore(), testing::ExitedWithCode(1),
                "not an unsigned integer");
    unsetenv("SDBP_INSTRUCTIONS");
}

TEST(Runner, ResultCarriesBenchmarkAndPolicyNames)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 50000;
    const RunResult r = runSingleCore("416.gamess", PolicyKind::Dip,
                                      cfg);
    EXPECT_EQ(r.benchmark, "416.gamess");
    EXPECT_EQ(r.policy, "DIP");
    EXPECT_GE(r.instructions, 50000u);
    EXPECT_FALSE(r.hasDbrb);
}

TEST(Runner, TraceRecordingMarksMeasureBoundary)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 50000;
    cfg.measureInstructions = 50000;
    cfg.recordLlcTrace = true;
    const RunResult r = runSingleCore("462.libquantum",
                                      PolicyKind::Lru, cfg);
    EXPECT_GT(r.llcTrace.size(), 0u);
    EXPECT_GT(r.llcTraceMeasureStart, 0u);
    EXPECT_LT(r.llcTraceMeasureStart, r.llcTrace.size());
}

TEST(Runner, MulticoreResultHasPerThreadData)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 50000;
    MixProfile mix{"t", {"416.gamess", "453.povray", "444.namd",
                         "454.calculix"}};
    const auto r = runMulticore(mix, PolicyKind::Tadip, cfg);
    EXPECT_EQ(r.policy, "TADIP");
    EXPECT_EQ(r.ipc.size(), 4u);
    EXPECT_EQ(r.benchmarks.size(), 4u);
    EXPECT_GT(r.totalInstructions, 4u * 50000u - 1);
}

} // anonymous namespace
} // namespace sdbp
