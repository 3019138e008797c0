/**
 * @file
 * Property-based tests: invariants that must hold across swept
 * parameters (associativities, thresholds, seeds, latencies).
 */

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru.hh"
#include "core/sdbp.hh"
#include "cpu/core_model.hh"
#include "opt/belady.hh"
#include "sim/runner.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

namespace sdbp
{
namespace
{

std::vector<Addr>
mixedTrace(std::uint64_t seed, std::size_t n)
{
    Rng rng(seed);
    std::vector<Addr> trace;
    Addr scan = 50000;
    for (std::size_t i = 0; i < n; ++i) {
        switch (rng.below(3)) {
          case 0:
            trace.push_back(rng.below(64)); // hot set
            break;
          case 1:
            trace.push_back(64 + rng.below(512)); // warm region
            break;
          default:
            trace.push_back(scan++); // cold stream
            break;
        }
    }
    return trace;
}

std::uint64_t
lruMisses(const std::vector<Addr> &trace, std::uint32_t sets,
          std::uint32_t assoc)
{
    CacheConfig cfg;
    cfg.numSets = sets;
    cfg.assoc = assoc;
    Cache cache(cfg, std::make_unique<LruPolicy>(sets, assoc));
    std::uint64_t misses = 0;
    for (Addr a : trace) {
        const Access acc = Access::atBlock(a);
        if (!cache.access(acc, 0)) {
            ++misses;
            cache.fill(acc, 0);
        }
    }
    return misses;
}

/**
 * LRU inclusion property: for the same number of sets, a cache with
 * larger associativity never misses more (the LRU stack of the
 * small cache is a prefix of the large one's).
 */
class LruInclusionTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LruInclusionTest, LargerAssocNeverMissesMore)
{
    const auto trace = mixedTrace(GetParam(), 4000);
    std::uint64_t prev = ~0ull;
    for (std::uint32_t assoc : {1, 2, 4, 8, 16}) {
        const std::uint64_t m = lruMisses(trace, 16, assoc);
        EXPECT_LE(m, prev) << "assoc " << assoc;
        prev = m;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruInclusionTest,
                         ::testing::Values(11, 22, 33, 44, 55));

/**
 * Set isolation: interleaving traffic of disjoint sets cannot change
 * per-set miss counts under any set-indexed policy.
 */
TEST(CacheProperties, SetsAreIsolatedUnderLru)
{
    Rng rng(5);
    std::vector<Addr> even, odd, inter;
    for (int i = 0; i < 2000; ++i) {
        even.push_back(rng.below(128) * 2);     // even sets only
        odd.push_back(rng.below(128) * 2 + 1);  // odd sets only
        inter.push_back(even.back());
        inter.push_back(odd.back());
    }
    EXPECT_EQ(lruMisses(inter, 8, 4),
              lruMisses(even, 8, 4) + lruMisses(odd, 8, 4));
}

/** MIN + bypass misses never exceed plain MIN. */
class MinBypassTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MinBypassTest, BypassNeverHurtsOptimal)
{
    const auto addrs = mixedTrace(GetParam(), 5000);
    std::vector<LlcRef> trace;
    for (Addr a : addrs)
        trace.push_back({a, 0, 0, false});
    const auto with = optimalMisses(trace, 16, 4, true);
    const auto without = optimalMisses(trace, 16, 4, false);
    EXPECT_LE(with.misses, without.misses);
    // And MIN lower-bounds LRU of the same geometry.
    EXPECT_LE(without.misses, lruMisses(addrs, 16, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinBypassTest,
                         ::testing::Values(3, 7, 13, 19));

/**
 * SDBP threshold monotonicity: raising the confidence threshold can
 * only reduce the fraction of positive (dead) predictions.
 */
TEST(SdbpProperties, CoverageFallsWithThreshold)
{
    double prev_coverage = 1.1;
    for (unsigned threshold : {2u, 5u, 8u}) {
        SdbpConfig cfg = SdbpConfig::paperDefault(64);
        cfg.table.threshold = threshold;
        cfg.sampler.numSets = 4;
        // Plain-LRU sampler keeps the training sequence identical
        // across thresholds, so coverage is strictly comparable.
        cfg.sampler.learnFromOwnEvictions = false;
        SamplingDeadBlockPredictor p(cfg.llcSets, 16, cfg);
        SyntheticWorkload w(specProfile("456.hmmer"));
        std::uint64_t positives = 0, total = 0;
        for (int i = 0; i < 40000; ++i) {
            const Access a = w.next();
            const auto set = static_cast<std::uint32_t>(
                a.blockAddr() & 63);
            positives += p.onAccess(set, -1, a);
            ++total;
        }
        const double coverage =
            static_cast<double>(positives) / static_cast<double>(total);
        EXPECT_LE(coverage, prev_coverage + 1e-12)
            << "threshold " << threshold;
        prev_coverage = coverage;
    }
}

/**
 * Sampler generalization: behaviour learned in the sampled sets
 * predicts accesses in unsampled sets, because the prediction is a
 * pure function of the PC.
 */
TEST(SdbpProperties, PredictionsGeneralizeAcrossSets)
{
    SdbpConfig cfg = SdbpConfig::paperDefault(2048);
    SamplingDeadBlockPredictor p(cfg.llcSets, 16, cfg);
    const PC dead_pc = 0x400abc;
    // Train only via sampled sets.
    for (Addr a = 0; a < 4096; ++a)
        p.onAccess(static_cast<std::uint32_t>((a * 64) & 2047), -1,
                   Access::atBlock((a << 11) | ((a * 64) & 2047),
                                   dead_pc));
    // Consult on never-sampled sets: prediction must carry over.
    unsigned dead = 0;
    for (std::uint32_t set = 1; set < 64; set += 2)
        dead += p.onAccess(set, -1, Access::atBlock(0xabc000 + set,
                                                dead_pc));
    EXPECT_EQ(dead, 32u);
}

/** Core model: memory latency is monotone in cycle cost. */
class CoreLatencyTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreLatencyTest, MoreLatencyNeverFewerCycles)
{
    const unsigned n = GetParam();
    Cycle prev = 0;
    for (Cycle lat : {3u, 15u, 45u, 245u}) {
        CoreModel core;
        Rng rng(n);
        for (unsigned i = 0; i < 2000; ++i) {
            core.executeNonMem(static_cast<unsigned>(rng.below(4)));
            core.executeMem(lat, true, rng.chance(1, 4));
        }
        EXPECT_GE(core.cycles(), prev);
        prev = core.cycles();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoreLatencyTest,
                         ::testing::Values(1u, 2u, 3u));

/** Workload memory intensity tracks the configured gap. */
TEST(WorkloadProperties, MemoryIntensityMatchesGap)
{
    for (unsigned gap : {0u, 2u, 8u}) {
        WorkloadProfile p;
        p.name = "t";
        p.meanGap = gap;
        StreamConfig s;
        s.regionBlocks = 256;
        p.streams = {s};
        SyntheticWorkload w(p);
        std::uint64_t instructions = 0, accesses = 0;
        for (int i = 0; i < 20000; ++i) {
            const Access r = w.next();
            instructions += r.gap + 1;
            ++accesses;
        }
        const double intensity = static_cast<double>(accesses) /
            static_cast<double>(instructions);
        EXPECT_NEAR(intensity, 1.0 / (1.0 + gap), 0.02);
    }
}

/**
 * Deterministic replays: the same (benchmark, policy, config) gives
 * bit-identical metrics across process-local repetitions, for every
 * policy kind.
 */
class DeterminismTest
    : public ::testing::TestWithParam<PolicyKind>
{
};

TEST_P(DeterminismTest, RunsAreReproducible)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 50000;
    cfg.measureInstructions = 100000;
    const RunResult a =
        runSingleCore("434.zeusmp", GetParam(), cfg);
    const RunResult b =
        runSingleCore("434.zeusmp", GetParam(), cfg);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.llcBypasses, b.llcBypasses);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DeterminismTest,
    ::testing::Values(PolicyKind::Lru, PolicyKind::Random,
                      PolicyKind::Dip, PolicyKind::Rrip,
                      PolicyKind::Sampler, PolicyKind::Tdbp,
                      PolicyKind::Cdbp, PolicyKind::RandomSampler));

} // anonymous namespace
} // namespace sdbp
