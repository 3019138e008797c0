/**
 * @file
 * Tests for the extension policies and predictors: tree-PLRU, NRU,
 * LIP, AIP, the time-based predictor and the cache-bursts reftrace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "cache/cache.hh"
#include "cache/dead_block_policy.hh"
#include "cache/lru.hh"
#include "cache/plru.hh"
#include "predictor/aip.hh"
#include "predictor/burst_trace.hh"
#include "predictor/time_based.hh"
#include "sim/runner.hh"

namespace sdbp
{
namespace
{

/** onAccess's hit way on a miss. */
constexpr int kMiss = -1;

Access
demand(Addr block_addr, PC pc = 0x400000)
{
    return Access::atBlock(block_addr, pc);
}

/** Owning backing store for a SetView. */
struct FrameSet
{
    std::vector<Addr> tags;
    std::vector<std::uint8_t> state;

    explicit FrameSet(std::uint32_t assoc)
        : tags(assoc), state(assoc, SetView::kValid)
    {
        for (std::uint32_t w = 0; w < assoc; ++w)
            tags[w] = w;
    }

    SetView
    view()
    {
        return SetView(tags.data(), state.data(),
                       static_cast<std::uint32_t>(tags.size()));
    }
};

// ---- tree-PLRU ----

TEST(TreePlru, VictimComesFromTheColdSubtree)
{
    TreePlruPolicy plru(1, 4);
    FrameSet fs(4);
    const Access info = demand(0);
    // Touch both ways of the left subtree: the root points right
    // and the victim is the untouched way 2.
    plru.onAccess(0, 0, fs.view(), info);
    plru.onAccess(0, 1, fs.view(), info);
    EXPECT_EQ(plru.victim(0, fs.view(), info), 2u);
}

TEST(TreePlru, TouchedWayIsNeverTheImmediateVictim)
{
    TreePlruPolicy plru(1, 8);
    FrameSet fs(8);
    const Access info = demand(0);
    for (std::uint32_t w = 0; w < 8; ++w) {
        plru.onAccess(0, static_cast<int>(w), fs.view(), info);
        EXPECT_NE(plru.victim(0, fs.view(), info), w);
    }
}

TEST(TreePlru, ApproximatesLruOnSequentialFills)
{
    TreePlruPolicy plru(1, 4);
    FrameSet fs(4);
    const Access info = demand(0);
    // Fill ways in order 0..3; victim should be way 0 (the oldest),
    // exactly as true LRU would pick.
    for (std::uint32_t w = 0; w < 4; ++w)
        plru.onFill(0, w, fs.view(), info);
    EXPECT_EQ(plru.victim(0, fs.view(), info), 0u);
    EXPECT_EQ(plru.bitsPerSet(), 3u);
}

// ---- NRU ----

TEST(Nru, VictimIsFirstUnreferencedWay)
{
    NruPolicy nru(1, 4);
    FrameSet fs(4);
    const Access info = demand(0);
    nru.onFill(0, 0, fs.view(), info);
    nru.onFill(0, 1, fs.view(), info);
    EXPECT_EQ(nru.victim(0, fs.view(), info), 2u);
}

TEST(Nru, ReferenceBitsClearWhenAllSet)
{
    NruPolicy nru(1, 2);
    FrameSet fs(2);
    const Access info = demand(0);
    nru.onFill(0, 0, fs.view(), info);
    EXPECT_TRUE(nru.referenced(0, 0));
    nru.onFill(0, 1, fs.view(), info); // all referenced -> clear others
    EXPECT_TRUE(nru.referenced(0, 1));
    EXPECT_FALSE(nru.referenced(0, 0));
}

TEST(Nru, HitsProtectFromEviction)
{
    NruPolicy nru(1, 4);
    FrameSet fs(4);
    const Access info = demand(0);
    for (std::uint32_t w = 0; w < 3; ++w)
        nru.onFill(0, w, fs.view(), info);
    nru.onAccess(0, 1, fs.view(), info);
    EXPECT_EQ(nru.victim(0, fs.view(), info), 3u);
}

// ---- LIP via the factory ----

TEST(Lip, InsertsAtLruPosition)
{
    auto policy = makePolicy(PolicyKind::Lip, 16, 4);
    EXPECT_EQ(policy->name(), "lip");
    FrameSet fs(4);
    policy->onFill(0, 2, fs.view(), demand(0));
    // Installed at the LRU position: immediately the next victim.
    EXPECT_EQ(policy->victim(0, fs.view(), demand(1)), 2u);
}

// ---- AIP ----

TEST(Aip, DeadOnceIntervalExceedsLearnedMax)
{
    AipConfig cfg;
    cfg.llcSets = 4;
    AipPredictor p(4, 2, cfg);
    const PC pc = 0x400100;
    const Addr blk = 0x40;
    // Two generations with re-touch interval ~2 set-accesses build
    // confidence.
    for (int gen = 0; gen < 2; ++gen) {
        p.onAccess(0, kMiss, Access::atBlock(blk, pc));
        p.onFill(0, 0, Access::atBlock(blk, pc));
        p.onAccess(0, kMiss, Access::atBlock(0x80, pc)); // interval filler
        p.onAccess(0, 0, Access::atBlock(blk, pc));  // re-touch at interval 2
        p.onEvict(0, 0, blk);
    }
    // Third generation: alive within the learned interval...
    p.onAccess(0, kMiss, Access::atBlock(blk, pc));
    p.onFill(0, 0, Access::atBlock(blk, pc));
    p.onAccess(0, kMiss, Access::atBlock(0x80, pc));
    EXPECT_FALSE(p.isDeadNow(0, 0));
    // ...dead once well past it.
    for (int i = 0; i < 8; ++i)
        p.onAccess(0, kMiss, Access::atBlock(0x80 + 64 * i, pc));
    EXPECT_TRUE(p.isDeadNow(0, 0));
    // The DBRB's type-erased path reaches the override through the
    // interface.
    EXPECT_TRUE(static_cast<const DeadBlockPredictor &>(p).isDeadNow(0, 0));
}

TEST(Aip, NoConfidenceNoPrediction)
{
    AipConfig cfg;
    cfg.llcSets = 4;
    AipPredictor p(4, 2, cfg);
    p.onAccess(0, kMiss, Access::atBlock(0x40, 0x400100));
    p.onFill(0, 0, Access::atBlock(0x40, 0x400100));
    for (int i = 0; i < 50; ++i)
        p.onAccess(0, kMiss, Access::atBlock(0x80 + 64 * i, 0x400200));
    EXPECT_FALSE(p.isDeadNow(0, 0)); // never-trained entry
}

TEST(Aip, DeadOnArrivalForSingleTouchGenerations)
{
    AipConfig cfg;
    cfg.llcSets = 4;
    AipPredictor p(4, 2, cfg);
    const PC pc = 0x400300;
    const Addr blk = 0x99;
    for (int gen = 0; gen < 2; ++gen) {
        p.onAccess(1, kMiss, Access::atBlock(blk, pc));
        p.onFill(1, 0, Access::atBlock(blk, pc));
        p.onEvict(1, 0, blk);
    }
    EXPECT_TRUE(p.onAccess(1, kMiss, Access::atBlock(blk, pc)));
}

// ---- time-based ----

TEST(TimeBased, LearnsLiveTimeAndExpiresBlocks)
{
    TimeBasedConfig cfg;
    cfg.llcSets = 4;
    TimeBasedPredictor p(4, 2, cfg);
    const PC pc = 0x400400;
    const Addr blk = 0x40;
    // One generation: live for ~4 set-accesses.
    p.onAccess(0, kMiss, Access::atBlock(blk, pc));
    p.onFill(0, 0, Access::atBlock(blk, pc));
    for (int i = 0; i < 4; ++i)
        p.onAccess(0, kMiss, Access::atBlock(0x1000 + 64 * i, 0x400500));
    p.onAccess(0, 0, Access::atBlock(blk, pc)); // last touch at +5
    p.onEvict(0, 0, blk);
    EXPECT_GT(p.learnedLiveTime(pc), 0u);

    // New generation: alive shortly after a touch, dead after more
    // than 2x the learned live time of idleness.
    p.onAccess(0, kMiss, Access::atBlock(blk, pc));
    p.onFill(0, 0, Access::atBlock(blk, pc));
    EXPECT_FALSE(p.isDeadNow(0, 0));
    for (int i = 0; i < 2 * 5 + 3; ++i)
        p.onAccess(0, kMiss, Access::atBlock(0x2000 + 64 * i, 0x400500));
    EXPECT_TRUE(p.isDeadNow(0, 0));
}

TEST(TimeBased, TicksArePerSet)
{
    TimeBasedConfig cfg;
    cfg.llcSets = 4;
    TimeBasedPredictor p(4, 2, cfg);
    const PC pc = 0x400600;
    p.onAccess(1, kMiss, Access::atBlock(0x41, pc));
    p.onFill(1, 0, Access::atBlock(0x41, pc));
    p.onAccess(1, kMiss, Access::atBlock(0x81, 0x400700));
    p.onAccess(1, 0, Access::atBlock(0x41, pc));
    p.onEvict(1, 0, 0x41);
    // Heavy traffic in ANOTHER set must not expire set-1 blocks.
    p.onAccess(1, kMiss, Access::atBlock(0x41, pc));
    p.onFill(1, 0, Access::atBlock(0x41, pc));
    for (int i = 0; i < 100; ++i)
        p.onAccess(2, kMiss, Access::atBlock(0x2000 + 64 * i, 0x400700));
    EXPECT_FALSE(p.isDeadNow(1, 0));
}

// ---- burst trace ----

TEST(BurstTrace, ConsecutiveAccessesFoldIntoOneBurst)
{
    BurstTraceConfig cfg;
    cfg.llcSets = 4;
    BurstTracePredictor p(4, 2, cfg);
    p.onAccess(0, kMiss, Access::atBlock(0x40, 0xA0));
    p.onFill(0, 0, Access::atBlock(0x40, 0xA0));
    p.onAccess(0, 0, Access::atBlock(0x40, 0xB0)); // same burst
    p.onAccess(0, 0, Access::atBlock(0x40, 0xC0)); // same burst
    EXPECT_EQ(p.filteredAccesses(), 2u);
    EXPECT_EQ(p.bursts(), 0u);
    p.onAccess(0, kMiss, Access::atBlock(0x80, 0xA0)); // different block: boundary later
    p.onFill(0, 1, Access::atBlock(0x80, 0xA0));
    p.onAccess(0, 0, Access::atBlock(0x40, 0xD0)); // burst boundary for 0x40
    EXPECT_EQ(p.bursts(), 1u);
}

TEST(BurstTrace, LearnsDeathTracesLikeReftrace)
{
    BurstTraceConfig cfg;
    cfg.llcSets = 4;
    BurstTracePredictor p(4, 2, cfg);
    for (int gen = 0; gen < 3; ++gen) {
        const Addr blk = 0x100 + gen;
        p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0));
        p.onFill(0, 0, Access::atBlock(blk, 0xA0));
        p.onEvict(0, 0, blk);
    }
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x900, 0xA0)));
}

// ---- integration: extension policies run end to end ----

TEST(Extensions, AllNewPolicyKindsSimulate)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 30000;
    cfg.measureInstructions = 60000;
    for (PolicyKind kind :
         {PolicyKind::TreePlru, PolicyKind::Nru, PolicyKind::Lip,
          PolicyKind::Aip, PolicyKind::TimeDbp, PolicyKind::BurstDbp,
          PolicyKind::SamplingCounting}) {
        const RunResult r =
            runSingleCore("445.gobmk", kind, cfg);
        EXPECT_GT(r.ipc, 0.0) << policyName(kind);
        EXPECT_LE(r.ipc, 4.0) << policyName(kind);
    }
}

TEST(Extensions, PlruAndNruTrackLruOnFriendlyWorkloads)
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 100000;
    cfg.measureInstructions = 200000;
    const auto lru = runSingleCore("444.namd", PolicyKind::Lru, cfg);
    const auto plru =
        runSingleCore("444.namd", PolicyKind::TreePlru, cfg);
    const auto nru = runSingleCore("444.namd", PolicyKind::Nru, cfg);
    // On an LLC-friendly workload the cheap approximations stay
    // within a few percent of true LRU.
    EXPECT_LT(plru.llcMisses,
              lru.llcMisses + lru.llcMisses / 5 + 100);
    EXPECT_LT(nru.llcMisses, lru.llcMisses + lru.llcMisses / 5 + 100);
}

} // anonymous namespace
} // namespace sdbp
