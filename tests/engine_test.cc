/**
 * @file
 * Engine composition tests (DESIGN.md §12): which System each
 * PolicyKind is hosted on, and the typed views into its policy stack.
 * Simulated outcomes are pinned separately, by the golden corpus
 * (tests/golden_test.cc).
 *
 * The file also audits the structure-of-arrays cache layout: the tag
 * sentinel must agree with the valid bit in every frame, the hot
 * lanes seen through SetView must agree with the materialized
 * CacheBlock snapshots, and auditInvariants() must hold after a
 * randomized workload (it panics under SDBP_DCHECK on violation).
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/random_repl.hh"
#include "cache/rrip.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"
#include "sim/engine.hh"
#include "util/rng.hh"

namespace sdbp
{
namespace
{

// ---- Engine composition ----

template <class P>
bool
runsOn(const Engine &eng)
{
    return dynamic_cast<const BasicSystem<P> *>(eng.system.get()) !=
        nullptr;
}

using SamplerOver = BasicDeadBlockPolicy<LruPolicy,
                                         SamplingDeadBlockPredictor>;
using RandomSamplerOver =
    BasicDeadBlockPolicy<RandomPolicy, SamplingDeadBlockPredictor>;
using TdbpOver = BasicDeadBlockPolicy<LruPolicy, RefTracePredictor>;
using CdbpOver = BasicDeadBlockPolicy<LruPolicy, CountingPredictor>;

/** The sealed kinds and the BasicSystem each must compose. */
const std::vector<std::pair<PolicyKind, bool (*)(const Engine &)>> &
sealedKinds()
{
    static const std::vector<
        std::pair<PolicyKind, bool (*)(const Engine &)>>
        kinds = {
            {PolicyKind::Lru, runsOn<LruPolicy>},
            {PolicyKind::Random, runsOn<RandomPolicy>},
            {PolicyKind::Dip, runsOn<DipPolicy>},
            {PolicyKind::Tadip, runsOn<DipPolicy>},
            {PolicyKind::Lip, runsOn<DipPolicy>},
            {PolicyKind::Rrip, runsOn<RripPolicy>},
            {PolicyKind::Sampler, runsOn<SamplerOver>},
            {PolicyKind::RandomSampler, runsOn<RandomSamplerOver>},
        };
    return kinds;
}

bool
isSealed(PolicyKind kind)
{
    for (const auto &entry : sealedKinds())
        if (entry.first == kind)
            return true;
    return false;
}

TEST(EngineTest, SealedKindsTakeTheFastPath)
{
    HierarchyConfig hcfg;
    for (const auto &[kind, composed] : sealedKinds()) {
        const Engine eng = makeEngine(kind, hcfg, CoreConfig{});
        EXPECT_TRUE(composed(eng)) << policyName(kind);
        EXPECT_FALSE(runsOn<ReplacementPolicy>(eng)) << policyName(kind);
    }
}

TEST(EngineTest, UnsealedKindsFallBackToTheVirtualStack)
{
    HierarchyConfig hcfg;
    std::size_t unsealed = 0;
    for (const PolicyKind kind : allPolicyKinds()) {
        if (isSealed(kind))
            continue;
        ++unsealed;
        const Engine eng = makeEngine(kind, hcfg, CoreConfig{});
        EXPECT_TRUE(runsOn<ReplacementPolicy>(eng)) << policyName(kind);
    }
    EXPECT_EQ(unsealed, 9u);

    // TDBP and CDBP (Figs. 4/5) stay on the type-erased System, with
    // their DBRB wrapper typed over the final predictor classes.
    const Engine tdbp =
        makeEngine(PolicyKind::Tdbp, hcfg, CoreConfig{});
    EXPECT_TRUE(runsOn<ReplacementPolicy>(tdbp));
    EXPECT_NE(dynamic_cast<TdbpOver *>(tdbp.dbrb), nullptr);
    const Engine cdbp =
        makeEngine(PolicyKind::Cdbp, hcfg, CoreConfig{});
    EXPECT_TRUE(runsOn<ReplacementPolicy>(cdbp));
    EXPECT_NE(dynamic_cast<CdbpOver *>(cdbp.dbrb), nullptr);

    const Engine plru =
        makeEngine(PolicyKind::TreePlru, hcfg, CoreConfig{});
    EXPECT_EQ(plru.dbrb, nullptr);
    EXPECT_EQ(plru.predictor, nullptr);
}

TEST(EngineTest, DbrbViewsPointIntoTheSealedStack)
{
    HierarchyConfig hcfg;
    const Engine eng = makeEngine(PolicyKind::Sampler, hcfg,
                                  CoreConfig{});
    ASSERT_TRUE(runsOn<SamplerOver>(eng));
    auto &llc = dynamic_cast<BasicSystem<SamplerOver> &>(*eng.system)
                    .hierarchy()
                    .llc();
    EXPECT_EQ(eng.dbrb, &llc.policy());
    EXPECT_EQ(eng.predictor, &eng.dbrb->predictor());
}

// ---- SoA layout invariants ----

TEST(SoaLayoutTest, TagSentinelAgreesWithValidBit)
{
    CacheConfig cfg;
    cfg.numSets = 16;
    cfg.assoc = 4;
    Cache cache(cfg, std::make_unique<LruPolicy>(16, 4));

    Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        const Access a = Access::atBlock(rng.below(256), 0x400000);
        if (!cache.access(a, static_cast<std::uint64_t>(i)))
            cache.fill(a, static_cast<std::uint64_t>(i));
        if (rng.chance(1, 50))
            cache.invalidate(rng.below(256));
    }

    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        SetView frames = cache.frames(set);
        for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
            if (frames.valid(w))
                EXPECT_NE(frames.blockAddr(w), SetView::kNoBlock);
            else
                EXPECT_EQ(frames.blockAddr(w), SetView::kNoBlock);
        }
    }
    cache.auditInvariants();
}

TEST(SoaLayoutTest, SetViewAgreesWithMaterializedBlocks)
{
    CacheConfig cfg;
    cfg.numSets = 8;
    cfg.assoc = 4;
    Cache cache(cfg, std::make_unique<LruPolicy>(8, 4));

    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        Access a = Access::atBlock(rng.below(96), 0x400000);
        a.isWrite = rng.chance(1, 4);
        if (!cache.access(a, static_cast<std::uint64_t>(i)))
            cache.fill(a, static_cast<std::uint64_t>(i));
    }

    for (std::uint32_t set = 0; set < cfg.numSets; ++set) {
        SetView frames = cache.frames(set);
        for (std::uint32_t w = 0; w < cfg.assoc; ++w) {
            const CacheBlock blk = cache.blockAt(set, w);
            EXPECT_EQ(frames.valid(w), blk.valid);
            if (!blk.valid)
                continue;
            EXPECT_EQ(frames.blockAddr(w), blk.blockAddr);
            EXPECT_EQ(frames.dirty(w), blk.dirty);
            EXPECT_EQ(frames.predictedDead(w), blk.predictedDead);
            EXPECT_EQ(cache.findWay(set, blk.blockAddr),
                      static_cast<int>(w));
            EXPECT_TRUE(cache.probe(blk.blockAddr));
        }
    }
    cache.auditInvariants();
}

TEST(SoaLayoutTest, PredictedDeadBitRoundTripsThroughTheLane)
{
    CacheConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    Cache cache(cfg, std::make_unique<LruPolicy>(4, 2));

    const Access a = Access::atBlock(0x10);
    cache.access(a, 0);
    cache.fill(a, 0);
    const std::uint32_t set = cache.setIndex(a.blockAddr());
    SetView frames = cache.frames(set);
    const int way = cache.findWay(set, a.blockAddr());
    ASSERT_GE(way, 0);

    frames.setPredictedDead(static_cast<std::uint32_t>(way), true);
    EXPECT_TRUE(cache.blockAt(set, static_cast<std::uint32_t>(way))
                    .predictedDead);
    frames.setPredictedDead(static_cast<std::uint32_t>(way), false);
    EXPECT_FALSE(cache.blockAt(set, static_cast<std::uint32_t>(way))
                     .predictedDead);
    cache.auditInvariants();
}

} // anonymous namespace
} // namespace sdbp
