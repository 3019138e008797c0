/**
 * @file
 * Unit tests for the baseline dead block predictors: reftrace and
 * counting (LvP), plus the hook contract between the DBRB wrapper, a
 * cache and a predictor's per-block metadata.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "cache/dead_block_policy.hh"
#include "cache/lru.hh"
#include "predictor/aip.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"
#include "predictor/sampling_counting.hh"
#include "util/logging.hh"

namespace sdbp
{
namespace
{

/** A small LLC geometry for the predictors' frame lanes. */
constexpr std::uint32_t kSets = 8;
constexpr std::uint32_t kWays = 4;
/** onAccess's hit way on a miss. */
constexpr int kMiss = -1;

// ---- reftrace ----

TEST(RefTrace, ColdPredictorPredictsLive)
{
    RefTracePredictor p(kSets, kWays);
    EXPECT_FALSE(p.onAccess(0, kMiss, Access::atBlock(0x10, 0x400000, 0)));
}

TEST(RefTrace, LearnsDeathTraceAfterRepeatedGenerations)
{
    RefTracePredictor p(kSets, kWays);
    // Block filled by PC A, touched by PC B, then evicted; repeat.
    // After two generations the A+B signature saturates to "dead".
    for (int gen = 0; gen < 3; ++gen) {
        const Addr blk = 0x100 + gen; // distinct blocks, same trace
        p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0, 0));
        p.onFill(0, 0, Access::atBlock(blk, 0xA0));
        p.onAccess(0, 0, Access::atBlock(blk, 0xB0, 0));
        p.onEvict(0, 0, blk);
    }
    // A fresh block following the same trace is predicted dead at
    // the same point.
    const Addr blk = 0x900;
    p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0, 0));
    p.onFill(0, 0, Access::atBlock(blk, 0xA0));
    EXPECT_TRUE(p.onAccess(0, 0, Access::atBlock(blk, 0xB0, 0)));
}

TEST(RefTrace, ReaccessTrainsAgainstPrematureSignature)
{
    RefTracePredictor p(kSets, kWays);
    // Train signature(A) as a death trace...
    for (int gen = 0; gen < 3; ++gen) {
        const Addr blk = 0x100 + gen;
        p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0, 0));
        p.onFill(0, 0, Access::atBlock(blk, 0xA0));
        p.onEvict(0, 0, blk);
    }
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x900, 0xA0, 0))); // dead on arrival
    // ...then observe blocks that survive past it: the dead-on-
    // arrival prediction must eventually flip.
    for (int gen = 0; gen < 4; ++gen) {
        const Addr blk = 0x200 + gen;
        p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0, 0));
        p.onFill(0, 0, Access::atBlock(blk, 0xA0));
        p.onAccess(0, 0, Access::atBlock(blk, 0xB0, 0)); // re-access decrements sig(A)
        p.onEvict(0, 0, blk);
    }
    EXPECT_FALSE(p.onAccess(0, kMiss, Access::atBlock(0x901, 0xA0, 0)));
}

TEST(RefTrace, SignatureAccumulatesPerBlock)
{
    RefTracePredictor p(kSets, kWays);
    p.onAccess(0, kMiss, Access::atBlock(0x10, 0xA0, 0));
    p.onFill(0, 0, Access::atBlock(0x10, 0xA0));
    const std::uint64_t s1 = p.signatureOf(0, 0);
    p.onAccess(0, 0, Access::atBlock(0x10, 0xB0, 0));
    const std::uint64_t s2 = p.signatureOf(0, 0);
    EXPECT_NE(s1, s2);
    // A different block touched by the same PCs gets the same trace.
    p.onAccess(0, kMiss, Access::atBlock(0x20, 0xA0, 0));
    p.onFill(0, 1, Access::atBlock(0x20, 0xA0));
    p.onAccess(0, 1, Access::atBlock(0x20, 0xB0, 0));
    EXPECT_EQ(p.signatureOf(0, 1), s2);
}

TEST(RefTrace, EvictionOfUnknownBlockIsIgnored)
{
    RefTracePredictor p(kSets, kWays);
    EXPECT_NO_FATAL_FAILURE(p.onEvict(0, 0, 0x999));
}

TEST(RefTrace, StorageMatchesTableI)
{
    RefTracePredictor p(kSets, kWays);
    // 2^15 two-bit counters = 8 KB of predictor state.
    EXPECT_EQ(p.storageBits(), (1ull << 15) * 2);
    // 15-bit signature + 1 prediction bit per block = 16 bits.
    EXPECT_EQ(p.metadataBitsPerBlock(), 16u);
}

// ---- counting (LvP) ----

TEST(Counting, ColdPredictorPredictsLive)
{
    CountingPredictor p(kSets, kWays);
    EXPECT_FALSE(p.onAccess(0, kMiss, Access::atBlock(0x10, 0x400000, 0)));
}

TEST(Counting, PredictsDeadAtLearnedAccessCount)
{
    CountingPredictor p(kSets, kWays);
    const PC fill_pc = 0x400100;
    // Two generations of exactly 3 accesses (fill + 2 hits) set the
    // count with confidence.
    for (int gen = 0; gen < 2; ++gen) {
        const Addr blk = 0x40;
        p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
        p.onFill(0, 0, Access::atBlock(blk, fill_pc));
        p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0));
        p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0));
        p.onEvict(0, 0, blk);
    }
    // Third generation: live until the 3rd access, dead at it.
    const Addr blk = 0x40;
    p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
    p.onFill(0, 0, Access::atBlock(blk, fill_pc));
    EXPECT_FALSE(p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0)));
    EXPECT_TRUE(p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0)));
}

TEST(Counting, ConfidenceDropsWhenCountsDisagree)
{
    CountingPredictor p(kSets, kWays);
    const PC fill_pc = 0x400100;
    const Addr blk = 0x40;
    // Generation of 2 accesses, then generation of 4: no confidence.
    p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
    p.onFill(0, 0, Access::atBlock(blk, fill_pc));
    p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0));
    p.onEvict(0, 0, blk);
    p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
    p.onFill(0, 0, Access::atBlock(blk, fill_pc));
    for (int i = 0; i < 3; ++i)
        p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0));
    p.onEvict(0, 0, blk);
    // New generation: even at matching counts, no confident "dead".
    p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
    p.onFill(0, 0, Access::atBlock(blk, fill_pc));
    for (int i = 0; i < 6; ++i)
        EXPECT_FALSE(p.onAccess(0, 0, Access::atBlock(blk, fill_pc, 0)));
}

TEST(Counting, DeadOnArrivalForSingleAccessGenerations)
{
    CountingPredictor p(kSets, kWays);
    const PC fill_pc = 0x400200;
    const Addr blk = 0x80;
    for (int gen = 0; gen < 2; ++gen) {
        p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0));
        p.onFill(0, 0, Access::atBlock(blk, fill_pc));
        p.onEvict(0, 0, blk);
    }
    // Never-reused blocks are predicted dead on arrival (bypass).
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(blk, fill_pc, 0)));
}

TEST(Counting, DistinctBlocksUseDistinctEntries)
{
    CountingPredictor p(kSets, kWays);
    const PC fill_pc = 0x400300;
    // Train block A for single-access generations.
    for (int gen = 0; gen < 2; ++gen) {
        p.onAccess(0, kMiss, Access::atBlock(0x1000, fill_pc, 0));
        p.onFill(0, 0, Access::atBlock(0x1000, fill_pc));
        p.onEvict(0, 0, 0x1000);
    }
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x1000, fill_pc, 0)));
    // Block B (different address hash) is still cold.
    EXPECT_FALSE(p.onAccess(0, kMiss, Access::atBlock(0x2000, fill_pc, 0)));
}

TEST(Counting, StorageMatchesTableI)
{
    CountingPredictor p(kSets, kWays);
    // 2^16 entries x (4-bit counter + 1 confidence bit) = 40 KB.
    EXPECT_EQ(p.storageBits(), (1ull << 16) * 5);
    // 8-bit PC + 4 + 4 counters + confidence = 17 bits per block.
    EXPECT_EQ(p.metadataBitsPerBlock(), 17u);
}

TEST(Counting, EvictionOfUnknownBlockIsIgnored)
{
    CountingPredictor p(kSets, kWays);
    EXPECT_NO_FATAL_FAILURE(p.onEvict(0, 0, 0x999));
}

TEST(RefTrace, BypassedFillsNeverRetrain)
{
    // The structural weakness the paper exploits: once a fill
    // signature is predicted dead and its blocks bypass the cache,
    // no per-block metadata exists, so nothing can ever decrement
    // the counter again — the bypass decision is self-sustaining.
    RefTracePredictor p(kSets, kWays);
    // Two thrashing generations lock sig(A) at the threshold.
    for (int gen = 0; gen < 2; ++gen) {
        const Addr blk = 0x100 + gen;
        p.onAccess(0, kMiss, Access::atBlock(blk, 0xA0, 0));
        p.onFill(0, 0, Access::atBlock(blk, 0xA0));
        p.onEvict(0, 0, blk);
    }
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x900, 0xA0, 0)));
    // From now on the DBRB policy would bypass: simulate many
    // accesses with NO fill/evict (bypassed blocks get no metadata).
    for (Addr a = 0; a < 100; ++a)
        EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x1000 + a, 0xA0, 0)));
    // Still predicted dead: no recovery path exists.
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0x2000, 0xA0, 0)));
}

// ---- sampling counting (paper Sec. VIII future work) ----

SamplingCountingConfig
tinySamplingCounting()
{
    SamplingCountingConfig cfg;
    cfg.llcSets = 64;
    cfg.samplerSets = 1;
    cfg.samplerAssoc = 4;
    return cfg;
}

TEST(SamplingCounting, ColdPredictorPredictsLive)
{
    SamplingCountingPredictor p(64, kWays, tinySamplingCounting());
    EXPECT_FALSE(p.onAccess(0, kMiss, Access::atBlock(0x10, 0x400000, 0)));
}

TEST(SamplingCounting, OnlySampledSetsTrain)
{
    SamplingCountingPredictor p(64, kWays, tinySamplingCounting());
    EXPECT_TRUE(p.isSampledSet(0));
    EXPECT_FALSE(p.isSampledSet(1));
    EXPECT_FALSE(p.isSampledSet(63));
}

TEST(SamplingCounting, LearnsSingleAccessGenerationsFromSampler)
{
    SamplingCountingPredictor p(64, kWays, tinySamplingCounting());
    const PC pc = 0x400500;
    // Stream distinct blocks through sampled set 0: each tag is
    // touched once and evicted from the tiny sampler with count 1.
    // Three consistent generations build the 2-of-3 confidence.
    for (Addr a = 0; a < 64; ++a)
        p.onAccess(0, kMiss, Access::atBlock(a << 6, pc, 0));
    // Dead-on-arrival: a fresh block of this PC is predicted dead.
    EXPECT_TRUE(p.onAccess(0, kMiss, Access::atBlock(0xffff << 6, pc, 0)));
}

TEST(SamplingCounting, PredictsDeadAtLearnedCount)
{
    SamplingCountingPredictor p(64, kWays, tinySamplingCounting());
    const PC pc = 0x400600;
    // Sampler sees generations of exactly 2 touches.
    for (int round = 0; round < 24; ++round) {
        // Two-touch visits to rotating tags in the sampled set;
        // with 4 sampler ways and 8 live tags, entries are evicted
        // between rounds, closing each generation at count 2.
        for (Addr t = 0; t < 8; ++t) {
            const Addr blk = (0x100 + round * 8 + t) << 6;
            p.onAccess(0, kMiss, Access::atBlock(blk, pc, 0));
            p.onAccess(0, kMiss, Access::atBlock(blk, pc, 0));
        }
    }
    // LLC side: a resident block of this PC becomes dead at its 2nd
    // access.
    const Addr blk = 0x555000;
    p.onAccess(5, kMiss, Access::atBlock(blk, pc, 0)); // miss query
    p.onFill(5, 0, Access::atBlock(blk, pc));
    EXPECT_TRUE(p.onAccess(5, 0, Access::atBlock(blk, pc, 0)));
}

TEST(SamplingCounting, CacheEvictionsDoNotTrain)
{
    SamplingCountingPredictor p(64, kWays, tinySamplingCounting());
    const PC pc = 0x400700;
    // Evictions in unsampled sets never touch the table.
    for (Addr a = 0; a < 100; ++a) {
        p.onAccess(3, kMiss, Access::atBlock(a, pc, 0));
        p.onFill(3, 0, Access::atBlock(a, pc));
        p.onEvict(3, 0, a);
    }
    EXPECT_FALSE(p.onAccess(3, kMiss, Access::atBlock(0x999, pc, 0)));
}

TEST(SamplingCounting, StorageIsSmall)
{
    SamplingCountingPredictor p(2048, 16); // default geometry
    // Table 4096 x 6 bits + sampler state: well under reftrace's
    // 72 KB total.
    EXPECT_LT(p.storageBits() / 8, 8 * 1024u);
    EXPECT_LT(p.metadataBitsPerBlock(), 17u + 1);
}

// ---- hook contract: cache -> DBRB wrapper -> per-block metadata ----

#if SDBP_DCHECK_ENABLED
TEST(HookContractDeathTest, LlcSetsMustMatchTheGeometry)
{
    SamplingCountingConfig cfg;
    cfg.llcSets = 64;
    EXPECT_DEATH(SamplingCountingPredictor(128, 4, cfg), "llcSets");
}
#endif // SDBP_DCHECK_ENABLED

/** A 4-set, 2-way LLC whose DBRB wraps LRU and @p Pred. */
template <class Pred>
class TinyDbrbCache
{
  public:
    using Policy = BasicDeadBlockPolicy<LruPolicy, Pred>;

    explicit TinyDbrbCache(std::unique_ptr<Pred> pred)
        : cache_({.numSets = 4, .assoc = 2},
                 std::make_unique<Policy>(
                     std::make_unique<LruPolicy>(4, 2), std::move(pred)))
    {
    }

    /** Demand access; fills on a miss (unless bypassed). */
    void
    demand(Addr blk, PC pc)
    {
        const Access a = Access::atBlock(blk, pc);
        if (!cache_.access(a, ++now_))
            cache_.fill(a, now_);
    }

    /** Writeback of a non-resident block: the cache allocates it. */
    void
    writebackInstall(Addr blk)
    {
        const Access wb = Access::writebackOf(blk, 0);
        ASSERT_FALSE(cache_.access(wb, ++now_));
        cache_.fill(wb, now_);
        ASSERT_TRUE(cache_.probe(blk));
    }

    /** The predicted-dead bit of resident block @p blk. */
    bool
    markedDead(Addr blk) const
    {
        const std::uint32_t set = cache_.setIndex(blk);
        const int way = cache_.findWay(set, blk);
        EXPECT_GE(way, 0) << "block " << blk << " not resident";
        return way >= 0 &&
            cache_.blockAt(set, static_cast<std::uint32_t>(way))
                .predictedDead;
    }

    BasicCache<Policy> &cache() { return cache_; }
    const DbrbStats &stats() { return cache_.typedPolicy().dbrbStats(); }

  private:
    BasicCache<Policy> cache_;
    std::uint64_t now_ = 0;
};

TEST(HookContract, WritebackFillCarriesNoCountingMetadata)
{
    TinyDbrbCache<CountingPredictor> c(
        std::make_unique<CountingPredictor>(4, 2));
    const PC pc = 0x400100;
    const Addr blk = 0x10;
    // Two generations of fill + one hit, each ended by invalidate():
    // <pc, blk> learns a confident live time of two accesses.
    for (int gen = 0; gen < 2; ++gen) {
        c.demand(blk, pc);
        c.demand(blk, pc);
        c.cache().invalidate(blk);
    }
    // Control: a demand-filled frame carries the captured threshold,
    // so its first hit is the learned last touch.
    c.demand(blk, pc);
    c.demand(blk, pc);
    EXPECT_TRUE(c.markedDead(blk));
    c.cache().invalidate(blk);

    // A writeback allocates the block without telling the predictor.
    // The next demand hit finds no metadata and takes the
    // dead-on-arrival branch (confident && count <= 1: live here).
    const std::uint64_t positives = c.stats().positives;
    c.writebackInstall(blk);
    c.demand(blk, pc);
    EXPECT_EQ(c.cache().stats().demandHits, 4u); // that was a hit
    EXPECT_FALSE(c.markedDead(blk));
    EXPECT_EQ(c.stats().positives, positives);
}

TEST(HookContract, WritebackFillCarriesNoAipMetadata)
{
    AipConfig cfg;
    cfg.llcSets = 4;
    TinyDbrbCache<AipPredictor> c(std::make_unique<AipPredictor>(4, 2, cfg));
    const PC pc = 0x400300;
    const Addr blk = 0x10;
    // Two generations of fill + one hit at interval 1: <pc, blk>
    // learns a confident nonzero maximum interval.
    for (int gen = 0; gen < 2; ++gen) {
        c.demand(blk, pc);
        c.demand(blk, pc);
        c.cache().invalidate(blk);
    }
    // Control: a hit on a demand-filled frame is live by definition.
    c.demand(blk, pc);
    c.demand(blk, pc);
    EXPECT_FALSE(c.markedDead(blk));
    c.cache().invalidate(blk);
    // Retrain <pc, blk> to confident single-touch generations.
    for (int gen = 0; gen < 2; ++gen) {
        c.demand(blk, pc);
        c.cache().invalidate(blk);
    }
    // ...which the next demand miss would bypass.  A writeback
    // allocation instead installs the block with no metadata, so the
    // demand hit on it takes the dead-on-arrival branch and marks the
    // frame dead.
    c.writebackInstall(blk);
    c.demand(blk, pc);
    EXPECT_TRUE(c.markedDead(blk));
}

TEST(HookContract, InvalidateEndsACountingGeneration)
{
    TinyDbrbCache<CountingPredictor> c(
        std::make_unique<CountingPredictor>(4, 2));
    const PC pc = 0x400500;
    const Addr blk = 0x20;
    // Generations of three accesses, each ended only by invalidate().
    for (int gen = 0; gen < 2; ++gen) {
        for (int i = 0; i < 3; ++i)
            c.demand(blk, pc);
        c.cache().invalidate(blk);
        EXPECT_FALSE(c.cache().probe(blk));
    }
    // invalidate() trained the table twice with the same count, and
    // the re-fill restarted the per-block count at one: live on the
    // first hit, dead at the learned third access.
    c.demand(blk, pc);
    c.demand(blk, pc);
    EXPECT_FALSE(c.markedDead(blk));
    c.demand(blk, pc);
    EXPECT_TRUE(c.markedDead(blk));
}

TEST(HookContract, InvalidateEndsAnAipGeneration)
{
    AipConfig cfg;
    cfg.llcSets = 4;
    TinyDbrbCache<AipPredictor> c(std::make_unique<AipPredictor>(4, 2, cfg));
    const PC pc = 0x400700;
    const Addr blk = 0x30;
    // A single-touch generation ended by invalidate() trains
    // <pc, blk> as confidently dead on arrival (a maximum interval of
    // zero, matching the cold entry)...
    c.demand(blk, pc);
    EXPECT_TRUE(c.cache().probe(blk));
    c.cache().invalidate(blk);
    EXPECT_EQ(c.stats().bypasses, 0u);
    // ...so the next generation's fill is bypassed.
    c.demand(blk, pc);
    EXPECT_FALSE(c.cache().probe(blk));
    EXPECT_EQ(c.stats().bypasses, 1u);
}

} // anonymous namespace
} // namespace sdbp
