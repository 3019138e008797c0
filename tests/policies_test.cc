/**
 * @file
 * Unit tests for the replacement policies: LRU, random, DIP/TADIP,
 * RRIP, and the dead-block replacement/bypass wrapper.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "cache/dead_block_policy.hh"
#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/random_repl.hh"
#include "cache/rrip.hh"
#include "cpu/system.hh"
#include "sim/policy_factory.hh"
#include "trace/spec_profiles.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

#include "bypass_reuse_model.hh"

namespace sdbp
{
namespace
{

Access
demand(Addr block_addr, PC pc = 0x400000, ThreadId thread = 0)
{
    return Access::atBlock(block_addr, pc, thread);
}

/**
 * Owning backing store for a SetView, for tests that drive a policy
 * directly without a cache around it.
 */
struct FrameSet
{
    std::vector<Addr> tags;
    std::vector<std::uint8_t> state;

    explicit FrameSet(std::uint32_t assoc, bool all_valid = false)
        : tags(assoc, SetView::kNoBlock), state(assoc, 0)
    {
        if (all_valid)
            for (std::uint32_t w = 0; w < assoc; ++w) {
                tags[w] = w;
                state[w] = SetView::kValid;
            }
    }

    SetView
    view()
    {
        return SetView(tags.data(), state.data(),
                       static_cast<std::uint32_t>(tags.size()));
    }
};

// ---- LRU ----

TEST(LruPolicyTest, StackPositionsStayAPermutation)
{
    LruPolicy lru(2, 4);
    FrameSet fs(4, true);
    const Access info = demand(0);
    lru.onAccess(0, 2, fs.view(), info);
    lru.onAccess(0, 3, fs.view(), info);
    lru.onAccess(0, 2, fs.view(), info);
    std::set<std::uint32_t> positions;
    for (std::uint32_t w = 0; w < 4; ++w)
        positions.insert(lru.stackPosition(0, w));
    EXPECT_EQ(positions.size(), 4u);
    EXPECT_EQ(lru.stackPosition(0, 2), 0u);
    EXPECT_EQ(lru.stackPosition(0, 3), 1u);
}

TEST(LruPolicyTest, VictimIsLeastRecentlyUsed)
{
    LruPolicy lru(1, 4);
    FrameSet fs(4, true);
    const Access info = demand(0);
    for (int w : {0, 1, 2, 3})
        lru.onAccess(0, w, fs.view(), info);
    EXPECT_EQ(lru.victim(0, fs.view(), info), 0u);
    lru.onAccess(0, 0, fs.view(), info);
    EXPECT_EQ(lru.victim(0, fs.view(), info), 1u);
}

TEST(LruPolicyTest, MoveToLruPosition)
{
    LruPolicy lru(1, 4);
    lru.moveTo(0, 0, 3);
    EXPECT_EQ(lru.stackPosition(0, 0), 3u);
    // Others shifted up consistently.
    std::set<std::uint32_t> positions;
    for (std::uint32_t w = 0; w < 4; ++w)
        positions.insert(lru.stackPosition(0, w));
    EXPECT_EQ(positions.size(), 4u);
}

TEST(LruPolicyTest, SetsAreIndependent)
{
    LruPolicy lru(2, 2);
    FrameSet fs(2, true);
    const Access info = demand(0);
    lru.onAccess(0, 1, fs.view(), info);
    EXPECT_EQ(lru.stackPosition(1, 0), 0u);
    EXPECT_EQ(lru.stackPosition(1, 1), 1u);
}

TEST(LruPolicyTest, RejectsMoreWaysThanAByteCanName)
{
    EXPECT_EXIT(LruPolicy(1, 256), testing::ExitedWithCode(1),
                "fatal: LRU: associativity 256 exceeds");
    LruPolicy widest(1, 255);
    EXPECT_EQ(widest.wayAt(0, 254), 254u);
    EXPECT_EQ(widest.stackPosition(0, 254), 254u);
}

/**
 * Naive true LRU: one explicit list of ways per set, MRU first.
 * Shares no code with LruPolicy, so the DBRB reference below can
 * take its recency order from here instead of from the policy it
 * checks.
 */
class NaiveRecencyList
{
  public:
    NaiveRecencyList(std::uint32_t sets, std::uint32_t assoc)
        : order_(sets)
    {
        // Way w starts at stack position w.
        for (auto &list : order_)
            for (std::uint32_t w = 0; w < assoc; ++w)
                list.push_back(w);
    }

    /** Move @p way to the MRU (front) or LRU (back) end. */
    void
    moveTo(std::uint32_t set, std::uint32_t way, bool to_mru)
    {
        auto &list = order_[set];
        list.erase(std::find(list.begin(), list.end(), way));
        if (to_mru)
            list.insert(list.begin(), way);
        else
            list.push_back(way);
    }

    void
    touch(std::uint32_t set, std::uint32_t way)
    {
        moveTo(set, way, true);
    }

    std::uint32_t
    position(std::uint32_t set, std::uint32_t way) const
    {
        const auto &list = order_[set];
        return static_cast<std::uint32_t>(
            std::find(list.begin(), list.end(), way) - list.begin());
    }

    std::uint32_t
    lru(std::uint32_t set) const
    {
        return order_[set].back();
    }

  private:
    std::vector<std::vector<std::uint32_t>> order_;
};

TEST(LruPolicyTest, MatchesNaiveRecencyList)
{
    for (const std::uint32_t sets : {1u, 3u, 7u}) {
        for (const std::uint32_t assoc :
             {1u, 2u, 3u, 5u, 8u, 11u, 16u, 17u}) {
            SCOPED_TRACE(testing::Message() << sets << "x" << assoc);
            LruPolicy lru(sets, assoc);
            NaiveRecencyList model(sets, assoc);
            std::vector<FrameSet> frames(sets, FrameSet(assoc, true));
            Rng rng(sets * 100 + assoc);
            for (int step = 0; step < 3000; ++step) {
                const auto set =
                    static_cast<std::uint32_t>(rng.below(sets));
                const auto way =
                    static_cast<std::uint32_t>(rng.below(assoc));
                SetView view = frames[set].view();
                const Access a = rng.chance(1, 4)
                    ? Access::writebackOf(way, 0)
                    : demand(way);
                const std::uint64_t op = rng.below(100);
                if (op < 35) {
                    if (!view.valid(way))
                        continue;
                    lru.onAccess(set, static_cast<int>(way), view, a);
                    model.touch(set, way);
                } else if (op < 45) {
                    // A miss leaves recency alone until the fill.
                    lru.onAccess(set, -1, view, a);
                } else if (op < 70) {
                    frames[set].tags[way] = way;
                    frames[set].state[way] = SetView::kValid;
                    lru.onFill(set, way, view, a);
                    model.touch(set, way);
                } else if (op < 80) {
                    lru.moveTo(set, way, 0);
                    model.moveTo(set, way, true);
                } else if (op < 90) {
                    lru.moveTo(set, way, assoc - 1);
                    model.moveTo(set, way, false);
                } else {
                    // An invalidated frame keeps its stack position.
                    if (!view.valid(way))
                        continue;
                    lru.onEvict(set, way, view);
                    frames[set].tags[way] = SetView::kNoBlock;
                    frames[set].state[way] = 0;
                }
                ASSERT_EQ(lru.victim(set, view, a), model.lru(set))
                    << "step " << step;
                for (std::uint32_t w = 0; w < assoc; ++w)
                    ASSERT_EQ(lru.stackPosition(set, w),
                              model.position(set, w))
                        << "step " << step << " way " << w;
            }
        }
    }
}

// ---- Random ----

TEST(RandomPolicyTest, VictimsCoverAllWaysDeterministically)
{
    RandomPolicy a(1, 4, 42), b(1, 4, 42);
    FrameSet fs(4, true);
    const Access info = demand(0);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t va = a.victim(0, fs.view(), info);
        EXPECT_EQ(va, b.victim(0, fs.view(), info));
        EXPECT_LT(va, 4u);
        seen.insert(va);
    }
    EXPECT_EQ(seen.size(), 4u);
}

// ---- DIP ----

TEST(DipPolicyTest, LeaderSetsAreDisjointAndCounted)
{
    DipPolicy dip(2048, 16);
    unsigned lru_leaders = 0, bip_leaders = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        const bool l = dip.isLruLeader(s, 0);
        const bool b = dip.isBipLeader(s, 0);
        EXPECT_FALSE(l && b);
        lru_leaders += l;
        bip_leaders += b;
    }
    EXPECT_EQ(lru_leaders, 32u);
    EXPECT_EQ(bip_leaders, 32u);
}

TEST(DipPolicyTest, MissesInLeadersMovePsel)
{
    DipPolicy dip(2048, 16);
    FrameSet fs(16, true);
    const std::uint32_t initial = dip.psel(0);
    // Find an LRU leader set and miss in it repeatedly.
    std::uint32_t lru_leader = 0;
    while (!dip.isLruLeader(lru_leader, 0))
        ++lru_leader;
    for (int i = 0; i < 10; ++i)
        dip.onAccess(lru_leader, -1, fs.view(), demand(0));
    EXPECT_EQ(dip.psel(0), initial + 10);

    std::uint32_t bip_leader = 0;
    while (!dip.isBipLeader(bip_leader, 0))
        ++bip_leader;
    for (int i = 0; i < 20; ++i)
        dip.onAccess(bip_leader, -1, fs.view(), demand(0));
    EXPECT_EQ(dip.psel(0), initial - 10);
}

TEST(DipPolicyTest, WritebackMissesDoNotTrainPsel)
{
    DipPolicy dip(2048, 16);
    FrameSet fs(16, true);
    const std::uint32_t initial = dip.psel(0);
    Access wb = demand(0);
    wb.isWriteback = true;
    std::uint32_t lru_leader = 0;
    while (!dip.isLruLeader(lru_leader, 0))
        ++lru_leader;
    dip.onAccess(lru_leader, -1, fs.view(), wb);
    EXPECT_EQ(dip.psel(0), initial);
}

TEST(DipPolicyTest, BipLeaderInsertsAtLruMostly)
{
    DipPolicy dip(2048, 16);
    FrameSet fs(16, true);
    std::uint32_t bip_leader = 0;
    while (!dip.isBipLeader(bip_leader, 0))
        ++bip_leader;
    unsigned lru_inserts = 0;
    for (int i = 0; i < 320; ++i) {
        dip.onFill(bip_leader, 3, fs.view(), demand(0));
        lru_inserts += dip.lru().stackPosition(bip_leader, 3) == 15;
    }
    // All but ~1/32 of fills land at the LRU position.
    EXPECT_GT(lru_inserts, 280u);
    EXPECT_LT(lru_inserts, 320u); // epsilon occasionally promotes
}

TEST(DipPolicyTest, LruLeaderInsertsAtMru)
{
    DipPolicy dip(2048, 16);
    FrameSet fs(16, true);
    std::uint32_t lru_leader = 0;
    while (!dip.isLruLeader(lru_leader, 0))
        ++lru_leader;
    dip.onFill(lru_leader, 5, fs.view(), demand(0));
    EXPECT_EQ(dip.lru().stackPosition(lru_leader, 5), 0u);
}

TEST(DipPolicyTest, TadipKeepsPerThreadPsel)
{
    DipConfig cfg;
    cfg.numThreads = 4;
    DipPolicy dip(2048, 16, cfg);
    FrameSet fs(16, true);
    std::uint32_t t2_leader = 0;
    while (!dip.isLruLeader(t2_leader, 2))
        ++t2_leader;
    const std::uint32_t initial = dip.psel(2);
    dip.onAccess(t2_leader, -1, fs.view(), demand(0, 0x400000, 2));
    EXPECT_EQ(dip.psel(2), initial + 1);
    EXPECT_EQ(dip.psel(0), initial); // other threads untouched
    // Thread 0 accessing thread 2's leader set is a follower there.
    dip.onAccess(t2_leader, -1, fs.view(), demand(0, 0x400000, 0));
    EXPECT_EQ(dip.psel(0), initial);
    EXPECT_EQ(dip.name(), "tadip");
}

TEST(DipPolicyTest, ThreadLeaderSetsAreDistinct)
{
    DipConfig cfg;
    cfg.numThreads = 4;
    DipPolicy dip(2048, 16, cfg);
    for (std::uint32_t s = 0; s < 2048; ++s)
        for (ThreadId a = 0; a < 4; ++a)
            for (ThreadId b = a + 1; b < 4; ++b) {
                EXPECT_FALSE(dip.isLruLeader(s, a) &&
                             dip.isLruLeader(s, b));
                EXPECT_FALSE(dip.isBipLeader(s, a) &&
                             dip.isBipLeader(s, b));
            }
}

// ---- RRIP ----

TEST(RripPolicyTest, SrripInsertsLongAndPromotesOnHit)
{
    RripConfig cfg;
    cfg.mode = RripMode::SRrip;
    RripPolicy rrip(16, 4, cfg);
    FrameSet fs(4, true);
    rrip.onFill(0, 0, fs.view(), demand(0));
    EXPECT_EQ(rrip.rrpv(0, 0), 2u); // rrpvMax - 1
    rrip.onAccess(0, 0, fs.view(), demand(0));
    EXPECT_EQ(rrip.rrpv(0, 0), 0u);
}

TEST(RripPolicyTest, VictimIsDistantBlockAndAgesSet)
{
    RripConfig cfg;
    cfg.mode = RripMode::SRrip;
    RripPolicy rrip(1, 4, cfg);
    FrameSet fs(4, true);
    for (std::uint32_t w = 0; w < 4; ++w)
        rrip.onFill(0, w, fs.view(), demand(w));
    // All RRPVs are 2: victim search must age everyone to 3 and
    // return way 0.
    EXPECT_EQ(rrip.victim(0, fs.view(), demand(9)), 0u);
    for (std::uint32_t w = 1; w < 4; ++w)
        EXPECT_EQ(rrip.rrpv(0, w), 3u);
}

TEST(RripPolicyTest, HitProtectsFromEviction)
{
    RripConfig cfg;
    cfg.mode = RripMode::SRrip;
    RripPolicy rrip(1, 2, cfg);
    FrameSet fs(2, true);
    rrip.onFill(0, 0, fs.view(), demand(0));
    rrip.onFill(0, 1, fs.view(), demand(1));
    rrip.onAccess(0, 0, fs.view(), demand(0));
    EXPECT_EQ(rrip.victim(0, fs.view(), demand(2)), 1u);
}

TEST(RripPolicyTest, BrripMostlyInsertsDistant)
{
    RripConfig cfg;
    cfg.mode = RripMode::BRrip;
    RripPolicy rrip(16, 4, cfg);
    FrameSet fs(4, true);
    unsigned distant = 0;
    for (int i = 0; i < 320; ++i) {
        rrip.onFill(0, 0, fs.view(), demand(0));
        distant += rrip.rrpv(0, 0) == 3;
    }
    EXPECT_GT(distant, 280u);
    EXPECT_LT(distant, 320u);
}

TEST(RripPolicyTest, DrripDuelsViaPsel)
{
    RripPolicy rrip(2048, 16); // DRRIP default
    FrameSet fs(16, true);
    std::uint32_t srrip_leader = 0;
    while (!rrip.isSrripLeader(srrip_leader, 0))
        ++srrip_leader;
    const bool before = rrip.followerUsesBrrip(0);
    for (int i = 0; i < 600; ++i)
        rrip.onAccess(srrip_leader, -1, fs.view(), demand(0));
    EXPECT_TRUE(rrip.followerUsesBrrip(0));
    (void)before;
    EXPECT_EQ(rrip.name(), "drrip");
}

// ---- Dead-block wrapper ----

/** DBRB over LRU (recency grace) with a virtual predictor. */
using LruDbrb = BasicDeadBlockPolicy<LruPolicy, DeadBlockPredictor>;

/** Scripted predictor: predicts "dead" iff the PC is in a set. */
class ScriptedPredictor : public DeadBlockPredictor
{
  public:
    std::set<PC> deadPcs;
    std::uint64_t evicts = 0;
    std::uint64_t fills = 0;

    bool
    onAccess(std::uint32_t, int, const Access &a) override
    {
        return deadPcs.count(a.pc) > 0;
    }
    void
    onFill(std::uint32_t, std::uint32_t, const Access &) override
    {
        ++fills;
    }
    void
    onEvict(std::uint32_t, std::uint32_t, Addr) override
    {
        ++evicts;
    }
    std::string name() const override { return "scripted"; }
    std::uint64_t storageBits() const override { return 0; }
    std::uint64_t metadataBitsPerBlock() const override { return 1; }
};

std::unique_ptr<Cache>
makeDbrbCache(ScriptedPredictor *&predictor_out,
              const DeadBlockPolicyConfig &cfg = {},
              std::uint32_t assoc = 2)
{
    auto predictor = std::make_unique<ScriptedPredictor>();
    predictor_out = predictor.get();
    auto policy = std::make_unique<LruDbrb>(
        std::make_unique<LruPolicy>(4, assoc), std::move(predictor), cfg);
    CacheConfig ccfg;
    ccfg.numSets = 4;
    ccfg.assoc = assoc;
    return std::make_unique<Cache>(ccfg, std::move(policy));
}

const DeadBlockPolicyBase &
dbrbOf(const Cache &cache)
{
    return dynamic_cast<const DeadBlockPolicyBase &>(cache.policy());
}

TEST(DeadBlockPolicyTest, DeadOnArrivalBypasses)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    pred->deadPcs.insert(0x400000);
    cache->access(demand(0x10, 0x400000), 0);
    cache->fill(demand(0x10, 0x400000), 0);
    EXPECT_FALSE(cache->probe(0x10));
    EXPECT_EQ(cache->stats().bypasses, 1u);
    const auto &policy = dbrbOf(*cache);
    EXPECT_EQ(policy.dbrbStats().bypasses, 1u);
    EXPECT_EQ(policy.dbrbStats().positives, 1u);
}

TEST(DeadBlockPolicyTest, LiveBlocksFillNormally)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    cache->access(demand(0x10), 0);
    cache->fill(demand(0x10), 0);
    EXPECT_TRUE(cache->probe(0x10));
    EXPECT_EQ(pred->fills, 1u);
}

TEST(DeadBlockPolicyTest, PredictedDeadBlockEvictedBeforeLru)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred, {}, 4);
    // Fill all four ways of set 0 with live blocks.
    for (Addr a : {0x00, 0x04, 0x08, 0x0c}) {
        cache->access(demand(a, 0x400000), 0);
        cache->fill(demand(a, 0x400000), 0);
    }
    // Re-touch 0x04 with a PC now predicted dead (marks it dead and
    // MRU), then age it into the cold half of the stack.
    pred->deadPcs.insert(0x400abc);
    cache->access(demand(0x04, 0x400abc), 1);
    pred->deadPcs.clear();
    cache->access(demand(0x08, 0x400000), 2);
    cache->access(demand(0x0c, 0x400000), 3);
    // New block: victim must be the predicted-dead block 0x04 (now
    // past the recency grace), not the true-LRU block 0x00.
    cache->access(demand(0x10, 0x400000), 4);
    cache->fill(demand(0x10, 0x400000), 4);
    EXPECT_FALSE(cache->probe(0x04));
    EXPECT_TRUE(cache->probe(0x00));
    const auto &policy = dbrbOf(*cache);
    EXPECT_EQ(policy.dbrbStats().deadEvictions, 1u);
    EXPECT_EQ(policy.dbrbStats().falsePositiveHits, 0u);
}

TEST(DeadBlockPolicyTest, FreshDeadMarksGetARecencyGrace)
{
    // A dead-marked block still in the warm half of the stack is
    // not preferred over the default victim.
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred, {}, 4);
    for (Addr a : {0x00, 0x04, 0x08, 0x0c}) {
        cache->access(demand(a, 0x400000), 0);
        cache->fill(demand(a, 0x400000), 0);
    }
    pred->deadPcs.insert(0x400abc);
    cache->access(demand(0x0c, 0x400abc), 1); // dead + MRU
    pred->deadPcs.clear();
    cache->access(demand(0x10, 0x400000), 2);
    cache->fill(demand(0x10, 0x400000), 2);
    // The fresh dead mark survived; the true LRU (0x00) went.
    EXPECT_TRUE(cache->probe(0x0c));
    EXPECT_FALSE(cache->probe(0x00));
}

/** ScriptedPredictor that also reports scripted frames as dead now
 *  (the interval/time-based predictors' isDeadNow). */
class DeadNowPredictor : public ScriptedPredictor
{
  public:
    std::set<std::pair<std::uint32_t, std::uint32_t>> deadNow;

    bool
    isDeadNow(std::uint32_t set, std::uint32_t way) const override
    {
        return deadNow.count({set, way}) > 0;
    }
};

/**
 * Reference dead victim computed from a per-way eviction rank
 * (larger = closer to eviction): the highest-ranked valid dead way,
 * first on ties, accepted if its rank reaches a grace of assoc/2
 * when the set's highest rank reaches assoc/2, else a grace of 0.
 * -1 = no dead victim.
 */
int
rankedDeadVictim(const std::vector<std::uint32_t> &rank, SetView frames,
                 const DeadNowPredictor &pred, std::uint32_t set)
{
    const std::uint32_t assoc = frames.assoc();
    std::uint32_t max_rank = 0;
    int best = -1;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        max_rank = std::max(max_rank, rank[w]);
        const bool dead =
            frames.predictedDead(w) || pred.isDeadNow(set, w);
        if (frames.valid(w) && dead &&
            (best < 0 || rank[w] > rank[static_cast<std::uint32_t>(best)]))
            best = static_cast<int>(w);
    }
    const std::uint32_t grace = max_rank >= assoc / 2 ? assoc / 2 : 0;
    if (best >= 0 && rank[static_cast<std::uint32_t>(best)] >= grace)
        return best;
    return -1;
}

/**
 * Drive a DBRB over @p Inner directly with random hits, misses,
 * fills, invalidations, dead marks and isDeadNow scripts, and check
 * every victim and the deadEvictions count against rankedDeadVictim
 * over independent ranks (LRU: the position in a NaiveRecencyList
 * driven alongside; random: all 0).
 * A twin of the inner policy supplies the expected fallback victim.
 * Returns how many dead candidates the grace turned away.
 */
template <class Inner>
std::uint64_t
checkVictimsAgainstRanking(std::uint32_t sets, std::uint32_t assoc,
                           std::uint64_t seed)
{
    constexpr PC kLive = 0x400000;
    constexpr PC kDead = 0x400abc;
    const auto make_inner = [&] {
        if constexpr (std::is_same_v<Inner, RandomPolicy>)
            return std::make_unique<Inner>(sets, assoc, seed);
        else
            return std::make_unique<Inner>(sets, assoc);
    };
    auto pred_owner = std::make_unique<DeadNowPredictor>();
    pred_owner->deadPcs.insert(kDead);
    BasicDeadBlockPolicy<Inner, DeadNowPredictor> policy(
        make_inner(), std::move(pred_owner));
    DeadNowPredictor &pred = policy.typedPredictor();
    auto twin = make_inner();
    NaiveRecencyList recency(sets, assoc);
    std::vector<FrameSet> frames(sets, FrameSet(assoc));

    Rng rng(seed);
    Addr next_tag = 0;
    std::uint64_t dead_evictions = 0;
    std::uint64_t graced = 0;
    for (int step = 0; step < 4000; ++step) {
        const auto set = static_cast<std::uint32_t>(rng.below(sets));
        const auto way = static_cast<std::uint32_t>(rng.below(assoc));
        SetView view = frames[set].view();
        const Access a = demand(next_tag, rng.below(3) ? kLive : kDead);
        const std::uint64_t op = rng.below(100);
        if (op < 30) {
            if (!view.valid(way))
                continue;
            policy.onAccess(set, static_cast<int>(way), view, a);
            twin->onAccess(set, static_cast<int>(way), view, a);
            recency.touch(set, way);
        } else if (op < 40) {
            view.setPredictedDead(way, !view.predictedDead(way));
        } else if (op < 50) {
            if (!pred.deadNow.erase({set, way}))
                pred.deadNow.insert({set, way});
        } else if (op < 55) {
            if (!view.valid(way))
                continue;
            policy.onEvict(set, way, view);
            twin->onEvict(set, way, view);
            frames[set].tags[way] = SetView::kNoBlock;
            frames[set].state[way] = 0;
        } else {
            policy.onAccess(set, -1, view, a);
            twin->onAccess(set, -1, view, a);
            std::vector<std::uint32_t> rank(assoc, 0);
            if constexpr (std::is_same_v<Inner, LruPolicy>)
                for (std::uint32_t w = 0; w < assoc; ++w)
                    rank[w] = recency.position(set, w);
            const int dead = rankedDeadVictim(rank, view, pred, set);
            bool dead_candidate = false;
            for (std::uint32_t w = 0; w < assoc; ++w)
                dead_candidate |= view.valid(w) &&
                    (view.predictedDead(w) || pred.isDeadNow(set, w));
            graced += dead < 0 && dead_candidate;
            const std::uint32_t expected =
                dead >= 0 ? static_cast<std::uint32_t>(dead)
                          : twin->victim(set, view, a);
            dead_evictions += dead >= 0;
            const std::uint32_t v = policy.victim(set, view, a);
            EXPECT_EQ(v, expected) << "step " << step << " set " << set;
            EXPECT_EQ(policy.dbrbStats().deadEvictions, dead_evictions)
                << "step " << step;
            if (v != expected)
                return graced;
            if (view.valid(v)) {
                policy.onEvict(set, v, view);
                twin->onEvict(set, v, view);
            }
            frames[set].tags[v] = next_tag++;
            frames[set].state[v] = SetView::kValid;
            policy.onFill(set, v, view, a);
            twin->onFill(set, v, view, a);
            recency.touch(set, v);
        }
    }
    EXPECT_GT(dead_evictions, 0u);
    return graced;
}

TEST(DeadBlockPolicyTest, VictimMatchesRankedReference)
{
    for (const std::uint32_t sets : {3u, 5u, 7u}) {
        for (const std::uint32_t assoc : {1u, 2u, 3u, 5u, 11u, 16u, 17u}) {
            SCOPED_TRACE(testing::Message() << sets << "x" << assoc);
            const std::uint64_t seed = sets * 1000 + assoc;
            const std::uint64_t lru_graced =
                checkVictimsAgainstRanking<LruPolicy>(sets, assoc, seed);
            // A grace of assoc/2 turns candidates away once assoc > 1.
            if (assoc > 1)
                EXPECT_GT(lru_graced, 0u);
            else
                EXPECT_EQ(lru_graced, 0u);
            EXPECT_EQ(
                checkVictimsAgainstRanking<RandomPolicy>(sets, assoc, seed),
                0u);
        }
    }
}

TEST(DeadBlockPolicyTest, HitOnDeadBlockCountsFalsePositive)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    cache->access(demand(0x00, 0x400000), 0);
    cache->fill(demand(0x00, 0x400000), 0);
    pred->deadPcs.insert(0x400abc);
    cache->access(demand(0x00, 0x400abc), 1); // marks dead
    pred->deadPcs.clear();
    cache->access(demand(0x00, 0x400000), 2); // hit on "dead" block
    const auto &policy = dbrbOf(*cache);
    EXPECT_EQ(policy.dbrbStats().falsePositiveHits, 1u);
}

TEST(DeadBlockPolicyTest, BypassReuseCountsFalsePositive)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    pred->deadPcs.insert(0x400000);
    cache->access(demand(0x10, 0x400000), 0);
    cache->fill(demand(0x10, 0x400000), 0); // bypassed
    pred->deadPcs.clear();
    cache->access(demand(0x10, 0x400000), 1); // re-miss soon after
    const auto &policy = dbrbOf(*cache);
    EXPECT_EQ(policy.dbrbStats().bypassReuses, 1u);
}

/**
 * Drives a scripted-predictor DBRB cache one consultation at a time
 * for the bypass-reuse window tests.  Block 0x00 is resident and
 * live, so a hit on it is a consultation that touches no other
 * block.
 */
struct BypassScript
{
    static constexpr PC kLive = 0x400000;
    static constexpr PC kDead = 0x400abc;

    ScriptedPredictor *pred = nullptr;
    std::unique_ptr<Cache> cache;
    std::uint64_t now = 0;

    explicit BypassScript(std::uint64_t window)
    {
        DeadBlockPolicyConfig cfg;
        cfg.bypassReuseWindow = window;
        cache = makeDbrbCache(pred, cfg);
        pred->deadPcs.insert(kDead);
        cache->access(demand(0x00, kLive), now);
        cache->fill(demand(0x00, kLive), now);
    }

    std::uint64_t
    reuses() const
    {
        return dbrbOf(*cache).dbrbStats().bypassReuses;
    }

    void
    hits(std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_TRUE(cache->access(demand(0x00, kLive), ++now));
    }

    /** A demand miss predicted dead on arrival, then its fill. */
    void
    bypass(Addr block)
    {
        ASSERT_FALSE(cache->access(demand(block, kDead), ++now));
        cache->fill(demand(block, kDead), now);
        ASSERT_FALSE(cache->probe(block));
    }

    /** A fill with no consultation of its own (the prefetcher's). */
    void
    unconsultedFill(Addr block)
    {
        cache->fill(demand(block, kLive), now);
    }

    /** A demand miss predicted live, left unfilled. */
    void
    remiss(Addr block)
    {
        ASSERT_FALSE(cache->access(demand(block, kLive), ++now));
    }
};

TEST(DeadBlockPolicyTest, BypassReuseWindowEdges)
{
    // 0 selects the default window, numSets * assoc = 8.
    for (const std::uint64_t cfg_window : {1u, 2u, 3u, 0u}) {
        SCOPED_TRACE(cfg_window);
        const std::uint64_t w = cfg_window ? cfg_window : 8;
        BypassScript s(cfg_window);
        // A re-miss exactly W consultations after the bypass counts.
        s.bypass(0x10);
        s.hits(w - 1);
        s.remiss(0x10);
        EXPECT_EQ(s.reuses(), 1u);
        // A second re-miss on the same bypass does not.
        s.remiss(0x10);
        EXPECT_EQ(s.reuses(), 1u);
        // One at W + 1 consultations does not count either.
        s.bypass(0x14);
        s.hits(w);
        s.remiss(0x14);
        EXPECT_EQ(s.reuses(), 1u);
        s.remiss(0x14);
        EXPECT_EQ(s.reuses(), 1u);
    }
}

TEST(DeadBlockPolicyTest, ReBypassRefreshesTheReuseTick)
{
    const std::uint64_t w = 3;
    BypassScript s(w);
    // A demand re-bypass first consumes the expired record (its miss
    // does not count), then re-arms it at the new consultation.
    s.bypass(0x10);
    s.hits(w);
    s.bypass(0x10);
    EXPECT_EQ(s.reuses(), 0u);
    s.hits(w - 1);
    s.remiss(0x10);
    EXPECT_EQ(s.reuses(), 1u);

    // A fill with no consultation (the prefetcher's pattern) reuses
    // the last demand prediction; its bypass refreshes the record
    // without a miss in between.
    s.bypass(0x18);
    s.hits(w);
    s.bypass(0x1c); // predicted dead: the next fill bypasses too
    s.unconsultedFill(0x18);
    EXPECT_FALSE(s.cache->probe(0x18));
    s.hits(w - 1);
    s.remiss(0x18); // W after the refresh, W + 4 after the first
    EXPECT_EQ(s.reuses(), 2u);
}

TEST(DeadBlockPolicyTest, BypassReusesMatchReferenceModel)
{
    // Random demand misses, hits, unconsulted fills and writebacks
    // through a DBRB cache; the count must equal the reference
    // model's after every operation.
    struct Geometry
    {
        std::uint32_t sets;
        std::uint32_t assoc;
    };
    constexpr PC kLive = 0x400000;
    constexpr PC kDead = 0x400abc;
    for (const Geometry g : {Geometry{1, 3}, Geometry{2, 5},
                             Geometry{8, 7}, Geometry{4, 11}}) {
        for (const std::uint64_t window :
             {std::uint64_t(1), std::uint64_t(2), std::uint64_t(7),
              std::uint64_t(0), std::uint64_t(1) << 40}) {
            SCOPED_TRACE(testing::Message()
                         << g.sets << "x" << g.assoc << " window "
                         << window);
            DeadBlockPolicyConfig cfg;
            cfg.bypassReuseWindow = window;
            auto predictor = std::make_unique<ScriptedPredictor>();
            predictor->deadPcs.insert(kDead);
            auto checked = std::make_unique<ModelCheckedPolicy>(
                std::make_unique<LruDbrb>(
                    std::make_unique<LruPolicy>(g.sets, g.assoc),
                    std::move(predictor), cfg));
            const ModelCheckedPolicy &policy = *checked;
            CacheConfig ccfg;
            ccfg.numSets = g.sets;
            ccfg.assoc = g.assoc;
            Cache cache(ccfg, std::move(checked));

            Rng rng(g.sets * 131 + g.assoc + window);
            for (std::uint64_t now = 1; now <= 20000; ++now) {
                // Half the references go to a small hot range, so
                // re-misses land both inside and outside the window.
                const Addr block = rng.below(2) ? rng.below(16)
                                                : 16 + rng.below(4096);
                const std::uint64_t op = rng.below(100);
                if (op < 70) {
                    const Access a =
                        demand(block, rng.below(2) ? kDead : kLive);
                    if (!cache.access(a, now) && rng.below(10) != 0)
                        cache.fill(a, now);
                } else if (op < 85) {
                    if (!cache.probe(block))
                        cache.fill(demand(block, kLive), now);
                } else {
                    const Access wb = Access::writebackOf(block, 0);
                    if (!cache.access(wb, now))
                        cache.fill(wb, now);
                }
                ASSERT_EQ(policy.dbrb().dbrbStats().bypassReuses,
                          policy.model().reuses())
                    << "after operation " << now;
            }
            EXPECT_GT(policy.model().reuses(), 0u);
            EXPECT_GT(policy.dbrb().dbrbStats().bypasses, 0u);
            if (window != (std::uint64_t(1) << 40)) {
                EXPECT_GT(policy.model().expired(), 0u);
            }
        }
    }
}

TEST(DeadBlockPolicyTest, HugeBypassReuseWindowCellMatchesReferenceModel)
{
    // bypassReuseWindow is a public config field: a window far past
    // any run's length must still finish and count exactly.
    PolicyOptions opts;
    opts.dbrb.bypassReuseWindow = std::uint64_t(1) << 40;
    HierarchyConfig cfg;
    auto checked = std::make_unique<ModelCheckedPolicy>(makePolicy(
        PolicyKind::Sampler, cfg.llc.numSets, cfg.llc.assoc, opts));
    const ModelCheckedPolicy &policy = *checked;
    System sys(cfg, CoreConfig{}, std::move(checked));
    SyntheticWorkload w(specProfile("429.mcf"));
    std::vector<AccessGenerator *> gens = {&w};
    sys.run(gens, 50000, 200000);
    const DbrbStats &s = policy.dbrb().dbrbStats();
    EXPECT_GT(s.bypasses, 0u);
    EXPECT_GT(s.bypassReuses, 0u);
    EXPECT_EQ(s.bypassReuses, policy.model().reuses());
    EXPECT_EQ(policy.model().expired(), 0u);
}

TEST(DeadBlockPolicyTest, DefaultWindowTableIsSizedOnceAtFirstBypass)
{
    // Construction allocates no bypass-reuse storage.  Under the
    // default window the first bypass sizes the table for the whole
    // run: it never grows past twice the window.
    HierarchyConfig cfg;
    auto policy =
        makePolicy(PolicyKind::Sampler, cfg.llc.numSets, cfg.llc.assoc);
    const auto &dbrb = dynamic_cast<const DeadBlockPolicyBase &>(*policy);
    EXPECT_EQ(dbrb.bypassTableSlots(), 0u);
    System sys(cfg, CoreConfig{}, std::move(policy));
    SyntheticWorkload w(specProfile("429.mcf"));
    std::vector<AccessGenerator *> gens = {&w};
    sys.run(gens, 50000, 200000);
    EXPECT_GT(dbrb.dbrbStats().bypasses, 0u);
    EXPECT_EQ(dbrb.bypassTableSlots(),
              2u * cfg.llc.numSets * cfg.llc.assoc);
}

TEST(DeadBlockPolicyTest, BypassDisabledStillMarksBlocks)
{
    ScriptedPredictor *pred = nullptr;
    DeadBlockPolicyConfig cfg;
    cfg.enableBypass = false;
    auto cache = makeDbrbCache(pred, cfg);
    pred->deadPcs.insert(0x400000);
    cache->access(demand(0x10, 0x400000), 0);
    cache->fill(demand(0x10, 0x400000), 0);
    EXPECT_TRUE(cache->probe(0x10)); // installed despite prediction
    EXPECT_EQ(cache->stats().bypasses, 0u);
}

TEST(DeadBlockPolicyTest, WritebacksSkipThePredictor)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    pred->deadPcs.insert(0); // writebacks carry pc 0
    const Access wb = Access::writebackOf(0x20, 0);
    cache->access(wb, 0);
    cache->fill(wb, 0);
    EXPECT_TRUE(cache->probe(0x20)); // not bypassed
    const auto &policy = dbrbOf(*cache);
    EXPECT_EQ(policy.dbrbStats().predictions, 0u);
    EXPECT_EQ(pred->fills, 0u);
}

TEST(DeadBlockPolicyTest, EvictNotifiesPredictor)
{
    ScriptedPredictor *pred = nullptr;
    auto cache = makeDbrbCache(pred);
    for (Addr a : {0x00, 0x04, 0x08}) { // 3 blocks into 2-way set 0
        cache->access(demand(a), a);
        cache->fill(demand(a), a);
    }
    EXPECT_EQ(pred->evicts, 1u);
}

TEST(DeadBlockPolicyTest, CoverageAndFalsePositiveMath)
{
    DbrbStats s;
    s.predictions = 200;
    s.positives = 118;
    s.falsePositiveHits = 5;
    s.bypassReuses = 1;
    EXPECT_NEAR(s.coverage(), 0.59, 1e-12);
    EXPECT_NEAR(s.falsePositiveRate(), 0.03, 1e-12);
}

} // anonymous namespace
} // namespace sdbp
