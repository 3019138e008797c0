/**
 * @file
 * Tests for dead-block-directed prefetching.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/dead_block_policy.hh"
#include "cache/hierarchy.hh"
#include "cache/lru.hh"
#include "cache/prefetcher.hh"
#include "core/sdbp.hh"
#include "sim/policy_factory.hh"
#include "trace/spec_profiles.hh"
#include "cpu/system.hh"

#include "bypass_reuse_model.hh"

namespace sdbp
{
namespace
{

Access
demand(Addr block_addr, PC pc = 0x400000)
{
    return Access::atBlock(block_addr, pc);
}

std::unique_ptr<Cache>
lruCache(std::uint32_t sets, std::uint32_t assoc)
{
    CacheConfig cfg;
    cfg.numSets = sets;
    cfg.assoc = assoc;
    return std::make_unique<Cache>(
        cfg, std::make_unique<LruPolicy>(sets, assoc));
}

TEST(Prefetcher, DisabledByDefault)
{
    Prefetcher p;
    EXPECT_FALSE(p.enabled());
}

TEST(Prefetcher, InstallsIntoInvalidFrames)
{
    auto llc = lruCache(8, 2);
    PrefetcherConfig cfg;
    cfg.degree = 2;
    Prefetcher p(cfg);
    p.onDemandMiss(*llc, 0x10, 0x400000, 0, 0);
    EXPECT_EQ(p.stats().issued, 2u);
    EXPECT_EQ(p.stats().installed, 2u);
    EXPECT_TRUE(llc->probe(0x11));
    EXPECT_TRUE(llc->probe(0x12));
}

TEST(Prefetcher, RedundantTargetsAreDropped)
{
    auto llc = lruCache(8, 2);
    llc->access(demand(0x11), 0);
    llc->fill(demand(0x11), 0);
    PrefetcherConfig cfg;
    cfg.degree = 1;
    Prefetcher p(cfg);
    p.onDemandMiss(*llc, 0x10, 0x400000, 0, 0);
    EXPECT_EQ(p.stats().redundant, 1u);
    EXPECT_EQ(p.stats().installed, 0u);
}

TEST(Prefetcher, DeadDirectedModeRefusesToPollute)
{
    // Fill every frame of the target set with live blocks: the
    // dead-directed prefetcher must drop the prefetch.
    auto llc = lruCache(4, 2);
    for (Addr a : {0x1, 0x5}) { // set 1
        llc->access(demand(a), 0);
        llc->fill(demand(a), 0);
    }
    PrefetcherConfig cfg;
    cfg.degree = 1;
    Prefetcher p(cfg);
    p.onDemandMiss(*llc, 0x0, 0x400000, 0, 0); // prefetch 0x1... hit
    EXPECT_EQ(p.stats().redundant, 1u);
    p.onDemandMiss(*llc, 0x8, 0x400000, 0, 0); // prefetch 0x9 -> set 1
    EXPECT_EQ(p.stats().noDeadFrame, 1u);
    EXPECT_FALSE(llc->probe(0x9));
    EXPECT_TRUE(llc->probe(0x1));
    EXPECT_TRUE(llc->probe(0x5));
}

TEST(Prefetcher, PollutingModeReplacesLiveBlocks)
{
    auto llc = lruCache(4, 2);
    for (Addr a : {0x1, 0x5}) {
        llc->access(demand(a), 0);
        llc->fill(demand(a), 0);
    }
    PrefetcherConfig cfg;
    cfg.degree = 1;
    cfg.deadBlockDirected = false;
    Prefetcher p(cfg);
    p.onDemandMiss(*llc, 0x8, 0x400000, 0, 0);
    EXPECT_TRUE(llc->probe(0x9));
    EXPECT_EQ(p.stats().installed, 1u);
}

TEST(Prefetcher, InstallsIntoPredictedDeadFrames)
{
    // A DBRB-managed cache with a saturated-dead PC: the dead block
    // is sacrificed for the prefetch.
    SdbpConfig scfg = SdbpConfig::paperDefault(4);
    scfg.sampler.numSets = 1;
    scfg.sampler.assoc = 2;
    auto predictor = std::make_unique<SamplingDeadBlockPredictor>(4, 2, scfg);
    auto *pred = predictor.get();
    auto policy = std::make_unique<
        BasicDeadBlockPolicy<LruPolicy, DeadBlockPredictor>>(
        std::make_unique<LruPolicy>(4, 2), std::move(predictor));
    CacheConfig ccfg;
    ccfg.numSets = 4;
    ccfg.assoc = 2;
    Cache llc(ccfg, std::move(policy));

    const PC dead_pc = 0x400abc;
    const PC live_pc = 0x500000;
    for (int i = 0; i < 3; ++i)
        pred->table().increment(pred->signature(dead_pc));

    // Fill set 1 with one live and one dead-marked block.
    llc.access(demand(0x1, live_pc), 0);
    llc.fill(demand(0x1, live_pc), 0);
    llc.access(demand(0x5, dead_pc), 1); // predicted dead on miss...
    // (bypassed: dead-on-arrival). Use a live fill then mark by hit.
    llc.fill(demand(0x5, dead_pc), 1);
    EXPECT_FALSE(llc.probe(0x5)); // bypassed as expected

    // Install it via the polluting path instead, then mark dead by
    // a touch with the dead PC.
    Access wb = demand(0x5, 0);
    wb.isWriteback = true;
    llc.access(wb, 2);
    llc.fill(wb, 2);
    llc.access(demand(0x5, dead_pc), 3); // hit -> marked dead
    // Age the dead mark past the recency grace.
    llc.access(demand(0x1, live_pc), 4);

    PrefetcherConfig cfg;
    cfg.degree = 1;
    Prefetcher p(cfg);
    p.onDemandMiss(llc, 0x8, live_pc, 0, 4); // prefetch 0x9 -> set 1
    EXPECT_TRUE(llc.probe(0x9));
    EXPECT_TRUE(llc.probe(0x1));  // live block survives
    EXPECT_FALSE(llc.probe(0x5)); // dead block sacrificed
}

TEST(Prefetcher, EndToEndOnStreamingWorkload)
{
    // Next-line prefetching on a sequential-scan benchmark turns
    // LLC misses into hits without hurting anything else.
    auto run = [](unsigned degree) {
        HierarchyConfig cfg;
        cfg.prefetch.degree = degree;
        System sys(cfg, CoreConfig{},
                   makePolicy(PolicyKind::Sampler, cfg.llc.numSets,
                              cfg.llc.assoc));
        SyntheticWorkload w(specProfile("462.libquantum"));
        std::vector<AccessGenerator *> gens = {&w};
        sys.run(gens, 100000, 300000);
        return std::pair{sys.hierarchy().llc().stats().demandMisses,
                         sys.hierarchy().prefetcher().stats()};
    };
    const auto [base_misses, base_stats] = run(0);
    const auto [pf_misses, pf_stats] = run(4);
    EXPECT_EQ(base_stats.issued, 0u);
    EXPECT_GT(pf_stats.issued, 0u);
    EXPECT_GT(pf_stats.installed, 0u);
    EXPECT_LT(pf_misses, base_misses);
}

TEST(Prefetcher, BypassReusesWithPrefetchFills)
{
    // A prefetch fill is not a predictor consultation: it reuses the
    // demand's prediction, so one consultation can bypass up to
    // 1 + degree blocks.  The bypass-reuse count must still follow
    // the reference model, and these numbers must not move.
    HierarchyConfig cfg;
    cfg.prefetch.degree = 4;
    auto checked = std::make_unique<ModelCheckedPolicy>(makePolicy(
        PolicyKind::Sampler, cfg.llc.numSets, cfg.llc.assoc));
    const ModelCheckedPolicy &policy = *checked;
    System sys(cfg, CoreConfig{}, std::move(checked));
    SyntheticWorkload w(specProfile("462.libquantum"));
    std::vector<AccessGenerator *> gens = {&w};
    sys.run(gens, 100000, 300000);
    const DbrbStats &s = policy.dbrb().dbrbStats();
    const std::uint64_t demand_misses =
        sys.hierarchy().llc().stats().demandMisses;
    EXPECT_GT(s.bypasses, demand_misses);
    EXPECT_EQ(s.bypasses, 182450u);
    EXPECT_EQ(s.bypassReuses, 36489u);
    EXPECT_EQ(s.bypassReuses, policy.model().reuses());
}

} // anonymous namespace
} // namespace sdbp
