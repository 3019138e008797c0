/**
 * @file
 * Unit tests for the core timing model and the multi-core system.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "cache/lru.hh"
#include "cpu/core_model.hh"
#include "cpu/system.hh"

namespace sdbp
{
namespace
{

TEST(CoreModelTest, PeakIpcIsWidth)
{
    CoreModel core;
    core.executeNonMem(4000);
    const double ipc = static_cast<double>(core.instructions()) /
        static_cast<double>(core.cycles());
    EXPECT_GT(ipc, 3.5);
    EXPECT_LE(ipc, 4.0);
}

TEST(CoreModelTest, PipelineFillDelaysFirstInstructions)
{
    CoreModel core;
    core.executeNonMem(1);
    EXPECT_GE(core.cycles(), 8u); // 8-stage pipeline fill
}

TEST(CoreModelTest, IndependentLoadsOverlap)
{
    // 32 independent 200-cycle loads fit in the 128-entry window:
    // total time must be near 200, not 32 x 200.
    CoreModel core;
    for (int i = 0; i < 32; ++i)
        core.executeMem(200, true, false);
    EXPECT_LT(core.cycles(), 300u);
}

TEST(CoreModelTest, DependentLoadsSerialize)
{
    CoreModel core;
    for (int i = 0; i < 32; ++i)
        core.executeMem(200, true, true);
    EXPECT_GE(core.cycles(), 32u * 200);
}

TEST(CoreModelTest, WindowLimitsMemoryLevelParallelism)
{
    // 256 independent long loads cannot all overlap in a 128-entry
    // window: at least two "waves" are needed.
    CoreModel core;
    for (int i = 0; i < 256; ++i)
        core.executeMem(400, true, false);
    EXPECT_GE(core.cycles(), 2u * 400);
    EXPECT_LT(core.cycles(), 5u * 400);
}

TEST(CoreModelTest, StoresDoNotStall)
{
    CoreModel core;
    for (int i = 0; i < 100; ++i)
        core.executeMem(200, false, false);
    EXPECT_LT(core.cycles(), 200u);
}

TEST(CoreModelTest, ResetClearsEverything)
{
    CoreModel core;
    core.executeMem(500, true, false);
    core.reset();
    EXPECT_EQ(core.instructions(), 0u);
    core.executeNonMem(40);
    EXPECT_LT(core.cycles(), 30u);
}

TEST(CoreModelTest, SmallWindowStallsSooner)
{
    CoreConfig small;
    small.robSize = 4;
    CoreModel core(small);
    // One long load followed by many quick instructions: the window
    // fills and dispatch stalls behind the load.
    core.executeMem(1000, true, false);
    core.executeNonMem(100);
    EXPECT_GE(core.cycles(), 1000u);
}

// ---- System ----

HierarchyConfig
tinyHierarchy(std::uint32_t cores)
{
    HierarchyConfig cfg;
    cfg.l1 = {.name = "L1", .numSets = 8, .assoc = 2, .latency = 3};
    cfg.l2 = {.name = "L2", .numSets = 16, .assoc = 4, .latency = 12};
    cfg.llc = {.name = "LLC", .numSets = 64, .assoc = 8, .latency = 30};
    cfg.numCores = cores;
    return cfg;
}

/** Trivial generator: sequential scan, no gaps. */
class ScanGen : public AccessGenerator
{
  public:
    explicit ScanGen(Addr base, std::uint64_t blocks)
        : base_(base), blocks_(blocks)
    {
    }
    void
    nextBatch(std::span<Access> out) override
    {
        for (auto &r : out) {
            r = Access{};
            r.gap = 1;
            r.pc = 0x400000;
            r.addr = base_ + (pos_++ % blocks_) * blockBytes;
            ++emitted_;
        }
    }
    void
    reset() override
    {
        pos_ = 0;
        ++resets_;
    }
    std::uint64_t emitted_ = 0;
    unsigned resets_ = 0;

  private:
    Addr base_;
    std::uint64_t blocks_;
    std::uint64_t pos_ = 0;
};

TEST(SystemTest, SingleCoreRunsExactInstructionBudget)
{
    System sys(tinyHierarchy(1), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    ScanGen gen(0, 1024);
    const auto results = sys.run({&gen}, 0, 10000);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].instructions, 10000u);
    EXPECT_LE(results[0].instructions, 10002u);
    EXPECT_GT(results[0].ipc, 0.0);
    EXPECT_LE(results[0].ipc, 4.0);
}

TEST(SystemTest, ExpiredDeadlineThrowsSimulationTimeout)
{
    System sys(tinyHierarchy(1), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    sys.setDeadline(std::chrono::steady_clock::now() -
                    std::chrono::seconds(1));
    ScanGen gen(0, 1024);
    // The deadline check strides every 2^15 steps, so give the run
    // enough budget to hit it.
    EXPECT_THROW(sys.run({&gen}, 0, 1000000), SimulationTimeout);
}

TEST(SystemTest, GenerousDeadlineDoesNotFire)
{
    System sys(tinyHierarchy(1), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    sys.setDeadline(std::chrono::steady_clock::now() +
                    std::chrono::hours(1));
    ScanGen gen(0, 1024);
    const auto results = sys.run({&gen}, 0, 100000);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_GE(results[0].instructions, 100000u);
}

TEST(SystemTest, WarmupClearsStatsButKeepsContent)
{
    System sys(tinyHierarchy(1), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    // Working set fits every cache: after warm-up there must be no
    // further LLC misses at all.
    ScanGen gen(0, 8);
    sys.run({&gen}, 2000, 2000);
    EXPECT_EQ(sys.hierarchy().llc().stats().demandMisses, 0u);
}

TEST(SystemTest, AllCoresFinishAndRestart)
{
    System sys(tinyHierarchy(2), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    ScanGen fast(0, 8);            // tiny working set: high IPC
    ScanGen slow(1ull << 30, 4096); // streams through the LLC
    const auto results = sys.run({&fast, &slow}, 0, 5000);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_GE(r.instructions, 5000u);
        EXPECT_GT(r.ipc, 0.0);
    }
    // The fast core finished first and was restarted at least once.
    EXPECT_EQ(fast.resets_, 1u);
    EXPECT_EQ(slow.resets_, 1u);
    // The fast core must have kept issuing accesses after finishing
    // (contention is preserved until everyone is done).
    EXPECT_GT(fast.emitted_ * 2, 5000u / 2);
}

TEST(SystemTest, FasterCoreGetsHigherIpc)
{
    System sys(tinyHierarchy(2), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    ScanGen fast(0, 8);
    ScanGen slow(1ull << 30, 65536);
    const auto results = sys.run({&fast, &slow}, 500, 5000);
    EXPECT_GT(results[0].ipc, results[1].ipc);
}

TEST(SystemTest, SharedMemoryBandwidthThrottles)
{
    // Two cores streaming through memory: a bounded DRAM service
    // interval must cost cycles relative to unlimited bandwidth.
    auto run_with = [](Cycle interval) {
        HierarchyConfig cfg = tinyHierarchy(2);
        cfg.memServiceInterval = interval;
        System sys(cfg, CoreConfig{},
                   std::make_unique<LruPolicy>(64, 8));
        ScanGen a(0, 1 << 20);            // pure miss streams
        ScanGen b(1ull << 30, 1 << 20);
        const auto results = sys.run({&a, &b}, 0, 20000);
        return results[0].cycles + results[1].cycles;
    };
    const Cycle unlimited = run_with(0);
    const Cycle bounded = run_with(64);
    EXPECT_GT(bounded, unlimited + unlimited / 10);
}

TEST(SystemTest, BandwidthIrrelevantWhenHitting)
{
    // A workload that never misses after warm-up pays nothing for a
    // tight memory channel.
    auto run_with = [](Cycle interval) {
        HierarchyConfig cfg = tinyHierarchy(1);
        cfg.memServiceInterval = interval;
        System sys(cfg, CoreConfig{},
                   std::make_unique<LruPolicy>(64, 8));
        ScanGen gen(0, 8);
        const auto results = sys.run({&gen}, 5000, 20000);
        return results[0].cycles;
    };
    EXPECT_EQ(run_with(0), run_with(200));
}

TEST(SystemTest, SymmetricCoresGetSymmetricIpc)
{
    // Four cores running identical (but independently seeded)
    // workload shapes through a shared LLC should end up with
    // comparable IPCs — the interleaving scheduler must not starve
    // anyone.
    HierarchyConfig cfg = tinyHierarchy(4);
    System sys(cfg, CoreConfig{}, std::make_unique<LruPolicy>(64, 8));
    ScanGen g0(0ull << 32, 4096), g1(1ull << 32, 4096),
        g2(2ull << 32, 4096), g3(3ull << 32, 4096);
    const auto results = sys.run({&g0, &g1, &g2, &g3}, 2000, 20000);
    double min_ipc = 1e9, max_ipc = 0;
    for (const auto &r : results) {
        min_ipc = std::min(min_ipc, r.ipc);
        max_ipc = std::max(max_ipc, r.ipc);
    }
    EXPECT_LT(max_ipc, min_ipc * 1.2 + 0.01);
}

TEST(SystemTest, SecondRunWarmsUpForItsFullQuota)
{
    // Both phase quotas count from where each core stood when run()
    // began, so a repeated run on the same system warms up as long as
    // the first one did — on one core and on two.
    constexpr InstCount kWarmup = 3000;
    for (const std::uint32_t cores : {1u, 2u}) {
        SCOPED_TRACE(cores);
        System sys(tinyHierarchy(cores), CoreConfig{},
                   std::make_unique<LruPolicy>(64, 8));
        ScanGen g0(0, 1024), g1(1ull << 30, 1024);
        std::vector<AccessGenerator *> gens = {&g0, &g1};
        gens.resize(cores);
        for (int pass = 0; pass < 2; ++pass) {
            SCOPED_TRACE(pass);
            const auto results = sys.run(gens, kWarmup, 2000);
            ASSERT_EQ(sys.phases().size(), 2u);
            EXPECT_STREQ(sys.phases()[0].name, "warmup");
            EXPECT_GE(sys.phases()[0].instructions, cores * kWarmup);
            for (const auto &r : results)
                EXPECT_GE(r.instructions, 2000u);
        }
    }
}

TEST(SystemTest, TickAdvancesWithInstructions)
{
    System sys(tinyHierarchy(1), CoreConfig{},
               std::make_unique<LruPolicy>(64, 8));
    ScanGen gen(0, 64);
    sys.run({&gen}, 0, 1000);
    EXPECT_GE(sys.tick(), 1000u);
}

} // anonymous namespace
} // namespace sdbp
