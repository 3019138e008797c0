/**
 * @file
 * Tests for the compile-time hardware-budget audit
 * (`util/budget.hh`, `power/budget_audit.hh`) and the runtime
 * invariant layer (`SDBP_DCHECK`, `auditInvariants()`).
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/lru.hh"
#include "core/sdbp.hh"
#include "power/budget_audit.hh"
#include "power/storage.hh"
#include "util/budget.hh"
#include "util/rng.hh"

namespace sdbp
{
namespace
{

TEST(Budget, BitsArithmetic)
{
    constexpr budget::Bits a{8 * 1024};
    constexpr budget::Bits b{8 * 1024};
    static_assert((a + b).count() == 16 * 1024);
    static_assert((a * 3).count() == 24 * 1024);
    static_assert(a == b);
    EXPECT_DOUBLE_EQ(a.kilobytes(), 1.0);
}

TEST(Budget, WidthForValues)
{
    static_assert(budget::widthForValues(1) == 0);
    static_assert(budget::widthForValues(2) == 1);
    static_assert(budget::widthForValues(12) == 4);
    static_assert(budget::widthForValues(16) == 4);
    static_assert(budget::widthForValues(17) == 5);
    SUCCEED();
}

TEST(Budget, SaturatingCounterSpec)
{
    constexpr budget::SaturatingCounterSpec two{2};
    static_assert(two.maxValue() == 3);
    static_assert(two.bits().count() == 2);
    SUCCEED();
}

TEST(Budget, StorageModelMatchesConstexprAuditForAllShippedConfigs)
{
    const auto entries =
        StorageModel::shipped(budget_audit::llcBlocks2MB);
    constexpr auto rows = budget_audit::shippedRows();
    ASSERT_EQ(entries.size(), rows.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        SCOPED_TRACE(entries[i].label);
        EXPECT_TRUE(entries[i].consistent());
        EXPECT_EQ(entries[i].breakdown.totalBits(),
                  rows[i].totalBits(budget_audit::llcBlocks2MB));
    }
}

TEST(Budget, PaperDefaultAndSingleTableTotals)
{
    // The two SDBP configs the benches ship, cross-checked against
    // live predictor instances end to end.
    const SamplingDeadBlockPredictor paper{2048, 16,
                                           SdbpConfig::paperDefault()};
    EXPECT_EQ(paper.storageBits(),
              SdbpConfig::paperDefault().storageBits());
    EXPECT_EQ(paper.storageBits(), 38400u);
    EXPECT_EQ(paper.metadataBitsPerBlock(), 1u);

    const SamplingDeadBlockPredictor single{2048, 16,
                                            SdbpConfig::singleTable()};
    EXPECT_EQ(single.storageBits(),
              SdbpConfig::singleTable().storageBits());
    // One 16384-entry 2-bit bank + the unchanged sampler tag array.
    EXPECT_EQ(single.storageBits(), 16384u * 2 + 13824u);
}

TEST(Budget, StorageOfAgreesWithStorageModel)
{
    RefTracePredictor reftrace(2048, 16);
    const auto direct =
        storageOf(reftrace, budget_audit::llcBlocks2MB);
    const auto entries =
        StorageModel::shipped(budget_audit::llcBlocks2MB);
    EXPECT_EQ(direct.totalBits(), entries[2].breakdown.totalBits());
    EXPECT_DOUBLE_EQ(direct.totalKB(), 72.0);
}

TEST(Invariants, CleanStructuresPassAudit)
{
    SamplingDeadBlockPredictor p(2048, 16);
    Rng rng(42);
    for (int i = 0; i < 200000; ++i) {
        const auto addr = rng.below(1 << 20);
        const auto pc = 0x400000 + rng.below(256) * 4;
        p.onAccess(static_cast<std::uint32_t>(addr & 2047), -1,
                   Access::atBlock(addr, pc, 0));
    }
    p.auditInvariants();
}

TEST(Invariants, CacheAuditPassesUnderTraffic)
{
    CacheConfig cfg;
    cfg.numSets = 64;
    cfg.assoc = 8;
    Cache cache(cfg, std::make_unique<LruPolicy>(cfg.numSets,
                                                 cfg.assoc));
    Rng rng(7);
    for (std::uint64_t now = 0; now < 50000; ++now) {
        const Access a = Access::atBlock(rng.below(4096), 0x1000);
        if (!cache.access(a, now))
            cache.fill(a, now);
    }
    cache.auditInvariants();
}

#if SDBP_DCHECK_ENABLED

using InvariantsDeathTest = ::testing::Test;

TEST(InvariantsDeathTest, CorruptedLruStackFiresDcheck)
{
    Sampler sampler;
    SkewedTable table;
    for (std::uint16_t i = 0; i < 40; ++i)
        sampler.access(0, i, i, table);
    // Clone way 1's LRU position into way 0: the stack is no longer
    // a permutation of 0..assoc-1.
    sampler.mutableEntry(0, 0).lruPos = sampler.entry(0, 1).lruPos;
    EXPECT_DEATH(sampler.auditInvariants(), "SDBP_DCHECK");
}

TEST(InvariantsDeathTest, OverwidePartialTagFiresDcheck)
{
    Sampler sampler;
    SkewedTable table;
    sampler.access(0, 1, 1, table);
    // 15-bit tag field cannot hold a 16-bit value.
    sampler.mutableEntry(0, 0).tag = 0xFFFF;
    sampler.mutableEntry(0, 0).valid = true;
    EXPECT_DEATH(sampler.auditInvariants(), "SDBP_DCHECK");
}

#else

TEST(InvariantsDeathTest, DISABLED_DchecksCompiledOut) {}

#endif // SDBP_DCHECK_ENABLED

} // anonymous namespace
} // namespace sdbp
