/**
 * @file
 * Tests for storage accounting (Table I) and the analytical power
 * model (Table II).
 */

#include <gtest/gtest.h>

#include "core/sdbp.hh"
#include "power/model.hh"
#include "power/storage.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"

namespace sdbp
{
namespace
{

constexpr std::uint64_t llcBlocks = 32768; // 2 MB of 64 B blocks

TEST(Storage, RefTraceTotalsMatchTableI)
{
    RefTracePredictor p(2048, 16);
    const StorageBreakdown b = storageOf(p, llcBlocks);
    EXPECT_DOUBLE_EQ(b.predictorKB(), 8.0);
    EXPECT_DOUBLE_EQ(b.metadataKB(), 64.0);
    EXPECT_DOUBLE_EQ(b.totalKB(), 72.0);
    // "3.5% of the data capacity of the LLC"
    EXPECT_NEAR(b.fractionOfCache(2 * 1024 * 1024), 0.035, 0.0005);
}

TEST(Storage, CountingTotalsMatchTableI)
{
    CountingPredictor p(2048, 16);
    const StorageBreakdown b = storageOf(p, llcBlocks);
    EXPECT_DOUBLE_EQ(b.predictorKB(), 40.0);
    EXPECT_DOUBLE_EQ(b.metadataKB(), 68.0);
    EXPECT_DOUBLE_EQ(b.totalKB(), 108.0);
    EXPECT_NEAR(b.fractionOfCache(2 * 1024 * 1024), 0.053, 0.0005);
}

TEST(Storage, SamplerIsWellUnderOnePercent)
{
    SamplingDeadBlockPredictor p(2048, 16);
    const StorageBreakdown b = storageOf(p, llcBlocks);
    // Tables: 3 KB.  Sampler: 32 x 12 x 36 bits = 1.6875 KB (the
    // paper reports 6.75 KB for this structure; see EXPERIMENTS.md).
    EXPECT_NEAR(b.predictorKB(), 3.0 + 1.6875, 1e-9);
    EXPECT_DOUBLE_EQ(b.metadataKB(), 4.0);
    EXPECT_LT(b.fractionOfCache(2 * 1024 * 1024), 0.01);
}

TEST(Storage, SamplerUsesFarLessThanBaselines)
{
    SamplingDeadBlockPredictor sampler(2048, 16);
    RefTracePredictor reftrace(2048, 16);
    CountingPredictor counting(2048, 16);
    const auto s = storageOf(sampler, llcBlocks).totalBits();
    const auto r = storageOf(reftrace, llcBlocks).totalBits();
    const auto c = storageOf(counting, llcBlocks).totalBits();
    EXPECT_LT(s * 5, r); // >5x smaller than reftrace
    EXPECT_LT(s * 8, c); // >8x smaller than counting
}

TEST(PowerModel, CalibratedToBaselineLlc)
{
    PowerModel model;
    const auto llc = model.estimate(PowerModel::baselineLlcGeometry());
    EXPECT_NEAR(llc.leakageW, 0.512, 1e-9);
    EXPECT_NEAR(llc.peakDynamicW, 2.75, 1e-9);
}

TEST(PowerModel, LeakageProportionalToBits)
{
    PowerModel model;
    SramGeometry a{.name = "a", .totalBits = 1000, .accessBits = 8};
    SramGeometry b{.name = "b", .totalBits = 2000, .accessBits = 8};
    EXPECT_NEAR(model.estimate(b).leakageW,
                2 * model.estimate(a).leakageW, 1e-12);
}

TEST(PowerModel, DynamicGrowsSublinearly)
{
    PowerModel model;
    SramGeometry small{.name = "s", .totalBits = 1 << 16,
                       .accessBits = 2};
    SramGeometry big{.name = "b", .totalBits = 1 << 20,
                     .accessBits = 2};
    const double ps = model.estimate(small).peakDynamicW;
    const double pb = model.estimate(big).peakDynamicW;
    EXPECT_GT(pb, ps);
    EXPECT_LT(pb, 16 * ps); // 16x capacity, far less than 16x power
}

TEST(PowerModel, ActivityScalesEffectiveDynamicOnly)
{
    PowerModel model;
    SramGeometry g{.name = "g", .totalBits = 4096, .accessBits = 4,
                   .activity = 0.016};
    const auto e = model.estimate(g);
    EXPECT_NEAR(e.effectiveDynamicW, e.peakDynamicW * 0.016, 1e-12);
}

TEST(PowerModel, PredictorOrderingMatchesPaper)
{
    // The Table II ordering: sampler < reftrace < counting for both
    // leakage and dynamic power (predictor structures + metadata).
    PowerModel model;
    SamplingDeadBlockPredictor sampler(2048, 16);
    RefTracePredictor reftrace(2048, 16);
    CountingPredictor counting(2048, 16);

    auto total = [&](const DeadBlockPredictor &p) {
        SramGeometry structures{.name = "s",
                                .totalBits = p.storageBits(),
                                .accessBits = 8};
        const auto meta = PowerModel::metadataGeometry(
            "m", p.metadataBitsPerBlock(), llcBlocks);
        const auto a = model.estimate(structures);
        const auto b = model.estimate(meta);
        return std::pair{a.leakageW + b.leakageW,
                         a.peakDynamicW + b.peakDynamicW};
    };

    const auto [ls, ds] = total(sampler);
    const auto [lr, dr] = total(reftrace);
    const auto [lc, dc] = total(counting);
    EXPECT_LT(ls, lr);
    EXPECT_LT(lr, lc);
    EXPECT_LT(ds, dr);
    EXPECT_LT(dr, dc);

    // Leakage fractions of the 0.512 W LLC stay in the low percent
    // range, as in Sec. IV-D2.
    EXPECT_LT(ls / 0.512, 0.03);
    EXPECT_LT(lc / 0.512, 0.08);
}

} // anonymous namespace
} // namespace sdbp
