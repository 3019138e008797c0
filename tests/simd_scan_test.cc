/**
 * @file
 * SIMD / scalar scan-kernel equivalence (DESIGN.md §15).
 *
 * The vector kernels in util/simd.hh must be drop-in replacements
 * for their scalar references: same result for every lane content
 * the cache can produce, including widths that are not a multiple of
 * the vector width (tail path), sentinel-laden lanes (kNoBlock never
 * matches because it is never a legal probe key), and LRU order
 * lanes whose neighbouring sets and padding hold the very way a
 * kernel looks for (those bytes must neither match nor change).
 *
 * On top of the kernel-level checks, a full-run check pins the
 * system-level consequence: a simulation executed with the vector
 * path selected and one with the scalar path forced produce
 * bit-identical RunResults for every sealed policy kind.
 *
 * On hosts without AVX2 (or with -DSDBP_SIMD=OFF builds) the kernel
 * tests still run — setEnabledForTest(true) is then a no-op and both
 * sides take the scalar path, making the equivalence trivially true.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "cache/cache.hh"
#include "sim/runner.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace sdbp
{
namespace
{

/** Run @p fn with the vector path selected, restoring on exit. */
template <class Fn>
auto
withSimd(bool on, Fn &&fn)
{
    const bool prev = simd::setEnabledForTest(on);
    auto result = fn();
    simd::setEnabledForTest(prev);
    return result;
}

/** Associativities covering sub-vector, aligned and tail widths. */
const std::uint32_t kWidths[] = {1, 2, 3, 4, 6, 8, 12, 16, 17};

TEST(SimdScanTest, FindTagMatchesScalarOnRandomLanes)
{
    Rng rng(0x51D0);
    for (const std::uint32_t n : kWidths) {
        std::vector<std::uint64_t> tags(n);
        for (int iter = 0; iter < 2000; ++iter) {
            // Distinct tags (the no-duplicate set invariant the
            // equivalence contract is scoped to — with duplicates the
            // kernels may legitimately pick different matches);
            // occasional sentinel writes model invalid frames.  A
            // small key range over base..base+2n makes both hits and
            // misses frequent.
            const std::uint64_t base = rng.below(1 << 20) * n * 2;
            for (std::uint32_t w = 0; w < n; ++w) {
                tags[w] = rng.chance(1, 8) ? SetView::kNoBlock
                                           : base + 2 * w;
            }
            const std::uint64_t key = base + rng.below(2 * n);
            const int scalar = simd::findTagScalar(tags.data(), n, key);
            const int vec = withSimd(true, [&] {
                return simd::findTag(tags.data(), n, key);
            });
            ASSERT_EQ(vec, scalar)
                << "n=" << n << " iter=" << iter << " key=" << key;
        }
    }
}

TEST(SimdScanTest, FindTagNeverMatchesTheSentinel)
{
    // A lane of invalid frames must miss for every legal key, and
    // must miss even for keys adjacent to the sentinel encoding.
    for (const std::uint32_t n : kWidths) {
        std::vector<std::uint64_t> tags(n, SetView::kNoBlock);
        const std::uint64_t keys[] = {0, 1, SetView::kNoBlock - 1};
        for (const std::uint64_t key : keys) {
            EXPECT_EQ(withSimd(true,
                               [&] {
                                   return simd::findTag(tags.data(), n,
                                                        key);
                               }),
                      -1)
                << "n=" << n << " key=" << key;
        }
    }
}

/**
 * An order lane of three sets of @p n ways each plus the padding
 * LruPolicy keeps: each set a random permutation of 0..n-1, the
 * padding random bytes drawn from the same small range, so the
 * bytes next to any set can equal the way a kernel looks for.
 */
std::vector<std::uint8_t>
randomOrderLane(Rng &rng, std::uint32_t n)
{
    std::vector<std::uint8_t> lane(3 * n + simd::kStackLaneBytes);
    for (std::uint32_t set = 0; set < 3; ++set) {
        std::uint8_t *base = &lane[set * n];
        for (std::uint32_t pos = 0; pos < n; ++pos)
            base[pos] = static_cast<std::uint8_t>(pos);
        for (std::uint32_t pos = n; pos > 1; --pos)
            std::swap(base[pos - 1], base[rng.below(pos)]);
    }
    for (std::uint32_t i = 3 * n; i < lane.size(); ++i)
        lane[i] = static_cast<std::uint8_t>(rng.below(n + 2));
    return lane;
}

/** Widest order lane tested: one past the vector kernels' 16. */
constexpr std::uint32_t kMaxStackWidth = 17;

TEST(SimdScanTest, StackFindMatchesScalar)
{
    Rng rng(0x51D1);
    for (std::uint32_t n = 1; n <= kMaxStackWidth; ++n) {
        for (int iter = 0; iter < 300; ++iter) {
            const auto lane = randomOrderLane(rng, n);
            const auto set = static_cast<std::uint32_t>(rng.below(3));
            const std::uint8_t *base = &lane[set * n];
            for (std::uint32_t way = 0; way < n; ++way) {
                const std::uint32_t scalar =
                    simd::stackFindScalar(base, n, way);
                ASSERT_LT(scalar, n);
                ASSERT_EQ(base[scalar], way);
                const std::uint32_t vec = withSimd(
                    true, [&] { return simd::stackFind(base, n, way); });
                ASSERT_EQ(vec, scalar)
                    << "n=" << n << " set=" << set << " way=" << way;
            }
        }
    }
}

/**
 * Apply random promotes and demotes through the dispatcher with the
 * vector path selected and through the scalar reference, to one set
 * of a shared lane at a time.  Both lanes must stay byte-identical,
 * and every byte outside the set touched — the other sets and the
 * padding — must keep its value.
 */
TEST(SimdScanTest, StackPromoteAndDemoteMatchScalar)
{
    Rng rng(0x51D2);
    for (std::uint32_t n = 1; n <= kMaxStackWidth; ++n) {
        auto vec = randomOrderLane(rng, n);
        auto scalar = vec;
        for (int step = 0; step < 2000; ++step) {
            const auto set = static_cast<std::uint32_t>(rng.below(3));
            const auto way = static_cast<std::uint32_t>(rng.below(n));
            const bool promote = rng.chance(1, 2);
            const auto before = vec;
            std::uint8_t *vbase = &vec[set * n];
            std::uint8_t *sbase = &scalar[set * n];
            withSimd(true, [&] {
                if (promote)
                    simd::stackPromote(vbase, n, way);
                else
                    simd::stackDemote(vbase, n, way);
                return 0;
            });
            if (promote)
                simd::stackPromoteScalar(sbase, n, way);
            else
                simd::stackDemoteScalar(sbase, n, way);
            ASSERT_EQ(vec, scalar) << "n=" << n << " step=" << step;
            ASSERT_EQ(vbase[promote ? 0 : n - 1], way);
            for (std::size_t i = 0; i < vec.size(); ++i) {
                if (i < set * n || i >= (set + 1) * n) {
                    ASSERT_EQ(vec[i], before[i])
                        << "n=" << n << " step=" << step << " byte=" << i;
                }
            }
        }
    }
}

// ---- Full-run equivalence --------------------------------------

using SimdRunParam = std::tuple<PolicyKind, std::string>;

class SimdRunEquivalence
    : public ::testing::TestWithParam<SimdRunParam>
{
};

TEST_P(SimdRunEquivalence, VectorAndScalarRunsAreBitIdentical)
{
    const auto [kind, benchmark] = GetParam();

    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20'000;
    cfg.measureInstructions = 60'000;

    const RunResult vec = withSimd(
        true, [&] { return runSingleCore(benchmark, kind, cfg); });
    const RunResult sca = withSimd(
        false, [&] { return runSingleCore(benchmark, kind, cfg); });

    EXPECT_EQ(vec.instructions, sca.instructions);
    EXPECT_EQ(vec.cycles, sca.cycles);
    EXPECT_EQ(vec.ipc, sca.ipc);
    EXPECT_EQ(vec.mpki, sca.mpki);
    EXPECT_EQ(vec.llcAccesses, sca.llcAccesses);
    EXPECT_EQ(vec.llcMisses, sca.llcMisses);
    EXPECT_EQ(vec.llcBypasses, sca.llcBypasses);
    EXPECT_EQ(vec.llcEfficiency, sca.llcEfficiency);
}

std::string
simdParamName(const ::testing::TestParamInfo<SimdRunParam> &info)
{
    std::string name = policyName(std::get<0>(info.param)) + "_" +
                       std::get<1>(info.param);
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, SimdRunEquivalence,
    ::testing::Combine(::testing::ValuesIn(allPolicyKinds()),
                       ::testing::Values("456.hmmer", "429.mcf")),
    simdParamName);

} // anonymous namespace
} // namespace sdbp
