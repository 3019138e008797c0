/**
 * @file
 * Vectorized set-scan kernels for the structure-of-arrays cache
 * lanes (DESIGN.md §15).
 *
 * Two kinds of lane are scanned on every simulated access:
 *
 *   findTag(tags, n, key)       index of `key` in a tag lane, -1 when
 *                               absent — the hit-lookup scan;
 *   stackFind(order, n, way)    stack position of `way` in an LRU
 *                               order lane (one byte per position,
 *                               0 = MRU) — the recency lookup;
 *   stackPromote(order, n, way) move `way` to position 0, shifting
 *                               the positions above it down by one
 *                               — the hit/fill update;
 *   stackDemote(order, n, way)  move `way` to position n-1, shifting
 *                               the positions below it up by one —
 *                               the LRU-insertion update.
 *
 * Each has a scalar reference implementation and a vector
 * implementation compiled in when the build enables AVX2 codegen
 * (-DSDBP_SIMD=ON adds -mavx2; __AVX2__ is the gate).  findTag
 * compares four 64-bit tags per AVX2 step; the order-lane kernels
 * handle a whole set of up to 16 ways in one 16-byte register and
 * take the scalar path for wider sets.  The kernels are plain
 * inline functions — NOT `target("avx2")` clones — because a
 * target-attribute mismatch blocks inlining into the sealed access
 * loop, and the resulting out-of-line call per set scan costs more
 * than the vector compare saves (profiled at 21% exclusive).  -mavx2
 * alone is value-safe for the byte-identical-stdout guarantee: FMA
 * contraction needs -mfma, which the build never passes, and without
 * -ffast-math the vectorizer cannot reorder FP reductions, so every
 * double computes bit-identically to the scalar build.  Dispatch is
 * one branch on a process-wide bool resolved from CPUID at
 * static-init time — never a function pointer, so the sealed engine
 * symbols stay free of indirect calls (the binary audit checks
 * this).
 *
 * Equivalence contract (pinned by tests/simd_scan_test.cc):
 *
 *   - findTag matches the scalar scan for ANY lane content because
 *     at most one lane can equal `key`: the cache never stores
 *     duplicate tags in a set, and the all-ones sentinel
 *     (SetView::kNoBlock) is never a legal probe key (fill asserts
 *     it), so invalid frames can never match.
 *   - The order-lane kernels take a lane whose first n bytes are a
 *     permutation of 0..n-1 and a way < n, so `way` occurs exactly
 *     once among them.  The vector forms load and store 16 bytes
 *     from `order`; the caller pads its lane so those bytes exist.
 *     Bytes past n — the next set's positions or the padding — can
 *     never be the first match, and are stored back unchanged.
 *
 * Escape hatches: SDBP_NO_SIMD=1 forces the scalar path at startup;
 * setEnabledForTest() flips it at runtime (equivalence tests and the
 * BM_SimulatedInstruction/{simd,scalar} bench variants); configuring
 * with -DSDBP_SIMD=OFF compiles the vector kernels out entirely (the
 * CI scalar-fallback leg).
 */

#ifndef SDBP_UTIL_SIMD_HH
#define SDBP_UTIL_SIMD_HH

#include <cstdint>

#include "util/env.hh"
#include "util/hotpath.hh"

#if defined(__AVX2__) && !defined(SDBP_SIMD_DISABLED)
#define SDBP_SIMD_AVX2 1
#include <immintrin.h>
#else
#define SDBP_SIMD_AVX2 0
#endif

namespace sdbp::simd
{

/** Scalar reference: index of @p key in @p tags, -1 when absent. */
SDBP_HOT_PATH inline int
findTagScalar(const std::uint64_t *tags, std::uint32_t n,
              std::uint64_t key)
{
    int way = -1;
    for (std::uint32_t w = 0; w < n; ++w)
        way = tags[w] == key ? static_cast<int>(w) : way;
    return way;
}

/**
 * Widest order lane the vector kernels handle, and so the padding an
 * order lane needs past its last set.
 */
inline constexpr std::uint32_t kStackLaneBytes = 16;

/** Scalar reference: stack position of @p way in an order lane. */
SDBP_HOT_PATH inline std::uint32_t
stackFindScalar(const std::uint8_t *order, std::uint32_t n,
                std::uint32_t way)
{
    std::uint32_t pos = 0;
    while (pos < n && order[pos] != way)
        ++pos;
    return pos;
}

/** Scalar reference: move @p way to stack position 0. */
SDBP_HOT_PATH inline void
stackPromoteScalar(std::uint8_t *order, std::uint32_t n,
                   std::uint32_t way)
{
    for (std::uint32_t pos = stackFindScalar(order, n, way); pos > 0;
         --pos)
        order[pos] = order[pos - 1];
    order[0] = static_cast<std::uint8_t>(way);
}

/** Scalar reference: move @p way to stack position n-1. */
SDBP_HOT_PATH inline void
stackDemoteScalar(std::uint8_t *order, std::uint32_t n,
                  std::uint32_t way)
{
    for (std::uint32_t pos = stackFindScalar(order, n, way);
         pos + 1 < n; ++pos)
        order[pos] = order[pos + 1];
    order[n - 1] = static_cast<std::uint8_t>(way);
}

#if SDBP_SIMD_AVX2

/**
 * AVX2 tag scan: compare four 64-bit lanes per step and movemask.
 * At most one lane matches (no-duplicate-tag invariant), so the
 * first set bit IS the match.  The tail (n % 4) falls back to the
 * scalar walk; unaligned loads because the lanes live in plain
 * vectors.
 */
SDBP_HOT_PATH inline int
findTagAvx2(const std::uint64_t *tags, std::uint32_t n,
            std::uint64_t key)
{
    const __m256i vkey = _mm256_set1_epi64x(
        static_cast<long long>(key));
    std::uint32_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i lane = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const int mask = _mm256_movemask_pd(_mm256_castsi256_pd(
            _mm256_cmpeq_epi64(lane, vkey)));
        if (mask != 0)
            return static_cast<int>(w) + __builtin_ctz(
                static_cast<unsigned>(mask));
    }
    for (; w < n; ++w)
        if (tags[w] == key)
            return static_cast<int>(w);
    return -1;
}

/** Bytes 0..15, for per-position masks. */
SDBP_HOT_PATH SDBP_ALWAYS_INLINE __m128i
stackIota()
{
    return _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13,
                         14, 15);
}

/**
 * Vector stack position: compare all 16 bytes against @p way and
 * count trailing zeros.  Bytes past @p n (another set's positions or
 * the padding) may hold the same value, but they sit above the
 * way's own position, so the lowest match is still it.  The bit
 * forced in at n reads an absent way as n, like the scalar walk.
 */
SDBP_HOT_PATH inline std::uint32_t
stackFindVec16(const std::uint8_t *order, std::uint32_t n,
               std::uint32_t way)
{
    const __m128i lane =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(order));
    const __m128i hit =
        _mm_cmpeq_epi8(lane, _mm_set1_epi8(static_cast<char>(way)));
    const auto bits = static_cast<unsigned>(_mm_movemask_epi8(hit));
    return static_cast<std::uint32_t>(__builtin_ctz(bits | (1u << n)));
}

/**
 * Vector promote: positions 0..p (p = way's position) take the lane
 * shifted up one byte with @p way inserted at byte 0; the rest keep
 * their bytes.
 */
SDBP_HOT_PATH inline void
stackPromoteVec16(std::uint8_t *order, std::uint32_t n,
                  std::uint32_t way)
{
    const std::uint32_t pos = stackFindVec16(order, n, way);
    auto *p = reinterpret_cast<__m128i *>(order);
    const __m128i lane = _mm_loadu_si128(p);
    const __m128i shifted = _mm_or_si128(
        _mm_slli_si128(lane, 1),
        _mm_cvtsi32_si128(static_cast<int>(way)));
    const __m128i upto = _mm_cmpgt_epi8(
        _mm_set1_epi8(static_cast<char>(pos + 1)), stackIota());
    _mm_storeu_si128(p, _mm_blendv_epi8(lane, shifted, upto));
}

/**
 * Vector demote: positions p..n-2 take the lane shifted down one
 * byte, position n-1 takes @p way; the rest keep their bytes.
 */
SDBP_HOT_PATH inline void
stackDemoteVec16(std::uint8_t *order, std::uint32_t n,
                 std::uint32_t way)
{
    const std::uint32_t pos = stackFindVec16(order, n, way);
    auto *p = reinterpret_cast<__m128i *>(order);
    const __m128i lane = _mm_loadu_si128(p);
    const __m128i iota = stackIota();
    const __m128i last = _mm_set1_epi8(static_cast<char>(n - 1));
    // pos - 1 wraps to -1 for pos 0, and every byte index is > -1.
    const __m128i from = _mm_cmpgt_epi8(
        iota, _mm_set1_epi8(static_cast<char>(pos - 1)));
    const __m128i shift = _mm_and_si128(from, _mm_cmpgt_epi8(last, iota));
    const __m128i moved =
        _mm_blendv_epi8(lane, _mm_srli_si128(lane, 1), shift);
    _mm_storeu_si128(
        p, _mm_blendv_epi8(moved, _mm_set1_epi8(static_cast<char>(way)),
                           _mm_cmpeq_epi8(iota, last)));
}

#endif // SDBP_SIMD_AVX2

namespace detail
{

/** CPUID + SDBP_NO_SIMD, resolved once at static-init time. */
inline bool
computeEnabled()
{
#if SDBP_SIMD_AVX2
    return __builtin_cpu_supports("avx2") &&
           env::u64("SDBP_NO_SIMD", 0, 0, 1) == 0;
#else
    return false;
#endif
}

/** Mutable so tests and bench variants can flip paths in-process. */
inline bool g_enabled = computeEnabled();

} // namespace detail

/** True when the AVX2 kernels are compiled in and selected. */
inline bool enabled() { return detail::g_enabled; }

/**
 * Force the scalar (false) or vector (true) path; returns the
 * previous setting.  Requesting true is ignored when AVX2 is
 * unavailable (compiled out, unsupported CPU, or SDBP_NO_SIMD=1
 * resolved at startup — the env knob wins so a NO_SIMD run can never
 * silently re-enable vectors).
 */
inline bool
setEnabledForTest(bool on)
{
    const bool prev = detail::g_enabled;
    detail::g_enabled = on && detail::computeEnabled();
    return prev;
}

/** Hit-lookup scan: index of @p key in the tag lane, -1 if absent. */
SDBP_HOT_PATH inline int
findTag(const std::uint64_t *tags, std::uint32_t n, std::uint64_t key)
{
#if SDBP_SIMD_AVX2
    if (detail::g_enabled)
        return findTagAvx2(tags, n, key);
#endif
    return findTagScalar(tags, n, key);
}

/** Stack position of @p way in an order lane of @p n bytes. */
SDBP_HOT_PATH inline std::uint32_t
stackFind(const std::uint8_t *order, std::uint32_t n, std::uint32_t way)
{
#if SDBP_SIMD_AVX2
    if (detail::g_enabled && n <= kStackLaneBytes)
        return stackFindVec16(order, n, way);
#endif
    return stackFindScalar(order, n, way);
}

/** Move @p way to the MRU end (position 0) of an order lane. */
SDBP_HOT_PATH inline void
stackPromote(std::uint8_t *order, std::uint32_t n, std::uint32_t way)
{
#if SDBP_SIMD_AVX2
    if (detail::g_enabled && n <= kStackLaneBytes)
        return stackPromoteVec16(order, n, way);
#endif
    stackPromoteScalar(order, n, way);
}

/** Move @p way to the LRU end (position n-1) of an order lane. */
SDBP_HOT_PATH inline void
stackDemote(std::uint8_t *order, std::uint32_t n, std::uint32_t way)
{
#if SDBP_SIMD_AVX2
    if (detail::g_enabled && n <= kStackLaneBytes)
        return stackDemoteVec16(order, n, way);
#endif
    stackDemoteScalar(order, n, way);
}

} // namespace sdbp::simd

#endif // SDBP_UTIL_SIMD_HH
