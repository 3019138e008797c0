/**
 * @file
 * True-LRU replacement, the paper's baseline policy.
 *
 * The hooks are defined inline: LRU runs on every L1/L2 access, so
 * the devirtualized BasicCache<LruPolicy> instantiation inlines the
 * whole recency update into the access loop.
 *
 * Recency is kept as per-frame timestamps drawn from two per-set
 * clocks (one counting up for MRU insertions, one counting down for
 * LRU insertions), so the hot hooks — hit promotion and fill — are a
 * single store instead of an O(assoc) stack shift.  Stamps within a
 * set are always distinct, so the induced order is a total recency
 * order identical to an explicit-position LRU stack; the stack view
 * (stackPosition / victim) is recovered by comparing stamps.  That
 * order is what makes LRU the one default policy with a recency
 * order: the DBRB reads stamp() and stackPosition() to find the
 * predicted-dead block closest to LRU (dead_block_policy.hh).
 */

#ifndef SDBP_CACHE_LRU_HH
#define SDBP_CACHE_LRU_HH

#include <cstdint>
#include <vector>

#include "cache/policy.hh"
#include "util/arena.hh"
#include "util/hotpath.hh"
#include "util/simd.hh"

namespace sdbp
{

/**
 * True LRU: stack position 0 is MRU, assoc-1 is LRU.
 */
class LruPolicy final : public ReplacementPolicy
{
  public:
    LruPolicy(std::uint32_t num_sets, std::uint32_t assoc);

    SDBP_HOT_PATH void
    onAccess(std::uint32_t set, int hit_way, SetView frames,
             const Access &a) override
    {
        (void)frames;
        (void)a;
        if (hit_way >= 0)
            stamp_[set * assoc_ + static_cast<std::uint32_t>(hit_way)] =
                ++high_[set];
    }

    SDBP_HOT_PATH std::uint32_t
    victim(std::uint32_t set, SetView frames, const Access &a) override
    {
        (void)frames;
        (void)a;
        // SIMD min-reduce over the stamp lane; first-minimum
        // semantics match the scalar strict-< walk exactly.
        return simd::minStampIndex(&stamp_[set * assoc_], assoc_);
    }

    SDBP_HOT_PATH void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        (void)frames;
        (void)a;
        stamp_[set * assoc_ + way] = ++high_[set];
    }

    std::string name() const override { return "lru"; }

    /**
     * Recency stamp of a way: larger = more recently used, distinct
     * within a set.
     */
    SDBP_HOT_PATH std::int64_t
    stamp(std::uint32_t set, std::uint32_t way) const
    {
        return stamp_[set * assoc_ + way];
    }

    /** Current stack position of a way (0 = MRU). */
    SDBP_HOT_PATH std::uint32_t
    stackPosition(std::uint32_t set, std::uint32_t way) const
    {
        const auto *base = &stamp_[set * assoc_];
        const std::int64_t mine = base[way];
        std::uint32_t r = 0;
        for (std::uint32_t w = 0; w < assoc_; ++w)
            r += base[w] > mine;
        return r;
    }

    /**
     * Move a way to the MRU (@p target_pos 0) or the LRU (@p
     * target_pos assoc-1) end of the stack, in O(1); used by the
     * insertion-policy variants (LIP/BIP) that install at LRU.
     */
    void moveTo(std::uint32_t set, std::uint32_t way,
                std::uint32_t target_pos);

    /**
     * Pull the set's stamp lane into the host cache ahead of an
     * upcoming access (read hint; no state change).
     */
    SDBP_HOT_PATH SDBP_ALWAYS_INLINE void
    prefetchSet(std::uint32_t set) const
    {
        __builtin_prefetch(&stamp_[set * assoc_], 0, 3);
    }

  private:
    /** stamp_[set * assoc + way]: larger = more recently used. */
    ArenaVector<std::int64_t> stamp_;
    /** Per-set MRU clock (counts up). */
    ArenaVector<std::int64_t> high_;
    /** Per-set LRU clock (counts down). */
    ArenaVector<std::int64_t> low_;
};

} // namespace sdbp

#endif // SDBP_CACHE_LRU_HH
