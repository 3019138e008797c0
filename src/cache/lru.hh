/**
 * @file
 * True-LRU replacement, the paper's baseline policy.
 *
 * The hooks are defined inline: LRU runs on every L1/L2 access, so
 * the devirtualized BasicCache<LruPolicy> instantiation inlines the
 * whole recency update into the access loop.
 *
 * Recency is kept as an explicit stack per set, one byte per
 * position: order_[set * assoc + pos] is the way at stack position
 * pos, 0 = MRU.  The victim is a single load of the last position; a
 * hit or fill promotes the way to position 0 and an LRU insertion
 * demotes it to the last, each a shift of one byte lane that the
 * simd:: stack kernels do in one 16-byte register for sets of up to
 * 16 ways.  That order is what makes LRU the one default policy
 * with a recency order: the DBRB walks wayAt() from the LRU end to
 * find the predicted-dead block closest to LRU
 * (dead_block_policy.hh).
 */

#ifndef SDBP_CACHE_LRU_HH
#define SDBP_CACHE_LRU_HH

#include <cassert>
#include <cstdint>

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
            simd::stackPromote(lane(set), assoc_,
                               static_cast<std::uint32_t>(hit_way));
    }

    SDBP_HOT_PATH std::uint32_t
    victim(std::uint32_t set, SetView frames, const Access &a) override
    {
        (void)frames;
        (void)a;
        return wayAt(set, assoc_ - 1);
    }

    SDBP_HOT_PATH void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        (void)frames;
        (void)a;
        simd::stackPromote(lane(set), assoc_, way);
    }

    std::string name() const override { return "lru"; }

    /** The way at stack position @p pos (0 = MRU). */
    SDBP_HOT_PATH std::uint32_t
    wayAt(std::uint32_t set, std::uint32_t pos) const
    {
        return order_[set * assoc_ + pos];
    }

    /** Current stack position of a way (0 = MRU). */
    SDBP_HOT_PATH std::uint32_t
    stackPosition(std::uint32_t set, std::uint32_t way) const
    {
        return simd::stackFind(&order_[set * assoc_], assoc_, way);
    }

    /**
     * Move a way to the MRU (@p target_pos 0) or the LRU (@p
     * target_pos assoc-1) end of the stack; used by the
     * insertion-policy variants (LIP/BIP) that install at LRU.
     */
    SDBP_HOT_PATH void
    moveTo(std::uint32_t set, std::uint32_t way, std::uint32_t target_pos)
    {
        assert(target_pos == 0 || target_pos == assoc_ - 1);
        if (target_pos == 0)
            simd::stackPromote(lane(set), assoc_, way);
        else
            simd::stackDemote(lane(set), assoc_, way);
    }

    /**
     * Pull the set's order lane into the host cache ahead of an
     * upcoming access (read hint; no state change).
     */
    SDBP_HOT_PATH SDBP_ALWAYS_INLINE void
    prefetchSet(std::uint32_t set) const
    {
        __builtin_prefetch(&order_[set * assoc_], 0, 3);
    }

  private:
    std::uint8_t *lane(std::uint32_t set) { return &order_[set * assoc_]; }

    /**
     * order_[set * assoc + pos]: the way at stack position pos, 0 =
     * MRU; simd::kStackLaneBytes of padding follow the last set so
     * the vector kernels' 16-byte loads and stores stay inside.
     */
    ArenaVector<std::uint8_t> order_;
};

} // namespace sdbp

#endif // SDBP_CACHE_LRU_HH
