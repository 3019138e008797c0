/**
 * @file
 * Replacement policy interface.
 *
 * The cache drives policies through five hooks:
 *
 *   onAccess -> (miss) shouldBypass -> victim -> onEvict -> onFill
 *
 * onAccess fires on every access (hit or miss) so recency state and
 * dead block predictors see the full reference stream; the remaining
 * hooks fire only on the fill path.
 *
 * Hooks receive the unified Access record plus a SetView: a zero-copy
 * window onto the cache's structure-of-arrays hot lanes for the set
 * being touched (tags + packed valid/dirty/predicted-dead state).
 * Policies read frame state and flip the predicted-dead bit through
 * the view; they never see the cache's cold lanes (owner, tick
 * accounting).
 *
 * The interface exposes no eviction order.  The DBRB's "dead block
 * closest to LRU" (Sec. II-A4) reads recency from the concrete
 * default policy type at compile time; LruPolicy is the only default
 * policy with a recency order (dead_block_policy.hh).
 */

#ifndef SDBP_CACHE_POLICY_HH
#define SDBP_CACHE_POLICY_HH

#include <cstdint>
#include <string>

#include "trace/access.hh"
#include "util/types.hh"

namespace sdbp
{

/**
 * Mutable window onto the hot lanes of one cache set.
 *
 * The tag lane doubles as the valid encoding: an invalid frame holds
 * SetView::kNoBlock, so a set probe is a single contiguous scan of
 * assoc() tags.  The state lane packs the dirty and predicted-dead
 * bits (plus a redundant valid bit kept in sync with the tag
 * sentinel; auditInvariants checks the pairing).
 */
class SetView
{
  public:
    /** Tag of an invalid frame. */
    static constexpr Addr kNoBlock = ~Addr(0);

    /** State-lane bits. */
    static constexpr std::uint8_t kValid = 1u << 0;
    static constexpr std::uint8_t kDirty = 1u << 1;
    static constexpr std::uint8_t kDead = 1u << 2;

    SetView(Addr *tags, std::uint8_t *state, std::uint32_t assoc)
        : tags_(tags), state_(state), assoc_(assoc)
    {
    }

    std::uint32_t assoc() const { return assoc_; }

    /** Block address of frame @p way (kNoBlock when invalid). */
    Addr blockAddr(std::uint32_t way) const { return tags_[way]; }

    bool valid(std::uint32_t way) const
    {
        return (state_[way] & kValid) != 0;
    }

    bool dirty(std::uint32_t way) const
    {
        return (state_[way] & kDirty) != 0;
    }

    /** The one bit of dead-block metadata per frame (Sec. III-C). */
    bool predictedDead(std::uint32_t way) const
    {
        return (state_[way] & kDead) != 0;
    }

    void
    setPredictedDead(std::uint32_t way, bool dead)
    {
        if (dead)
            state_[way] = static_cast<std::uint8_t>(state_[way] | kDead);
        else
            state_[way] =
                static_cast<std::uint8_t>(state_[way] & ~kDead);
    }

  private:
    Addr *tags_;
    std::uint8_t *state_;
    std::uint32_t assoc_;
};

/**
 * Abstract replacement (and bypass) policy for a set-associative
 * cache.
 *
 * This virtual interface is the extension point and the slow-path
 * fallback; the common policy stacks are also instantiated as sealed
 * compile-time compositions by sim/engine (DESIGN.md §12), which
 * calls the same hooks without the vtable.
 */
class ReplacementPolicy
{
  public:
    /**
     * @param num_sets number of sets of the cache this policy manages
     * @param assoc associativity
     */
    ReplacementPolicy(std::uint32_t num_sets, std::uint32_t assoc)
        : numSets_(num_sets), assoc_(assoc)
    {
    }

    virtual ~ReplacementPolicy() = default;

    /**
     * Called on every access.
     *
     * @param set the set index
     * @param hit_way way that hit, or -1 on a miss
     * @param frames hot-lane view of the set (mutable, e.g. to set
     *        the predicted-dead bit of the hit frame)
     */
    virtual void onAccess(std::uint32_t set, int hit_way,
                          SetView frames, const Access &a) = 0;

    /**
     * After a miss: should the incoming block bypass the cache?
     * Policies without bypass keep the default.
     */
    virtual bool
    shouldBypass(std::uint32_t set, const Access &a)
    {
        (void)set;
        (void)a;
        return false;
    }

    /**
     * Choose a victim in a full set.  May mutate policy state (e.g.
     * RRIP aging).
     */
    virtual std::uint32_t victim(std::uint32_t set, SetView frames,
                                 const Access &a) = 0;

    /** A valid block is being removed from frame (set, way). */
    virtual void
    onEvict(std::uint32_t set, std::uint32_t way, SetView frames)
    {
        (void)set;
        (void)way;
        (void)frames;
    }

    /** A new block was just installed in (set, way). */
    virtual void onFill(std::uint32_t set, std::uint32_t way,
                        SetView frames, const Access &a) = 0;

    virtual std::string name() const = 0;

    std::uint32_t numSets() const { return numSets_; }
    std::uint32_t assoc() const { return assoc_; }

  protected:
    std::uint32_t numSets_;
    std::uint32_t assoc_;
};

} // namespace sdbp

#endif // SDBP_CACHE_POLICY_HH
