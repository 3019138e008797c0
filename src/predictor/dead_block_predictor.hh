/**
 * @file
 * Common interface of all dead block predictors (the paper's
 * sampling predictor plus the reftrace and counting baselines).
 */

#ifndef SDBP_PREDICTOR_DEAD_BLOCK_PREDICTOR_HH
#define SDBP_PREDICTOR_DEAD_BLOCK_PREDICTOR_HH

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "trace/access.hh"
#include "util/arena.hh"
#include "util/hotpath.hh"
#include "util/types.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

namespace fault
{
class FaultInjector;
} // namespace fault

/**
 * Per-frame predictor metadata, keyed by set * assoc + way: the state
 * a hardware predictor keeps beside each block (Table I).  A slot
 * holds metadata from the predictor's onFill of the frame until its
 * onEvict, so find() answers nullptr on a miss and for a frame the
 * predictor never saw filled (one installed by a writeback
 * BasicCache::fill).  Arena-backed under the engine's ArenaScope
 * (DESIGN.md §12, §15).
 */
template <class T>
class FrameLane
{
  public:
    /** No lane: a predictor without per-block state. */
    FrameLane() = default;
    FrameLane(std::uint32_t num_sets, std::uint32_t assoc)
        : assoc_(assoc), slots_(std::size_t{num_sets} * assoc)
    {
    }

    /** Frame (set, way)'s metadata; nullptr when it has none (and for
     *  way -1, a miss). */
    SDBP_HOT_PATH T *
    find(std::uint32_t set, int way)
    {
        if (way < 0)
            return nullptr;
        std::optional<T> &s = slot(set, static_cast<std::uint32_t>(way));
        return s ? &*s : nullptr;
    }

    SDBP_HOT_PATH const T *
    find(std::uint32_t set, int way) const
    {
        return const_cast<FrameLane *>(this)->find(set, way);
    }

    /** Start a generation in frame (set, way). */
    SDBP_HOT_PATH void
    fill(std::uint32_t set, std::uint32_t way, const T &meta)
    {
        slot(set, way) = meta;
    }

    /** End the generation in frame (set, way): its metadata, if any. */
    SDBP_HOT_PATH std::optional<T>
    take(std::uint32_t set, std::uint32_t way)
    {
        return std::exchange(slot(set, way), std::nullopt);
    }

  private:
    SDBP_HOT_PATH std::optional<T> &
    slot(std::uint32_t set, std::uint32_t way)
    {
        assert(way < assoc_);
        return slots_[std::size_t{set} * assoc_ + way];
    }

    std::uint32_t assoc_ = 0;
    ArenaVector<std::optional<T>> slots_;
};

/**
 * A dead block predictor, as driven by the dead-block replacement
 * and bypass policy (Sec. V).
 *
 * The LLC consults the predictor on every demand access; predictors
 * that keep per-block metadata additionally receive fill and evict
 * notifications.  Every hook names the LLC frame, so that metadata
 * lives in a FrameLane.  Writebacks never reach the predictor.  Like
 * a ReplacementPolicy, a predictor is built for one LLC geometry: its
 * constructor takes (num_sets, assoc, cfg), cfg.llcSets == num_sets.
 */
class DeadBlockPredictor
{
  public:
    virtual ~DeadBlockPredictor() = default;

    /**
     * A demand access to LLC set @p set that hit in way @p hit_way,
     * or missed (@p hit_way = -1).  The predictor reads the block
     * address, PC and thread from @p a.
     *
     * @return true if the block is predicted dead *after* this
     *         access; on a miss this doubles as the dead-on-arrival
     *         (bypass) prediction.
     */
    virtual bool onAccess(std::uint32_t set, int hit_way,
                          const Access &a) = 0;

    /** The LLC installed the block in (set, way) (not called when
     *  bypassed). */
    virtual void onFill(std::uint32_t /*set*/, std::uint32_t /*way*/,
                        const Access & /*a*/)
    {
    }

    /** The LLC evicted or invalidated @p block_addr from (set, way). */
    virtual void onEvict(std::uint32_t /*set*/, std::uint32_t /*way*/,
                         Addr /*block_addr*/)
    {
    }

    /**
     * True when the resident block in (set, way) has become dead since
     * its last access: interval- and time-based predictors (AIP,
     * IATAC); the DBRB asks during victim selection.  PC-trace
     * predictors know deadness only at access time: false.
     */
    SDBP_HOT_PATH virtual bool
    isDeadNow(std::uint32_t /*set*/, std::uint32_t /*way*/) const
    {
        return false;
    }

    virtual std::string name() const = 0;

    /** Bits of state held in predictor-side structures (Table I). */
    virtual std::uint64_t storageBits() const = 0;

    /** Extra metadata bits required per LLC block (Table I). */
    virtual std::uint64_t metadataBitsPerBlock() const = 0;

    /**
     * Register predictor stats under @p prefix.  The default
     * registers the Table I storage budget as gauges; predictors
     * with event counters (the sampling predictor) extend it.
     */
    virtual void registerStats(obs::StatRegistry &reg,
                               const std::string &prefix) const;

    /**
     * Expose this predictor's SRAM-like state to a soft-error fault
     * injector (DESIGN.md §11).  The default registers nothing — a
     * predictor without fault targets simply cannot be perturbed.
     * Implementations must keep every flip within the component's
     * audited invariants (flip only configured-width bits; re-decode
     * structural state).
     */
    virtual void
    registerFaultTargets(fault::FaultInjector &injector)
    {
        (void)injector;
    }

    /**
     * Panic (via SDBP_DCHECK) if internal invariants drifted; the
     * runner calls this after every run when DCHECKs are on, so
     * fault-injected runs prove the perturbation stayed inside the
     * hints-only boundary.  Default: nothing to audit.
     */
    virtual void auditInvariants() const {}
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_DEAD_BLOCK_PREDICTOR_HH
