/**
 * @file
 * Reference model of the DBRB's bypass-reuse count
 * (DbrbStats::bypassReuses) for differential tests.
 *
 * The model is the plain definition, kept in a std::unordered_map:
 * a bypass records the block with the current consultation tick; a
 * demand miss on a recorded block counts iff the record is at most
 * `window` consultations old, and drops the record either way.  A
 * re-bypass overwrites the tick.  Nothing is ever swept: dropping a
 * record that is already older than the window cannot change a
 * later count.
 *
 * ModelCheckedPolicy wraps a real DBRB policy, forwards every hook
 * to it unchanged and replays the same events into the model, so a
 * cache or a whole System built over it simulates exactly what the
 * bare policy would.
 */

#ifndef SDBP_TESTS_BYPASS_REUSE_MODEL_HH
#define SDBP_TESTS_BYPASS_REUSE_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "cache/dead_block_policy.hh"

namespace sdbp
{

class BypassReuseModel
{
  public:
    explicit BypassReuseModel(std::uint64_t window) : window_(window) {}

    /** One predictor consultation (a demand LLC access). */
    void consult() { ++tick_; }

    /** A demand miss on @p block, after its consultation. */
    void
    miss(Addr block)
    {
        const auto it = bypassed_.find(block);
        if (it == bypassed_.end())
            return;
        if (tick_ - it->second <= window_)
            ++reuses_;
        else
            ++expired_;
        bypassed_.erase(it);
    }

    /** A declined fill of @p block. */
    void bypass(Addr block) { bypassed_[block] = tick_; }

    std::uint64_t reuses() const { return reuses_; }
    /** Misses on a recorded block that fell outside the window. */
    std::uint64_t expired() const { return expired_; }

  private:
    std::uint64_t window_;
    std::uint64_t tick_ = 0;
    std::uint64_t reuses_ = 0;
    std::uint64_t expired_ = 0;
    std::unordered_map<Addr, std::uint64_t> bypassed_;
};

/** A DBRB policy with the reference model riding along. */
class ModelCheckedPolicy final : public ReplacementPolicy
{
  public:
    explicit ModelCheckedPolicy(std::unique_ptr<ReplacementPolicy> dbrb)
        : ReplacementPolicy(dbrb->numSets(), dbrb->assoc()),
          dbrb_(dynamic_cast<DeadBlockPolicyBase &>(*dbrb)),
          owned_(std::move(dbrb)),
          model_(dbrb_.config().bypassReuseWindow
                     ? dbrb_.config().bypassReuseWindow
                     : std::uint64_t(numSets_) * assoc_)
    {
    }

    const DeadBlockPolicyBase &dbrb() const { return dbrb_; }
    const BypassReuseModel &model() const { return model_; }

    void
    onAccess(std::uint32_t set, int hit_way, SetView frames,
             const Access &a) override
    {
        if (!a.isWriteback) {
            model_.consult();
            if (hit_way < 0)
                model_.miss(a.blockAddr());
        }
        owned_->onAccess(set, hit_way, frames, a);
    }

    bool
    shouldBypass(std::uint32_t set, const Access &a) override
    {
        const bool bypass = owned_->shouldBypass(set, a);
        if (bypass)
            model_.bypass(a.blockAddr());
        return bypass;
    }

    std::uint32_t
    victim(std::uint32_t set, SetView frames, const Access &a) override
    {
        return owned_->victim(set, frames, a);
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way, SetView frames) override
    {
        owned_->onEvict(set, way, frames);
    }

    void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        owned_->onFill(set, way, frames, a);
    }

    std::string name() const override { return owned_->name(); }

  private:
    DeadBlockPolicyBase &dbrb_;
    std::unique_ptr<ReplacementPolicy> owned_;
    BypassReuseModel model_;
};

} // namespace sdbp

#endif // SDBP_TESTS_BYPASS_REUSE_MODEL_HH
