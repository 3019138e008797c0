/**
 * @file
 * Soft-error fault injection for predictor state (DESIGN.md §11).
 *
 * The paper's central safety argument is that dead-block predictions
 * are *hints*: a corrupted predictor can cost performance (extra
 * misses, bad bypasses) but never correctness.  This subsystem makes
 * that claim testable.  Components expose their SRAM-like state as
 * FaultTargets — named bit regions with a flip callback — and a
 * seeded FaultInjector flips uniformly chosen bits at a configured
 * rate (expected faults per million predictor consultations).
 *
 * Determinism contract: the injector draws from its own
 * xoshiro-based Rng, seeded from the config, and is ticked exactly
 * once per predictor consultation, so a (seed, rate) pair produces
 * the identical fault sequence on every run and for any SDBP_JOBS
 * value (each sweep cell owns its own injector).
 *
 * Fault model boundary: targets flip bits only *within the
 * configured width* of each field (a 2-bit counter's two bits, a
 * 15-bit tag's fifteen bits), and structurally-encoded state (the
 * sampler LRU stack) re-decodes the corrupted value into a valid
 * ordering — exactly as hardware recency logic decodes any raw bit
 * pattern.  auditInvariants() therefore holds at every fault rate;
 * only prediction quality degrades.
 */

#ifndef SDBP_FAULT_FAULT_INJECTOR_HH
#define SDBP_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

namespace fault
{

/**
 * One faultable region of predictor state: @p words entries of
 * @p bitsPerWord faultable bits each.  flip(word, bit) must XOR the
 * addressed bit (or apply the structural equivalent) while keeping
 * the component's invariants intact.
 */
struct FaultTarget
{
    std::string name;
    std::uint64_t words = 0;
    unsigned bitsPerWord = 0;
    std::function<void(std::uint64_t word, unsigned bit)> flip;
};

struct FaultInjectorConfig
{
    /**
     * Expected bit flips per million predictor consultations across
     * the whole registered fault surface; 0 disables injection.
     * Capped at 1'000'000 (one fault per consultation).
     */
    std::uint64_t faultsPerMillion = 0;
    /** Seed of the injector's private deterministic Rng. */
    std::uint64_t seed = 0x50f7e44dULL;

    bool enabled() const { return faultsPerMillion > 0; }
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultInjectorConfig &cfg);

    /**
     * Register a faultable region.  All targets must be registered
     * before the first onAccess()/registerStats() call (the injector
     * freezes its bit map on first use and panics on late adds).
     */
    void addTarget(FaultTarget target);

    /**
     * One predictor consultation: with probability
     * faultsPerMillion/1e6, flip one uniformly chosen bit of the
     * registered fault surface.
     */
    void
    onAccess()
    {
        if (!cfg_.enabled())
            return;
        if (!frozen_)
            freeze();
        if (totalBits_ == 0)
            return;
        if (rng_.chance(cfg_.faultsPerMillion, 1'000'000))
            injectOne();
    }

    /** Bits across all registered targets. */
    std::uint64_t totalBits() const { return totalBits_; }
    /** Total faults injected so far. */
    std::uint64_t injected() const { return injected_; }
    /** Faults injected into the named target; 0 for unknown names. */
    std::uint64_t injectedInto(const std::string &name) const;

    std::size_t targetCount() const { return targets_.size(); }
    const FaultTarget &target(std::size_t i) const
    {
        return targets_[i];
    }

    const FaultInjectorConfig &config() const { return cfg_; }

    /**
     * Register "<prefix>.injected", "<prefix>.surface_bits" and one
     * "<prefix>.<target>" counter per target.  Freezes the target
     * set.
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix);

  private:
    /** Out of line for the same reason as injectOne: its one-time
     *  snapshot allocations stay in this one cold symbol. */
    [[gnu::noinline]] void freeze();
    /** Kept out of line so its std::function call stays in this one
     *  cold symbol rather than in every DBRB wrapper's onAccess. */
    [[gnu::noinline]] void injectOne();

    FaultInjectorConfig cfg_;
    Rng rng_;
    bool frozen_ = false;
    std::uint64_t totalBits_ = 0;
    std::uint64_t injected_ = 0;
    std::vector<FaultTarget> targets_;
    /** Exclusive prefix sums of per-target bit counts. */
    std::vector<std::uint64_t> firstBit_;
    /** Per-target injection counters (index-parallel to targets_;
     *  stable addresses after freeze, as the registry requires). */
    std::vector<std::uint64_t> perTarget_;
};

} // namespace fault
} // namespace sdbp

#endif // SDBP_FAULT_FAULT_INJECTOR_HH
