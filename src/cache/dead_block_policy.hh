/**
 * @file
 * The dead-block replacement and bypass (DBRB) policy of Sec. V:
 * wraps a default policy (LRU or random) and a dead block predictor.
 *
 *  - Victim selection prefers a predicted-dead block (the one
 *    closest to eviction by the default policy's ranking), falling
 *    back on the default victim.
 *  - A block predicted dead on arrival bypasses the cache.
 *  - Every demand access re-predicts and stores the single
 *    predicted-dead metadata bit in the block.
 *
 * The class splits into DeadBlockPolicyBase (stats, configuration,
 * fault injection, everything the runner and tools touch through the
 * virtual interface) and BasicDeadBlockPolicy<Inner, Pred>, which
 * binds the wrapped policy and predictor types at compile time so
 * the whole onAccess -> predictor -> inner chain runs without a
 * virtual dispatch (DESIGN.md §12).  The factory builds every DBRB
 * kind this way.  `DeadBlockPolicy` is the fully type-erased alias,
 * for components known only through their virtual interfaces.
 */

#ifndef SDBP_CACHE_DEAD_BLOCK_POLICY_HH
#define SDBP_CACHE_DEAD_BLOCK_POLICY_HH

#include <algorithm>
#include <cassert>
#include <memory>
#include <unordered_map>

#include "cache/policy.hh"
#include "fault/fault_injector.hh"
#include "obs/confusion.hh"
#include "obs/trace_sink.hh"
#include "predictor/dead_block_predictor.hh"
#include "util/hotpath.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

/** Accuracy/coverage accounting for Fig. 9. */
struct DbrbStats
{
    /** Predictor consultations (demand LLC accesses). */
    std::uint64_t predictions = 0;
    /** Consultations that predicted dead. */
    std::uint64_t positives = 0;
    /** Demand hits on blocks whose predicted-dead bit was set. */
    std::uint64_t falsePositiveHits = 0;
    /** Demand misses on recently bypassed blocks. */
    std::uint64_t bypassReuses = 0;
    /** Victims chosen because they were predicted dead. */
    std::uint64_t deadEvictions = 0;
    /** Fills declined. */
    std::uint64_t bypasses = 0;

    /** Fraction of accesses predicted dead (paper's "coverage"). */
    double coverage() const;
    /** Fraction of accesses with a wrong dead prediction. */
    double falsePositiveRate() const;
};

struct DeadBlockPolicyConfig
{
    bool enableBypass = true;
    /** Prefer predicted-dead victims over the default victim. */
    bool enableDeadReplacement = true;
    /**
     * Window (in predictor consultations) within which a re-access
     * to a bypassed block counts as a bypass false positive.
     */
    std::uint64_t bypassReuseWindow = 0; // 0 = numSets * assoc
    /**
     * Soft-error injection into the wrapped predictor's state
     * (DESIGN.md §11); rate 0 builds no injector at all.
     */
    fault::FaultInjectorConfig fault;
};

/**
 * Type-erased face of every DBRB instantiation: stats access,
 * registration, tracing and fault accounting.  The runner, sweeps
 * and tools hold a DeadBlockPolicyBase*; the access hooks live in
 * the typed subclass.
 */
class DeadBlockPolicyBase : public ReplacementPolicy
{
  public:
    const DbrbStats &dbrbStats() const { return stats_; }
    const obs::ConfusionMatrix &confusion() const { return confusion_; }
    DeadBlockPredictor &predictor() { return *predictorBase_; }
    const DeadBlockPredictor &predictor() const
    {
        return *predictorBase_;
    }
    ReplacementPolicy &inner() { return *innerBase_; }

    const DeadBlockPolicyConfig &config() const { return cfg_; }

    /**
     * Register the DBRB counters under "<prefix>.*", the confusion
     * matrix under "<prefix>.confusion.*" and the wrapped predictor's
     * stats under "<prefix>.pred.*".
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

    /**
     * Attach an event-trace sink (nullptr detaches).  Records one
     * Prediction event per predictor consultation, keyed by the
     * consultation index (the policy has no notion of time).
     */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    /** The fault injector, or nullptr when injection is disabled. */
    const fault::FaultInjector *faultInjector() const
    {
        return faults_.get();
    }

    SDBP_HOT_PATH std::uint32_t
    rank(std::uint32_t set, std::uint32_t way) const override
    {
        return innerBase_->rank(set, way);
    }

    std::string name() const override;

  protected:
    /**
     * @param inner_base the wrapped policy (owned by the subclass)
     * @param pred_base the wrapped predictor (owned by the subclass)
     */
    DeadBlockPolicyBase(ReplacementPolicy *inner_base,
                        DeadBlockPredictor *pred_base,
                        const DeadBlockPolicyConfig &cfg);

    void noteBypass(Addr block_addr);
    void checkBypassReuse(Addr block_addr);

    DeadBlockPolicyConfig cfg_;
    DbrbStats stats_;
    obs::ConfusionMatrix confusion_;
    std::unique_ptr<fault::FaultInjector> faults_;
    obs::TraceSink *trace_ = nullptr;

    /** Prediction computed for the in-flight miss. */
    bool lastPrediction_ = false;
    /** Recently bypassed blocks -> consultation tick. */
    std::unordered_map<Addr, std::uint64_t> recentBypasses_;
    std::uint64_t bypassWindow_ = 0;

    /** The wrapped components as seen through their interfaces. */
    ReplacementPolicy *innerBase_;
    DeadBlockPredictor *predictorBase_;
    /** Hoisted livenessProbe() capability (nullptr for most). */
    const LivenessProbe *liveness_;
};

/**
 * DBRB with the wrapped policy and predictor types bound at compile
 * time.  With final Inner/Pred classes every hook below devirtualizes
 * into direct calls; with the interface types it is the plain
 * virtual chain.
 */
template <class Inner, class Pred>
class BasicDeadBlockPolicy final : public DeadBlockPolicyBase
{
  public:
    /**
     * @param inner the default replacement policy (LRU or random)
     * @param predictor the dead block predictor to consult
     */
    BasicDeadBlockPolicy(std::unique_ptr<Inner> inner,
                         std::unique_ptr<Pred> predictor,
                         const DeadBlockPolicyConfig &cfg = {})
        : DeadBlockPolicyBase(inner.get(), predictor.get(), cfg),
          inner_(std::move(inner)), predictor_(std::move(predictor))
    {
    }

    Inner &typedInner() { return *inner_; }
    Pred &typedPredictor() { return *predictor_; }

    SDBP_HOT_PATH void
    onAccess(std::uint32_t set, int hit_way, SetView frames,
             const Access &a) override
    {
        if (a.isWriteback) {
            // Writebacks update recency but never touch the
            // predictor.
            inner_->onAccess(set, hit_way, frames, a);
            lastPrediction_ = false;
            return;
        }

        ++stats_.predictions;
        // One injector tick per consultation — the rate is defined
        // in faults per million consultations, and tying the draw to
        // this (scheduling-independent) event keeps sweeps
        // deterministic across SDBP_JOBS values.
        if (faults_)
            faults_->onAccess();
        const bool dead = predictor_->onAccess(set, a);
        if (dead)
            ++stats_.positives;
        // The policy has no notion of time, so Prediction events are
        // keyed by the consultation index.
        SDBP_TRACE_EVENT(trace_, stats_.predictions,
                         obs::TraceEventKind::Prediction, set,
                         a.blockAddr(), a.pc, dead);

        if (hit_way >= 0) {
            const auto way = static_cast<std::uint32_t>(hit_way);
            // A demand hit proves the block was live; classify the
            // prediction bit it was carrying before re-predicting.
            if (frames.predictedDead(way)) {
                ++stats_.falsePositiveHits;
                ++confusion_.deadHit;
            } else {
                ++confusion_.liveHit;
            }
            frames.setPredictedDead(way, dead);
        } else {
            lastPrediction_ = dead;
            checkBypassReuse(a.blockAddr());
        }
        inner_->onAccess(set, hit_way, frames, a);
    }

    SDBP_HOT_PATH bool
    shouldBypass(std::uint32_t set, const Access &a) override
    {
        (void)set;
        if (a.isWriteback || !cfg_.enableBypass || !lastPrediction_)
            return false;
        ++stats_.bypasses;
        noteBypass(a.blockAddr());
        return true;
    }

    SDBP_HOT_PATH std::uint32_t
    victim(std::uint32_t set, SetView frames, const Access &a) override
    {
        if (cfg_.enableDeadReplacement) {
            // Pick the predicted-dead block closest to eviction by
            // the default policy's own ranking.  Interval/time-based
            // predictors additionally report blocks that have become
            // dead since their last access.
            //
            // A recency grace period protects against
            // mispredictions: when the default policy exposes a
            // meaningful recency ranking (LRU and friends), only
            // dead-marked blocks in the colder half of the stack are
            // preferred — a freshly touched block whose mark is
            // wrong gets a chance to prove itself, while a genuinely
            // dead block migrates into the cold half within a few
            // fills anyway.  Rank-less defaults (random) keep the
            // unconditional preference.
            std::uint32_t max_rank = 0;
            for (std::uint32_t w = 0; w < assoc_; ++w)
                max_rank = std::max(max_rank, inner_->rank(set, w));
            const std::uint32_t grace =
                max_rank >= assoc_ / 2 ? assoc_ / 2 : 0;
            int best = -1;
            std::uint32_t best_rank = 0;
            for (std::uint32_t w = 0; w < assoc_; ++w) {
                if (!frames.valid(w))
                    continue;
                const bool dead = frames.predictedDead(w) ||
                    (liveness_ &&
                     liveness_->isDeadNow(set, frames.blockAddr(w)));
                if (!dead)
                    continue;
                const std::uint32_t r = inner_->rank(set, w);
                if (r < grace)
                    continue;
                if (best < 0 || r > best_rank) {
                    best = static_cast<int>(w);
                    best_rank = r;
                }
            }
            if (best >= 0) {
                ++stats_.deadEvictions;
                return static_cast<std::uint32_t>(best);
            }
        }
        return inner_->victim(set, frames, a);
    }

    SDBP_HOT_PATH void
    onEvict(std::uint32_t set, std::uint32_t way,
            SetView frames) override
    {
        // Eviction without reuse proves the block was dead.
        if (frames.predictedDead(way))
            ++confusion_.deadEvicted;
        else
            ++confusion_.liveEvicted;
        predictor_->onEvict(set,
                            Access::atBlock(frames.blockAddr(way)));
        inner_->onEvict(set, way, frames);
    }

    SDBP_HOT_PATH void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        if (!a.isWriteback) {
            predictor_->onFill(set, a);
            // With bypass disabled a dead-on-arrival block is
            // installed but marked so it is the next preferred
            // victim.
            frames.setPredictedDead(way, lastPrediction_);
        }
        inner_->onFill(set, way, frames, a);
    }

    SDBP_HOT_PATH std::uint32_t
    rank(std::uint32_t set, std::uint32_t way) const override
    {
        return inner_->rank(set, way);
    }

    /** Forward the set-lane prefetch hint to the wrapped policy. */
    SDBP_HOT_PATH SDBP_ALWAYS_INLINE void
    prefetchSet(std::uint32_t set) const
    {
        if constexpr (requires(const Inner &p, std::uint32_t s) {
                          p.prefetchSet(s);
                      })
            inner_->prefetchSet(set);
    }

  private:
    std::unique_ptr<Inner> inner_;
    std::unique_ptr<Pred> predictor_;
};

/** The type-erased DBRB: virtual inner/predictor dispatch, for
 *  user-supplied components. */
using DeadBlockPolicy =
    BasicDeadBlockPolicy<ReplacementPolicy, DeadBlockPredictor>;

} // namespace sdbp

#endif // SDBP_CACHE_DEAD_BLOCK_POLICY_HH
