/**
 * @file
 * The dead-block replacement and bypass (DBRB) policy of Sec. V:
 * wraps a default policy (LRU or random) and a dead block predictor.
 *
 *  - Victim selection prefers a predicted-dead block, falling back
 *    on the default victim.  Over LRU, the one default policy with
 *    a recency order, that is the dead block closest to LRU, and
 *    only once it has aged into the colder half of the stack (the
 *    recency grace): a walk of LRU's stack from the LRU end down to
 *    position assoc/2.  Over random it is the first dead block.
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
 * kind this way.  Whether the default policy has a recency order is
 * decided from Inner's type, so a DBRB over the ReplacementPolicy
 * interface itself gets no recency grace.
 */

#ifndef SDBP_CACHE_DEAD_BLOCK_POLICY_HH
#define SDBP_CACHE_DEAD_BLOCK_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/policy.hh"
#include "fault/fault_injector.hh"
#include "obs/confusion.hh"
#include "obs/trace_sink.hh"
#include "predictor/dead_block_predictor.hh"
#include "util/hash.hh"
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
    /**
     * Demand misses that count as a bypass false positive: a miss on
     * a block whose latest bypass is at most the bypass-reuse window
     * (in consultations) old, and which has seen no demand miss since
     * that bypass.  A re-bypass restarts the window.
     */
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

    /** Slots of the bypass-reuse table (0 until the first bypass). */
    std::size_t bypassTableSlots() const { return bypassSlots_.size(); }

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

    std::string name() const override;

  protected:
    /**
     * @param inner_base the wrapped policy (owned by the subclass)
     * @param pred_base the wrapped predictor (owned by the subclass)
     */
    DeadBlockPolicyBase(ReplacementPolicy *inner_base,
                        DeadBlockPredictor *pred_base,
                        const DeadBlockPolicyConfig &cfg);

    /** Record a declined fill at the current consultation. */
    SDBP_HOT_PATH void noteBypass(Addr block_addr);
    /** A demand miss: count it if it reuses a recent bypass. */
    SDBP_HOT_PATH void checkBypassReuse(Addr block_addr);

    DeadBlockPolicyConfig cfg_;
    DbrbStats stats_;
    obs::ConfusionMatrix confusion_;
    std::unique_ptr<fault::FaultInjector> faults_;
    obs::TraceSink *trace_ = nullptr;

    /** Prediction computed for the in-flight miss. */
    bool lastPrediction_ = false;
    std::uint64_t bypassWindow_ = 0;

    /** The wrapped components as seen through their interfaces. */
    ReplacementPolicy *innerBase_;
    DeadBlockPredictor *predictorBase_;

  private:
    /** A recently bypassed block and the tick of its latest bypass. */
    struct BypassSlot
    {
        /** SetView::kNoBlock marks an empty slot. */
        Addr block;
        std::uint64_t tick;
    };

    std::size_t
    bypassHome(Addr block_addr) const
    {
        return static_cast<std::size_t>(mix64(block_addr)) &
            bypassMask_;
    }

    void eraseBypassSlot(std::size_t hole);
    /** Sweep out records that can no longer count; grow if needed. */
    [[gnu::noinline]] void makeBypassRoom();
    /** The table's only allocation: first bypass, then growth. */
    [[gnu::noinline]] void growBypassTable();

    /**
     * Recently bypassed blocks (DESIGN.md §12, "Bypass-reuse
     * bookkeeping"): open addressing with linear probing over a
     * power-of-two slot array, empty until the first bypass.
     */
    std::vector<BypassSlot> bypassSlots_;
    std::size_t bypassMask_ = 0;
    /** Occupied slots, records past the window included. */
    std::size_t bypassUsed_ = 0;
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
        const bool dead = predictor_->onAccess(set, hit_way, a);
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
            // Prefer a valid predicted-dead block.  Interval and
            // time-based predictors additionally report blocks that
            // have become dead since their last access (isDeadNow; a
            // constant false for the others once Pred is final).
            int best = -1;
            if constexpr (requires(const Inner &p, std::uint32_t s,
                                   std::uint32_t pos) {
                              p.wayAt(s, pos);
                          }) {
                // A default policy with a recency order (LRU): the
                // dead block closest to LRU, found by walking the
                // stack from its LRU end.  A recency grace period
                // protects against mispredictions: the walk stops at
                // the colder half of the stack, so a freshly touched
                // block whose mark is wrong gets a chance to prove
                // itself, while a genuinely dead block migrates into
                // the cold half within a few fills anyway.
                for (std::uint32_t pos = assoc_;
                     pos > assoc_ / 2 && best < 0; --pos) {
                    const std::uint32_t w = inner_->wayAt(set, pos - 1);
                    if (frames.valid(w) &&
                        (frames.predictedDead(w) ||
                         predictor_->isDeadNow(set, w)))
                        best = static_cast<int>(w);
                }
            } else {
                // No recency order (random): the first dead block,
                // with no grace.
                for (std::uint32_t w = 0; w < assoc_ && best < 0; ++w)
                    if (frames.valid(w) &&
                        (frames.predictedDead(w) ||
                         predictor_->isDeadNow(set, w)))
                        best = static_cast<int>(w);
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
        predictor_->onEvict(set, way, frames.blockAddr(way));
        inner_->onEvict(set, way, frames);
    }

    SDBP_HOT_PATH void
    onFill(std::uint32_t set, std::uint32_t way, SetView frames,
           const Access &a) override
    {
        if (!a.isWriteback) {
            predictor_->onFill(set, way, a);
            // With bypass disabled a dead-on-arrival block is
            // installed but marked so it is the next preferred
            // victim.
            frames.setPredictedDead(way, lastPrediction_);
        }
        inner_->onFill(set, way, frames, a);
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

} // namespace sdbp

#endif // SDBP_CACHE_DEAD_BLOCK_POLICY_HH
