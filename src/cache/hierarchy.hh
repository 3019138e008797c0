/**
 * @file
 * Three-level cache hierarchy: per-core L1D and L2, shared LLC —
 * the Nehalem-like configuration of Sec. VI-A.  Non-inclusive,
 * writeback caches; demand misses allocate at every level, while
 * writebacks update a present copy or forward down a level
 * (no-write-allocate), keeping content purely demand-driven.
 *
 * Split into HierarchyBase (geometry, stats, trace recording — the
 * type-erased face the runner and tools hold) and
 * BasicHierarchy<LlcP>, which binds the LLC policy type at compile
 * time.  The private L1/L2 levels are always true LRU in every
 * configuration, so they are hard-bound to BasicCache<LruPolicy> in
 * ALL instantiations — the whole per-access walk devirtualizes.
 * `Hierarchy` is the type-erased alias (virtual LLC policy dispatch).
 */

#ifndef SDBP_CACHE_HIERARCHY_HH
#define SDBP_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/lru.hh"
#include "cache/prefetcher.hh"
#include "trace/access.hh"
#include "util/hotpath.hh"

namespace sdbp
{

struct HierarchyConfig
{
    CacheConfig l1{.name = "L1D", .numSets = 64, .assoc = 8,
                   .latency = 3};
    CacheConfig l2{.name = "L2", .numSets = 512, .assoc = 8,
                   .latency = 12};
    CacheConfig llc{.name = "LLC", .numSets = 2048, .assoc = 16,
                    .latency = 30};
    /** DRAM access latency in cycles. */
    Cycle memLatency = 200;
    /**
     * Minimum cycles between successive DRAM accesses (shared
     * memory-bandwidth model; 0 = unlimited bandwidth).  Queueing
     * behind this bound is what makes shared-cache miss reductions
     * pay off superlinearly in multi-core runs, as on real machines.
     */
    Cycle memServiceInterval = 12;
    std::uint32_t numCores = 1;
    /** Optional LLC prefetcher (degree 0 = off). */
    PrefetcherConfig prefetch;
};

/** Reference to one LLC demand access, recorded for the optimal
 *  policy replay (Sec. VI-B). */
struct LlcRef
{
    Addr blockAddr;
    PC pc;
    ThreadId thread;
    bool isWrite;
};

/** Where an access was finally serviced. */
enum class ServiceLevel { L1, L2, Llc, Memory };

struct HierarchyResult
{
    Cycle latency = 0;
    ServiceLevel level = ServiceLevel::L1;
    bool llcAccess = false;
    bool llcMiss = false;
};

/**
 * LLC-policy-type-erased part of the hierarchy: everything off the
 * per-access path.  access() is virtual here as the slow-path entry;
 * the sealed engine drives the concrete BasicHierarchy directly.
 */
class HierarchyBase
{
  public:
    virtual ~HierarchyBase() = default;

    HierarchyBase(const HierarchyBase &) = delete;
    HierarchyBase &operator=(const HierarchyBase &) = delete;

    /**
     * Perform one demand access issued by core acc.thread.
     *
     * @param now monotonic tick for live/dead-time accounting
     */
    virtual HierarchyResult access(const Access &acc,
                                   std::uint64_t now) = 0;

    CacheBase &l1(ThreadId core) { return *l1View_[core]; }
    CacheBase &l2(ThreadId core) { return *l2View_[core]; }
    CacheBase &llc() { return *llcView_; }
    const CacheBase &llc() const { return *llcView_; }
    const Prefetcher &prefetcher() const { return prefetcher_; }
    const HierarchyConfig &config() const { return cfg_; }

    /** Number of DRAM reads (LLC demand misses). */
    std::uint64_t memReads() const { return memReads_; }
    /** Number of DRAM writes (dirty LLC evictions). */
    std::uint64_t memWrites() const { return memWrites_; }

    /**
     * When set, every LLC demand access is appended to @p out so an
     * optimal policy can be replayed over the same reference stream.
     */
    void recordLlcTrace(std::vector<LlcRef> *out) { llcTrace_ = out; }

    /**
     * Trace index at the last clearStats() call — i.e. where the
     * measurement phase begins within the recorded trace.
     */
    std::size_t llcTraceMark() const { return llcTraceMark_; }

    /** Clear statistics in every cache (content is preserved). */
    void clearStats();

    /**
     * Register every cache's counters plus the DRAM traffic counters:
     * "coreN.l1.*", "coreN.l2.*", "llc.*", "mem.reads", "mem.writes".
     */
    void registerStats(obs::StatRegistry &reg) const;

    /** Attach an event-trace sink to the LLC (nullptr detaches). */
    void setTraceSink(obs::TraceSink *sink)
    {
        llcView_->setTraceSink(sink);
    }

  protected:
    explicit HierarchyBase(const HierarchyConfig &cfg);

    /** Append one LLC demand access to the recorded trace.  Out of
     *  line, so the opt-in recording's vector growth stays in this one
     *  cold symbol rather than in every sealed hierarchy's access. */
    [[gnu::noinline]] void recordLlcRef(const LlcRef &ref);

    HierarchyConfig cfg_;
    Prefetcher prefetcher_;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    std::vector<LlcRef> *llcTrace_ = nullptr;
    std::size_t llcTraceMark_ = 0;
    /** Type-erased views of the subclass-owned caches. */
    std::vector<CacheBase *> l1View_;
    std::vector<CacheBase *> l2View_;
    CacheBase *llcView_ = nullptr;
};

/**
 * The hierarchy with the LLC policy type bound at compile time.  The
 * private levels are BasicCache<LruPolicy> regardless of LlcP, so a
 * sealed instantiation's demand path has no virtual call at all.
 */
template <class LlcP>
class BasicHierarchy final : public HierarchyBase
{
  public:
    using PrivateCache = BasicCache<LruPolicy>;
    using LlcCache = BasicCache<LlcP>;

    /**
     * @param cfg geometry; cfg.llc describes the single shared LLC
     * @param llc_policy replacement policy for the LLC
     */
    BasicHierarchy(const HierarchyConfig &cfg,
                   std::unique_ptr<LlcP> llc_policy)
        : HierarchyBase(cfg)
    {
        for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
            l1_.push_back(std::make_unique<PrivateCache>(
                cfg_.l1,
                std::make_unique<LruPolicy>(cfg_.l1.numSets,
                                            cfg_.l1.assoc)));
            l2_.push_back(std::make_unique<PrivateCache>(
                cfg_.l2,
                std::make_unique<LruPolicy>(cfg_.l2.numSets,
                                            cfg_.l2.assoc)));
            l1View_.push_back(l1_.back().get());
            l2View_.push_back(l2_.back().get());
        }
        assert(llc_policy->numSets() == cfg_.llc.numSets);
        llc_ = std::make_unique<LlcCache>(cfg_.llc,
                                          std::move(llc_policy));
        llcView_ = llc_.get();
    }

    /** Typed accessors (shadow the CacheBase views). */
    PrivateCache &l1(ThreadId core) { return *l1_[core]; }
    PrivateCache &l2(ThreadId core) { return *l2_[core]; }
    LlcCache &llc() { return *llc_; }
    const LlcCache &llc() const { return *llc_; }

    /**
     * Software-prefetch the set lanes a future access will touch.
     * Issued by the system while it simulates access i of a batch
     * for access i+k (DESIGN.md §15); a pure host-cache hint —
     * simulated state is untouched.  L2 and LLC lanes only: a
     * per-core L1's lanes (~10 KiB) are host-resident already, so
     * hinting them costs issue slots and hides nothing.
     */
    SDBP_HOT_PATH SDBP_ALWAYS_INLINE void
    prefetchAhead(Addr block, ThreadId core) const
    {
        l2_[core]->prefetchFor(block);
        llc_->prefetchFor(block);
    }

    SDBP_HOT_PATH HierarchyResult
    access(const Access &acc, std::uint64_t now) override
    {
        const ThreadId core = acc.thread;
        assert(core < cfg_.numCores);
        HierarchyResult res;

        // L1
        res.latency = cfg_.l1.latency;
        if (l1_[core]->access(acc, now)) {
            res.level = ServiceLevel::L1;
            return res;
        }

        // L2
        res.latency += cfg_.l2.latency;
        const bool l2_hit = l2_[core]->access(acc, now);

        bool llc_hit = true;
        if (!l2_hit) {
            // LLC (shared)
            res.latency += cfg_.llc.latency;
            res.llcAccess = true;
            if (llcTrace_)
                recordLlcRef({acc.blockAddr(), acc.pc, core, acc.isWrite});
            llc_hit = llc_->access(acc, now);
            if (!llc_hit) {
                // Memory
                res.latency += cfg_.memLatency;
                res.llcMiss = true;
                ++memReads_;
                const EvictedBlock ev = llc_->fill(acc, now);
                if (ev.valid && ev.dirty)
                    ++memWrites_;
                if (prefetcher_.enabled()) {
                    prefetcher_.onDemandMiss(*llc_, acc.blockAddr(),
                                             acc.pc, core, now);
                }
            }

            // Fill L2 on the way back up.
            const EvictedBlock ev2 = l2_[core]->fill(acc, now);
            if (ev2.valid && ev2.dirty)
                writebackToLlc(ev2.blockAddr, ev2.owner, now);
        }

        // Fill L1.
        const EvictedBlock ev1 = l1_[core]->fill(acc, now);
        if (ev1.valid && ev1.dirty)
            writebackToL2(core, ev1.blockAddr, ev1.owner, now);

        res.level = l2_hit ? ServiceLevel::L2
            : llc_hit ? ServiceLevel::Llc : ServiceLevel::Memory;
        return res;
    }

  private:
    // Writebacks update a present copy but never allocate: a miss
    // forwards the data down a level (and past the LLC, to memory).
    // Keeping cache content purely demand-driven is what makes the
    // recorded LLC demand stream a sound input for the
    // optimal-policy replay (Sec. VI-B).
    SDBP_HOT_PATH void
    writebackToL2(ThreadId core, Addr block_addr, ThreadId owner,
                  std::uint64_t now)
    {
        const Access wb = Access::writebackOf(block_addr, owner);
        if (!l2_[core]->access(wb, now))
            writebackToLlc(block_addr, owner, now);
    }

    SDBP_HOT_PATH void
    writebackToLlc(Addr block_addr, ThreadId owner, std::uint64_t now)
    {
        const Access wb = Access::writebackOf(block_addr, owner);
        if (!llc_->access(wb, now))
            ++memWrites_;
    }

    std::vector<std::unique_ptr<PrivateCache>> l1_;
    std::vector<std::unique_ptr<PrivateCache>> l2_;
    std::unique_ptr<LlcCache> llc_;
};

/** The type-erased hierarchy: virtual LLC policy dispatch. */
using Hierarchy = BasicHierarchy<ReplacementPolicy>;

} // namespace sdbp

#endif // SDBP_CACHE_HIERARCHY_HH
