/**
 * @file
 * Dynamic Insertion Policy (DIP, Qureshi et al. ISCA 2007) and its
 * thread-aware variant (TADIP-F, Jaleel et al. PACT 2008), the
 * adaptive-insertion baselines of the paper (Table V: DIP, TADIP).
 *
 * Set dueling: a few leader sets always use LRU insertion, a few
 * always use BIP insertion; a PSEL counter tallies which group
 * misses less and follower sets copy the winner.  With
 * `numThreads > 1` each thread gets its own leader sets and PSEL.
 */

#ifndef SDBP_CACHE_DIP_HH
#define SDBP_CACHE_DIP_HH

#include <vector>

#include "cache/lru.hh"
#include "util/arena.hh"
#include "util/rng.hh"

namespace sdbp
{

struct DipConfig
{
    /** Number of leader sets per insertion policy (per thread). */
    std::uint32_t leaderSetsPerPolicy = 32;
    /** Width of the policy-selection counter. */
    unsigned pselBits = 10;
    /** BIP inserts at MRU once every bipEpsilonDenom fills. */
    std::uint32_t bipEpsilonDenom = 32;
    /** 1 = DIP, >1 = TADIP. */
    std::uint32_t numThreads = 1;
    /**
     * Disable dueling and insert every fill with the bimodal policy
     * (with bipEpsilonDenom -> infinity this degenerates to LIP).
     */
    bool staticBip = false;
    std::uint64_t seed = 0xd1b;
};

class DipPolicy final : public ReplacementPolicy
{
  public:
    DipPolicy(std::uint32_t num_sets, std::uint32_t assoc,
              const DipConfig &cfg = {});

    void onAccess(std::uint32_t set, int hit_way, SetView frames,
                  const Access &a) override;
    std::uint32_t victim(std::uint32_t set,
                         SetView frames,
                         const Access &a) override;
    void onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                const Access &a) override;
    std::string name() const override;

    /** The recency stack insertions are placed into (test hook). */
    const LruPolicy &lru() const { return lru_; }

    /** Current PSEL value of a thread (test hook). */
    std::uint32_t psel(ThreadId t) const { return psel_.at(t); }

    /** True if @p set is thread @p t 's LRU-insertion leader set. */
    bool isLruLeader(std::uint32_t set, ThreadId t) const;
    /** True if @p set is thread @p t 's BIP-insertion leader set. */
    bool isBipLeader(std::uint32_t set, ThreadId t) const;
    /** True if thread @p t 's follower sets currently use BIP. */
    bool followerUsesBip(ThreadId t) const;

  private:
    DipConfig cfg_;
    LruPolicy lru_;
    ArenaVector<std::uint32_t> psel_;
    std::uint32_t pselMax_;
    std::uint32_t leaderPeriod_;
    Rng rng_;
};

} // namespace sdbp

#endif // SDBP_CACHE_DIP_HH
