/**
 * @file
 * Re-Reference Interval Prediction (RRIP, Jaleel et al. ISCA 2010):
 * SRRIP, BRRIP and the set-dueling DRRIP hybrid, plus the
 * thread-aware multi-core variant (per-thread dueling), used as the
 * "RRIP" baseline in Figures 4, 5 and 10.
 */

#ifndef SDBP_CACHE_RRIP_HH
#define SDBP_CACHE_RRIP_HH

#include <vector>

#include "cache/policy.hh"
#include "util/arena.hh"
#include "util/rng.hh"

namespace sdbp
{

enum class RripMode
{
    SRrip, ///< static: always insert with a long re-reference interval
    BRrip, ///< bimodal: mostly distant, occasionally long
    DRrip, ///< set dueling between SRRIP and BRRIP
};

struct RripConfig
{
    RripMode mode = RripMode::DRrip;
    /** Width of the re-reference prediction value. */
    unsigned rrpvBits = 2;
    std::uint32_t leaderSetsPerPolicy = 32;
    unsigned pselBits = 10;
    /** BRRIP inserts "long" once every epsilonDenom fills. */
    std::uint32_t epsilonDenom = 32;
    /** >1 enables per-thread dueling (thread-aware DRRIP). */
    std::uint32_t numThreads = 1;
    std::uint64_t seed = 0x5217;
};

class RripPolicy final : public ReplacementPolicy
{
  public:
    RripPolicy(std::uint32_t num_sets, std::uint32_t assoc,
               const RripConfig &cfg = {});

    void onAccess(std::uint32_t set, int hit_way, SetView frames,
                  const Access &a) override;
    std::uint32_t victim(std::uint32_t set,
                         SetView frames,
                         const Access &a) override;
    void onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                const Access &a) override;
    std::string name() const override;

    /** RRPV of a way (test hook). */
    unsigned
    rrpv(std::uint32_t set, std::uint32_t way) const
    {
        return rrpv_[set * assoc_ + way];
    }

    bool isSrripLeader(std::uint32_t set, ThreadId t) const;
    bool isBrripLeader(std::uint32_t set, ThreadId t) const;
    bool followerUsesBrrip(ThreadId t) const;

  private:
    RripConfig cfg_;
    unsigned rrpvMax_;
    ArenaVector<std::uint8_t> rrpv_;
    ArenaVector<std::uint32_t> psel_;
    std::uint32_t pselMax_;
    std::uint32_t leaderPeriod_;
    Rng rng_;
};

} // namespace sdbp

#endif // SDBP_CACHE_RRIP_HH
