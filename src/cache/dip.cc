#include "cache/dip.hh"

#include <algorithm>
#include <cassert>

namespace sdbp
{

DipPolicy::DipPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                     const DipConfig &cfg)
    : ReplacementPolicy(num_sets, assoc), cfg_(cfg),
      lru_(num_sets, assoc), rng_(cfg.seed)
{
    assert(cfg_.numThreads >= 1);
    pselMax_ = (1u << cfg_.pselBits) - 1;
    psel_.assign(cfg_.numThreads, (pselMax_ + 1) / 2);
    leaderPeriod_ =
        std::max<std::uint32_t>(1, num_sets / cfg_.leaderSetsPerPolicy);
    // Each thread needs two distinct leader offsets within a period.
    assert(2 * cfg_.numThreads <= leaderPeriod_);
}

bool
DipPolicy::isLruLeader(std::uint32_t set, ThreadId t) const
{
    return set % leaderPeriod_ == 2 * t;
}

bool
DipPolicy::isBipLeader(std::uint32_t set, ThreadId t) const
{
    return set % leaderPeriod_ == 2 * t + 1;
}

bool
DipPolicy::followerUsesBip(ThreadId t) const
{
    return psel_[t] > pselMax_ / 2;
}

void
DipPolicy::onAccess(std::uint32_t set, int hit_way, SetView frames,
                    const Access &a)
{
    if (hit_way < 0 && !a.isWriteback) {
        // Set dueling: a miss in a leader set votes against that
        // set's insertion policy.  The vote goes to the PSEL of the
        // thread that OWNS the leader set, regardless of which
        // thread missed: that is how TADIP-F captures the effect of
        // one thread's insertion policy on everyone sharing the
        // cache.
        for (ThreadId t = 0; t < cfg_.numThreads; ++t) {
            if (isLruLeader(set, t)) {
                if (psel_[t] < pselMax_)
                    ++psel_[t];
                break;
            }
            if (isBipLeader(set, t)) {
                if (psel_[t] > 0)
                    --psel_[t];
                break;
            }
        }
    }
    lru_.onAccess(set, hit_way, frames, a);
}

std::uint32_t
DipPolicy::victim(std::uint32_t set, SetView frames,
                  const Access &a)
{
    return lru_.victim(set, frames, a);
}

void
DipPolicy::onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                  const Access &a)
{
    (void)frames;
    const ThreadId t = std::min<ThreadId>(a.thread,
                                          cfg_.numThreads - 1);
    bool use_bip;
    if (cfg_.staticBip)
        use_bip = true;
    else if (isLruLeader(set, t))
        use_bip = false;
    else if (isBipLeader(set, t))
        use_bip = true;
    else
        use_bip = followerUsesBip(t);

    if (use_bip && !rng_.chance(1, cfg_.bipEpsilonDenom)) {
        // BIP: install at the LRU position (will be the next victim
        // unless promoted by a hit).
        lru_.moveTo(set, way, assoc_ - 1);
    } else {
        lru_.moveTo(set, way, 0);
    }
}

std::string
DipPolicy::name() const
{
    if (cfg_.staticBip)
        return cfg_.bipEpsilonDenom > (1u << 20) ? "lip" : "bip";
    return cfg_.numThreads > 1 ? "tadip" : "dip";
}

} // namespace sdbp
