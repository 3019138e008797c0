#include "cache/rrip.hh"

#include <algorithm>
#include <cassert>

namespace sdbp
{

RripPolicy::RripPolicy(std::uint32_t num_sets, std::uint32_t assoc,
                       const RripConfig &cfg)
    : ReplacementPolicy(num_sets, assoc), cfg_(cfg), rng_(cfg.seed)
{
    assert(cfg_.rrpvBits >= 1 && cfg_.rrpvBits <= 8);
    rrpvMax_ = (1u << cfg_.rrpvBits) - 1;
    // New frames start "distant" so invalid ways are natural victims.
    rrpv_.assign(num_sets * assoc, static_cast<std::uint8_t>(rrpvMax_));
    pselMax_ = (1u << cfg_.pselBits) - 1;
    psel_.assign(std::max<std::uint32_t>(1, cfg_.numThreads),
                 (pselMax_ + 1) / 2);
    leaderPeriod_ =
        std::max<std::uint32_t>(1, num_sets / cfg_.leaderSetsPerPolicy);
    if (cfg_.mode == RripMode::DRrip)
        assert(2 * cfg_.numThreads <= leaderPeriod_);
}

bool
RripPolicy::isSrripLeader(std::uint32_t set, ThreadId t) const
{
    return set % leaderPeriod_ == 2 * t;
}

bool
RripPolicy::isBrripLeader(std::uint32_t set, ThreadId t) const
{
    return set % leaderPeriod_ == 2 * t + 1;
}

bool
RripPolicy::followerUsesBrrip(ThreadId t) const
{
    return psel_[t] > pselMax_ / 2;
}

void
RripPolicy::onAccess(std::uint32_t set, int hit_way, SetView frames,
                     const Access &a)
{
    (void)frames;
    if (hit_way >= 0) {
        // Hit promotion (HP variant): predict near re-reference.
        rrpv_[set * assoc_ + static_cast<std::uint32_t>(hit_way)] = 0;
    } else if (cfg_.mode == RripMode::DRrip && !a.isWriteback) {
        // As with TADIP, any thread's miss in a leader set votes on
        // the PSEL of the thread that owns the set.
        const auto threads = static_cast<ThreadId>(psel_.size());
        for (ThreadId t = 0; t < threads; ++t) {
            if (isSrripLeader(set, t)) {
                if (psel_[t] < pselMax_)
                    ++psel_[t];
                break;
            }
            if (isBrripLeader(set, t)) {
                if (psel_[t] > 0)
                    --psel_[t];
                break;
            }
        }
    }
}

std::uint32_t
RripPolicy::victim(std::uint32_t set, SetView frames,
                   const Access &a)
{
    (void)frames;
    (void)a;
    auto *base = &rrpv_[set * assoc_];
    for (;;) {
        for (std::uint32_t w = 0; w < assoc_; ++w)
            if (base[w] == rrpvMax_)
                return w;
        for (std::uint32_t w = 0; w < assoc_; ++w)
            ++base[w];
    }
}

void
RripPolicy::onFill(std::uint32_t set, std::uint32_t way, SetView frames,
                   const Access &a)
{
    (void)frames;
    const ThreadId t =
        std::min<ThreadId>(a.thread,
                           static_cast<ThreadId>(psel_.size() - 1));
    bool bimodal;
    switch (cfg_.mode) {
      case RripMode::SRrip:
        bimodal = false;
        break;
      case RripMode::BRrip:
        bimodal = true;
        break;
      case RripMode::DRrip:
      default:
        if (isSrripLeader(set, t))
            bimodal = false;
        else if (isBrripLeader(set, t))
            bimodal = true;
        else
            bimodal = followerUsesBrrip(t);
        break;
    }

    std::uint8_t insert = static_cast<std::uint8_t>(rrpvMax_ - 1);
    if (bimodal && !rng_.chance(1, cfg_.epsilonDenom))
        insert = static_cast<std::uint8_t>(rrpvMax_);
    rrpv_[set * assoc_ + way] = insert;
}

std::string
RripPolicy::name() const
{
    switch (cfg_.mode) {
      case RripMode::SRrip:
        return "srrip";
      case RripMode::BRrip:
        return "brrip";
      default:
        return cfg_.numThreads > 1 ? "tadrrip" : "drrip";
    }
}

} // namespace sdbp
