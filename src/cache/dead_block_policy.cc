#include "cache/dead_block_policy.hh"

#include "obs/stat_registry.hh"
#include "util/stats.hh"

namespace sdbp
{

double
DbrbStats::coverage() const
{
    return ratio(static_cast<double>(positives),
                 static_cast<double>(predictions));
}

double
DbrbStats::falsePositiveRate() const
{
    return ratio(static_cast<double>(falsePositiveHits + bypassReuses),
                 static_cast<double>(predictions));
}

DeadBlockPolicyBase::DeadBlockPolicyBase(
    ReplacementPolicy *inner_base, DeadBlockPredictor *pred_base,
    const DeadBlockPolicyConfig &cfg)
    : ReplacementPolicy(inner_base->numSets(), inner_base->assoc()),
      cfg_(cfg), innerBase_(inner_base), predictorBase_(pred_base)
{
    assert(innerBase_ && predictorBase_);
    bypassWindow_ = cfg_.bypassReuseWindow
        ? cfg_.bypassReuseWindow
        : static_cast<std::uint64_t>(numSets_) * assoc_;
    if (cfg_.fault.enabled()) {
        faults_ = std::make_unique<fault::FaultInjector>(cfg_.fault);
        predictorBase_->registerFaultTargets(*faults_);
    }
}

void
DeadBlockPolicyBase::noteBypass(Addr block_addr)
{
    // Bound the tracking map; a sweep every so often is cheap
    // relative to the accesses that grew it.
    if (recentBypasses_.size() > 4 * bypassWindow_) {
        const std::uint64_t horizon =
            stats_.predictions > bypassWindow_
                ? stats_.predictions - bypassWindow_
                : 0;
        std::erase_if(recentBypasses_, [horizon](const auto &kv) {
            return kv.second < horizon;
        });
    }
    recentBypasses_[block_addr] = stats_.predictions;
}

void
DeadBlockPolicyBase::checkBypassReuse(Addr block_addr)
{
    auto it = recentBypasses_.find(block_addr);
    if (it == recentBypasses_.end())
        return;
    if (stats_.predictions - it->second <= bypassWindow_)
        ++stats_.bypassReuses;
    recentBypasses_.erase(it);
}

void
DeadBlockPolicyBase::registerStats(obs::StatRegistry &reg,
                                   const std::string &prefix) const
{
    using obs::StatRegistry;
    reg.addCounter(StatRegistry::join(prefix, "predictions"),
                   &stats_.predictions);
    reg.addCounter(StatRegistry::join(prefix, "positives"),
                   &stats_.positives);
    reg.addCounter(StatRegistry::join(prefix, "false_positive_hits"),
                   &stats_.falsePositiveHits);
    reg.addCounter(StatRegistry::join(prefix, "bypass_reuses"),
                   &stats_.bypassReuses);
    reg.addCounter(StatRegistry::join(prefix, "dead_evictions"),
                   &stats_.deadEvictions);
    reg.addCounter(StatRegistry::join(prefix, "bypasses"),
                   &stats_.bypasses);
    confusion_.registerStats(reg,
                             StatRegistry::join(prefix, "confusion"));
    predictorBase_->registerStats(reg,
                                  StatRegistry::join(prefix, "pred"));
    if (faults_)
        faults_->registerStats(reg,
                               StatRegistry::join(prefix, "faults"));
}

std::string
DeadBlockPolicyBase::name() const
{
    return "dbrb-" + predictorBase_->name() + "-" + innerBase_->name();
}

} // namespace sdbp
