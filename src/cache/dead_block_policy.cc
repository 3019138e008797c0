#include "cache/dead_block_policy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

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
    assert(block_addr != SetView::kNoBlock);
    // Sweep at three-quarters occupancy, and at once while the table
    // is still unallocated.
    if (bypassUsed_ >= bypassSlots_.size() / 4 * 3) [[unlikely]]
        makeBypassRoom();
    std::size_t i = bypassHome(block_addr);
    while (bypassSlots_[i].block != SetView::kNoBlock) {
        if (bypassSlots_[i].block == block_addr) {
            bypassSlots_[i].tick = stats_.predictions;
            return;
        }
        i = (i + 1) & bypassMask_;
    }
    bypassSlots_[i] = {block_addr, stats_.predictions};
    ++bypassUsed_;
}

void
DeadBlockPolicyBase::checkBypassReuse(Addr block_addr)
{
    if (bypassUsed_ == 0)
        return;
    std::size_t i = bypassHome(block_addr);
    while (bypassSlots_[i].block != block_addr) {
        if (bypassSlots_[i].block == SetView::kNoBlock)
            return;
        i = (i + 1) & bypassMask_;
    }
    // A record past the window is absent; either way the miss
    // consumes it.
    if (stats_.predictions - bypassSlots_[i].tick <= bypassWindow_)
        ++stats_.bypassReuses;
    eraseBypassSlot(i);
}

void
DeadBlockPolicyBase::eraseBypassSlot(std::size_t hole)
{
    // Backward-shift delete: walk the rest of the probe run and move
    // each record whose home does not lie in (hole, j] into the
    // hole, so every record stays reachable from its home slot
    // without tombstones.
    for (std::size_t j = (hole + 1) & bypassMask_;
         bypassSlots_[j].block != SetView::kNoBlock;
         j = (j + 1) & bypassMask_) {
        const std::size_t from_home =
            (j - bypassHome(bypassSlots_[j].block)) & bypassMask_;
        if (from_home >= ((j - hole) & bypassMask_)) {
            bypassSlots_[hole] = bypassSlots_[j];
            hole = j;
        }
    }
    bypassSlots_[hole].block = SetView::kNoBlock;
    --bypassUsed_;
}

void
DeadBlockPolicyBase::makeBypassRoom()
{
    if (bypassSlots_.empty()) {
        growBypassTable();
        return;
    }
    // This runs inside a bypass at tick `now`.  Every later miss
    // consults first, so it checks at a tick >= now + 1: a record
    // with now - tick >= window can never count again.  Start the
    // sweep just past an empty slot, so no probe run wraps into the
    // part already swept; a backward shift only moves records into
    // the slot under examination or beyond it.
    const std::uint64_t now = stats_.predictions;
    std::size_t start = 0;
    while (bypassSlots_[start].block != SetView::kNoBlock)
        ++start;
    std::size_t i = (start + 1) & bypassMask_;
    while (i != start) {
        const BypassSlot &slot = bypassSlots_[i];
        if (slot.block != SetView::kNoBlock &&
            now - slot.tick >= bypassWindow_)
            eraseBypassSlot(i);
        else
            i = (i + 1) & bypassMask_;
    }
    // The sweep starts at three-quarters occupancy and leaves at most
    // half (or the table doubles), so a quarter of the slots fill
    // between two sweeps: O(1) amortized per bypass.
    if (bypassUsed_ > bypassSlots_.size() / 2)
        growBypassTable();
}

void
DeadBlockPolicyBase::growBypassTable()
{
    // With one bypass per consultation at most window records are
    // live, and a window of numSets * assoc (the default) fits the
    // first table for the whole run.  Prefetch fills and larger
    // windows can need more; the table then doubles.
    const std::uint64_t frames =
        static_cast<std::uint64_t>(numSets_) * assoc_;
    const std::size_t slots = bypassSlots_.empty()
        ? static_cast<std::size_t>(std::bit_ceil(
              2 * std::max<std::uint64_t>(
                      std::min(bypassWindow_, frames), 32)))
        : 2 * bypassSlots_.size();
    std::vector<BypassSlot> old;
    old.swap(bypassSlots_);
    bypassSlots_.assign(slots, {SetView::kNoBlock, 0});
    bypassMask_ = slots - 1;
    bypassUsed_ = 0;
    for (const BypassSlot &slot : old) {
        if (slot.block == SetView::kNoBlock)
            continue;
        std::size_t i = bypassHome(slot.block);
        while (bypassSlots_[i].block != SetView::kNoBlock)
            i = (i + 1) & bypassMask_;
        bypassSlots_[i] = slot;
        ++bypassUsed_;
    }
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
