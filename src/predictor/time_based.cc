#include "predictor/time_based.hh"

#include <algorithm>
#include <cassert>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace sdbp
{

TimeBasedPredictor::TimeBasedPredictor(std::uint32_t num_sets,
                                       std::uint32_t assoc,
                                       const TimeBasedConfig &cfg)
    : cfg_(cfg), meta_(num_sets, assoc)
{
    SDBP_DCHECK_EQ(cfg_.llcSets, num_sets,
                   "time-based llcSets disagrees with the LLC geometry");
    assert(cfg_.multiplier >= 1);
    timeMax_ = (1u << cfg_.timeBits) - 1;
    liveTime_.assign(std::size_t(1) << cfg_.tableIndexBits, 0);
    setTicks_.assign(cfg_.llcSets, 0);
}

bool
TimeBasedPredictor::onAccess(std::uint32_t set, int hit_way,
                             const Access &a)
{
    assert(set < cfg_.llcSets);
    const std::uint32_t now = ++setTicks_[set];
    BlockMeta *m = meta_.find(set, hit_way);
    if (!m) {
        // Dead-on-arrival: a learned live time of zero with history
        // means "never re-touched".  Use the table directly.
        return liveTime_[tableIndexOf(a.pc)] == 1;
    }
    m->lastTouch = now;
    return false;
}

bool
TimeBasedPredictor::isDeadNow(std::uint32_t set, std::uint32_t way) const
{
    const BlockMeta *m = meta_.find(set, static_cast<int>(way));
    if (!m)
        return false;
    const std::uint32_t learned = liveTime_[m->tableIndex];
    if (learned == 0)
        return false; // nothing learned yet
    const std::uint32_t idle = setTicks_[set] - m->lastTouch;
    return idle > learned * cfg_.multiplier;
}

void
TimeBasedPredictor::onFill(std::uint32_t set, std::uint32_t way,
                           const Access &a)
{
    BlockMeta m;
    m.tableIndex = tableIndexOf(a.pc);
    m.fillTick = setTicks_[set];
    m.lastTouch = m.fillTick;
    meta_.fill(set, way, m);
}

void
TimeBasedPredictor::onEvict(std::uint32_t set, std::uint32_t way, Addr)
{
    const std::optional<BlockMeta> m = meta_.take(set, way);
    if (!m)
        return;
    // Observed live time (in set accesses), clamped; store 1 for
    // never-re-touched generations so "1" doubles as the
    // dead-on-arrival marker.
    const std::uint32_t live = std::min<std::uint32_t>(
        std::max<std::uint32_t>(m->lastTouch - m->fillTick, 1),
        timeMax_);
    std::uint32_t &entry = liveTime_[m->tableIndex];
    // Exponential moving average with alpha = 1/2.
    entry = entry == 0 ? live : (entry + live + 1) / 2;
}

std::uint32_t
TimeBasedPredictor::learnedLiveTime(PC pc) const
{
    return liveTime_[tableIndexOf(pc)];
}

} // namespace sdbp
