#include "predictor/aip.hh"

#include <algorithm>
#include <cassert>

#include "util/bitops.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace sdbp
{

AipPredictor::AipPredictor(std::uint32_t num_sets, std::uint32_t assoc,
                           const AipConfig &cfg)
    : cfg_(cfg), meta_(num_sets, assoc)
{
    SDBP_DCHECK_EQ(cfg_.llcSets, num_sets,
                   "AIP llcSets disagrees with the LLC geometry");
    assert(cfg_.rowBits + cfg_.colBits <= 24);
    table_.assign(std::size_t(1) << (cfg_.rowBits + cfg_.colBits),
                  TableEntry{});
    setTicks_.assign(cfg_.llcSets, 0);
}

std::uint8_t
AipPredictor::quantize(std::uint32_t interval)
{
    // ceil(log2(interval + 1)), saturated to 15.
    std::uint8_t q = 0;
    while ((1u << q) < interval + 1 && q < 15)
        ++q;
    return q;
}

std::uint32_t
AipPredictor::entryIndexOf(PC pc, Addr block_addr) const
{
    const std::uint64_t row = makeSignature(pc, cfg_.rowBits);
    const std::uint64_t col = mix64(block_addr) & mask(cfg_.colBits);
    return static_cast<std::uint32_t>(row << cfg_.colBits | col);
}

bool
AipPredictor::onAccess(std::uint32_t set, int hit_way, const Access &a)
{
    assert(set < cfg_.llcSets);
    const std::uint32_t now = ++setTicks_[set];

    BlockMeta *m = meta_.find(set, hit_way);
    if (!m) {
        // Dead-on-arrival: confident single-touch generations (a
        // learned max interval of zero means "never re-touched").
        const TableEntry &e = table_[entryIndexOf(a.pc, a.blockAddr())];
        return e.confident && e.maxInterval == 0;
    }

    const std::uint32_t interval = now - m->lastTouch;
    m->maxInterval = std::max(m->maxInterval, quantize(interval));
    m->lastTouch = now;
    // At touch time the elapsed interval is zero, so the block is
    // live by definition; deadness is reported via isDeadNow().
    return false;
}

bool
AipPredictor::isDeadNow(std::uint32_t set, std::uint32_t way) const
{
    const BlockMeta *m = meta_.find(set, static_cast<int>(way));
    if (!m || !m->confident)
        return false;
    const std::uint32_t elapsed = setTicks_[set] - m->lastTouch;
    // Dead once the elapsed interval can no longer be within the
    // learned (quantized) maximum.
    return quantize(elapsed) > m->threshold;
}

void
AipPredictor::onFill(std::uint32_t set, std::uint32_t way,
                     const Access &a)
{
    BlockMeta m;
    m.entryIndex = entryIndexOf(a.pc, a.blockAddr());
    m.lastTouch = setTicks_[set];
    m.maxInterval = 0;
    const TableEntry &e = table_[m.entryIndex];
    m.threshold = e.maxInterval;
    m.confident = e.confident;
    meta_.fill(set, way, m);
}

void
AipPredictor::onEvict(std::uint32_t set, std::uint32_t way, Addr)
{
    const std::optional<BlockMeta> m = meta_.take(set, way);
    if (!m)
        return;
    TableEntry &e = table_[m->entryIndex];
    e.confident = (e.maxInterval == m->maxInterval);
    e.maxInterval = m->maxInterval;
}

} // namespace sdbp
