#include "predictor/counting.hh"

#include <algorithm>
#include <cassert>

#include "fault/fault_injector.hh"
#include "util/hash.hh"
#include "util/logging.hh"

namespace sdbp
{

CountingPredictor::CountingPredictor(std::uint32_t num_sets,
                                     std::uint32_t assoc,
                                     const CountingConfig &cfg)
    : cfg_(cfg), meta_(num_sets, assoc)
{
    assert(cfg_.rowBits + cfg_.colBits <= 24);
    counterMax_ = (1u << cfg_.counterBits) - 1;
    table_.assign(std::size_t(1) << (cfg_.rowBits + cfg_.colBits),
                  TableEntry{});
}

std::uint32_t
CountingPredictor::entryIndexOf(PC pc, Addr block_addr) const
{
    const std::uint64_t row = makeSignature(pc, cfg_.rowBits);
    const std::uint64_t col = mix64(block_addr) & mask(cfg_.colBits);
    return static_cast<std::uint32_t>(row << cfg_.colBits | col);
}

bool
CountingPredictor::onAccess(std::uint32_t set, int hit_way,
                            const Access &a)
{
    BlockMeta *m = meta_.find(set, hit_way);
    if (!m) {
        // Dead-on-arrival query: dead if this <PC, block> pair's
        // generations reliably consist of a single access.
        const TableEntry &e = table_[entryIndexOf(a.pc, a.blockAddr())];
        return e.confident && e.count <= 1;
    }

    if (m->count < counterMax_)
        ++m->count;
    return m->confident && m->count >= m->threshold;
}

void
CountingPredictor::onFill(std::uint32_t set, std::uint32_t way,
                          const Access &a)
{
    const std::uint32_t idx = entryIndexOf(a.pc, a.blockAddr());
    const TableEntry &e = table_[idx];
    BlockMeta m;
    m.entryIndex = idx;
    m.count = 1; // the fill access itself
    m.threshold = e.count;
    m.confident = e.confident;
    meta_.fill(set, way, m);
}

void
CountingPredictor::onEvict(std::uint32_t set, std::uint32_t way, Addr)
{
    const std::optional<BlockMeta> m = meta_.take(set, way);
    if (!m)
        return;
    TableEntry &e = table_[m->entryIndex];
    // Confidence is set when two consecutive generations agree.
    e.confident = (e.count == m->count);
    e.count = m->count;
}

void
CountingPredictor::registerFaultTargets(fault::FaultInjector &injector)
{
    injector.addTarget(
        {"table.count", table_.size(), cfg_.counterBits,
         [this](std::uint64_t w, unsigned b) {
             table_[w].count = static_cast<std::uint8_t>(
                 table_[w].count ^ (1u << b));
         }});
    injector.addTarget(
        {"table.confident", table_.size(), 1,
         [this](std::uint64_t w, unsigned) {
             table_[w].confident = !table_[w].confident;
         }});
}

void
CountingPredictor::auditInvariants() const
{
#if SDBP_DCHECK_ENABLED
    SDBP_DCHECK_EQ(table_.size(), cfg_.storageSpec().entries,
                   "counting table geometry drifted from config");
    for (std::size_t i = 0; i < table_.size(); ++i)
        SDBP_DCHECK_LE(unsigned{table_[i].count}, counterMax_,
                       "counting access count overflowed its width");
#endif // SDBP_DCHECK_ENABLED
}

} // namespace sdbp
