#include "predictor/sampling_counting.hh"

#include <cassert>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace sdbp
{

SamplingCountingPredictor::SamplingCountingPredictor(
    std::uint32_t num_sets, std::uint32_t assoc,
    const SamplingCountingConfig &cfg)
    : cfg_(cfg), meta_(num_sets, assoc)
{
    SDBP_DCHECK_EQ(cfg_.llcSets, num_sets,
                   "sampling-counting llcSets disagrees with the LLC "
                   "geometry");
    assert(cfg_.llcSets >= cfg_.samplerSets);
    counterMax_ = (1u << cfg_.counterBits) - 1;
    setStride_ = cfg_.llcSets / cfg_.samplerSets;
    table_.assign(std::size_t(1) << cfg_.tableIndexBits, TableEntry{});
    sampler_.assign(static_cast<std::size_t>(cfg_.samplerSets) *
                        cfg_.samplerAssoc,
                    SamplerEntry{});
    for (std::uint32_t s = 0; s < cfg_.samplerSets; ++s)
        for (std::uint32_t w = 0; w < cfg_.samplerAssoc; ++w)
            sampler_[s * cfg_.samplerAssoc + w].lruPos =
                static_cast<std::uint8_t>(w);
}

bool
SamplingCountingPredictor::isSampledSet(std::uint32_t set) const
{
    return set % setStride_ == 0 &&
        set / setStride_ < cfg_.samplerSets;
}

bool
SamplingCountingPredictor::predictFromTable(std::uint16_t sig,
                                            unsigned count) const
{
    const TableEntry &e = table_[sig];
    return e.confidence >= cfg_.confidenceThreshold &&
        count >= e.count && e.count > 0;
}

void
SamplingCountingPredictor::samplerAccess(std::uint32_t sampler_set,
                                         std::uint16_t partial_tag,
                                         std::uint16_t sig)
{
    auto *base = &sampler_[sampler_set * cfg_.samplerAssoc];

    auto move_to_mru = [&](std::uint32_t way) {
        const std::uint8_t old_pos = base[way].lruPos;
        for (std::uint32_t w = 0; w < cfg_.samplerAssoc; ++w)
            if (base[w].lruPos < old_pos)
                ++base[w].lruPos;
        base[way].lruPos = 0;
    };

    for (std::uint32_t w = 0; w < cfg_.samplerAssoc; ++w) {
        if (base[w].valid && base[w].tag == partial_tag) {
            if (base[w].count < counterMax_)
                ++base[w].count;
            move_to_mru(w);
            return;
        }
    }

    // Miss: replace the LRU (or an invalid) entry, training the
    // table with the evicted generation's count.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < cfg_.samplerAssoc; ++w) {
        if (!base[w].valid) {
            victim = w;
            break;
        }
        if (base[w].lruPos == cfg_.samplerAssoc - 1)
            victim = w;
    }
    SamplerEntry &e = base[victim];
    if (e.valid) {
        TableEntry &t = table_[e.fillSig];
        if (t.count == e.count) {
            if (t.confidence < 3)
                ++t.confidence;
        } else {
            t.count = e.count;
            t.confidence = 0;
        }
    }
    e.valid = true;
    e.tag = partial_tag;
    e.fillSig = sig;
    e.count = 1;
    move_to_mru(victim);
}

bool
SamplingCountingPredictor::onAccess(std::uint32_t set, int hit_way,
                                    const Access &a)
{
    const auto sig = static_cast<std::uint16_t>(signature(a.pc));

    if (isSampledSet(set)) {
        const auto partial_tag = static_cast<std::uint16_t>(
            mix64(a.blockAddr()) & mask(cfg_.tagBits));
        samplerAccess(set / setStride_, partial_tag, sig);
    }

    BlockMeta *m = meta_.find(set, hit_way);
    if (!m) {
        // Dead-on-arrival query: single-access generations bypass.
        const TableEntry &e = table_[sig];
        return e.confidence >= cfg_.confidenceThreshold &&
            e.count == 1;
    }
    if (m->count < counterMax_)
        ++m->count;
    return predictFromTable(m->fillSig, m->count);
}

void
SamplingCountingPredictor::onFill(std::uint32_t set, std::uint32_t way,
                                  const Access &a)
{
    BlockMeta m;
    m.fillSig = static_cast<std::uint16_t>(signature(a.pc));
    m.count = 1;
    meta_.fill(set, way, m);
}

void
SamplingCountingPredictor::onEvict(std::uint32_t set, std::uint32_t way,
                                   Addr)
{
    // The decoupling: cache evictions do NOT train the table.
    meta_.take(set, way);
}

} // namespace sdbp
