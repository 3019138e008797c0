#include "predictor/burst_trace.hh"

#include <cassert>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace sdbp
{

BurstTracePredictor::BurstTracePredictor(std::uint32_t num_sets,
                                         std::uint32_t assoc,
                                         const BurstTraceConfig &cfg)
    : cfg_(cfg), sig_(num_sets, assoc)
{
    SDBP_DCHECK_EQ(cfg_.llcSets, num_sets,
                   "burst-trace llcSets disagrees with the LLC geometry");
    counterMax_ = (1u << cfg_.counterBits) - 1;
    table_.assign(std::size_t(1) << cfg_.signatureBits, 0);
    lastBlock_.assign(cfg_.llcSets, ~Addr(0));
}

bool
BurstTracePredictor::onAccess(std::uint32_t set, int hit_way,
                              const Access &a)
{
    assert(set < cfg_.llcSets);
    const std::uint64_t pc_sig = pcSignature(a.pc);

    std::uint16_t *sig = sig_.find(set, hit_way);
    if (!sig) {
        lastBlock_[set] = a.blockAddr();
        return table_[pc_sig] >= cfg_.threshold;
    }

    if (lastBlock_[set] == a.blockAddr()) {
        // Same burst: fold the access without touching the tables.
        ++filtered_;
        return table_[*sig] >= cfg_.threshold;
    }

    // Burst boundary: the previous burst's signature was not final.
    ++bursts_;
    lastBlock_[set] = a.blockAddr();
    auto &c = table_[*sig];
    if (c > 0)
        --c;
    *sig = static_cast<std::uint16_t>((*sig + pc_sig) &
                                      mask(cfg_.signatureBits));
    return table_[*sig] >= cfg_.threshold;
}

void
BurstTracePredictor::onFill(std::uint32_t set, std::uint32_t way,
                            const Access &a)
{
    sig_.fill(set, way, static_cast<std::uint16_t>(pcSignature(a.pc)));
}

void
BurstTracePredictor::onEvict(std::uint32_t set, std::uint32_t way,
                             Addr block_addr)
{
    const std::optional<std::uint16_t> sig = sig_.take(set, way);
    if (!sig)
        return;
    auto &c = table_[*sig];
    if (c < counterMax_)
        ++c;
    if (lastBlock_[set] == block_addr)
        lastBlock_[set] = ~Addr(0);
}

} // namespace sdbp
