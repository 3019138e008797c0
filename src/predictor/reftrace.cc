#include "predictor/reftrace.hh"

#include <cassert>

#include "fault/fault_injector.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace sdbp
{

RefTracePredictor::RefTracePredictor(std::uint32_t num_sets,
                                     std::uint32_t assoc,
                                     const RefTraceConfig &cfg)
    : cfg_(cfg), sig_(num_sets, assoc)
{
    assert(cfg_.signatureBits >= 4 && cfg_.signatureBits <= 20);
    counterMax_ = (1u << cfg_.counterBits) - 1;
    table_.assign(std::size_t(1) << cfg_.signatureBits, 0);
}

bool
RefTracePredictor::onAccess(std::uint32_t set, int hit_way,
                            const Access &a)
{
    const std::uint64_t pc_sig = pcSignature(a.pc);
    std::uint16_t *sig = sig_.find(set, hit_way);
    if (!sig) {
        // Dead-on-arrival query: the trace so far is just this PC.
        return table_[pc_sig] >= cfg_.threshold;
    }

    // The old signature did not end the generation: train it toward
    // "live", then extend the trace with this access.
    auto &c = table_[*sig];
    if (c > 0)
        --c;
    *sig = static_cast<std::uint16_t>((*sig + pc_sig) &
                                      mask(cfg_.signatureBits));
    return table_[*sig] >= cfg_.threshold;
}

void
RefTracePredictor::onFill(std::uint32_t set, std::uint32_t way,
                          const Access &a)
{
    sig_.fill(set, way, static_cast<std::uint16_t>(pcSignature(a.pc)));
}

void
RefTracePredictor::onEvict(std::uint32_t set, std::uint32_t way, Addr)
{
    const std::optional<std::uint16_t> sig = sig_.take(set, way);
    if (!sig)
        return;
    // The final signature ended a generation: train toward "dead".
    auto &c = table_[*sig];
    if (c < counterMax_)
        ++c;
}

std::uint64_t
RefTracePredictor::signatureOf(std::uint32_t set, std::uint32_t way) const
{
    const std::uint16_t *sig = sig_.find(set, static_cast<int>(way));
    return sig ? *sig : 0;
}

void
RefTracePredictor::registerFaultTargets(fault::FaultInjector &injector)
{
    injector.addTarget(
        {"table.counter", table_.size(), cfg_.counterBits,
         [this](std::uint64_t w, unsigned b) {
             table_[w] = static_cast<std::uint8_t>(
                 table_[w] ^ (1u << b));
         }});
}

void
RefTracePredictor::auditInvariants() const
{
#if SDBP_DCHECK_ENABLED
    SDBP_DCHECK_EQ(table_.size(), cfg_.storageSpec().entries,
                   "reftrace table geometry drifted from config");
    for (std::size_t i = 0; i < table_.size(); ++i)
        SDBP_DCHECK_LE(unsigned{table_[i]}, counterMax_,
                       "reftrace counter overflowed its width");
#endif // SDBP_DCHECK_ENABLED
}

} // namespace sdbp
