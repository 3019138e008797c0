#include "core/sdbp.hh"

#include <cassert>

#include "obs/stat_registry.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace sdbp
{

SamplingDeadBlockPredictor::SamplingDeadBlockPredictor(
    std::uint32_t num_sets, std::uint32_t assoc, const SdbpConfig &cfg)
    : cfg_(cfg), sampler_(cfg.sampler), table_(cfg.table),
      lastSig_(cfg.useSampler ? FrameLane<std::uint16_t>()
                              : FrameLane<std::uint16_t>(num_sets, assoc))
{
    SDBP_DCHECK_EQ(cfg_.llcSets, num_sets,
                   "SDBP llcSets disagrees with the LLC geometry");
    assert(cfg_.llcSets >= cfg_.sampler.numSets);
    setStride_ = cfg_.llcSets / cfg_.sampler.numSets;
    assert(setStride_ > 0);
    if (isPowerOfTwo(setStride_))
        strideShift_ = floorLog2(setStride_);
}

bool
SamplingDeadBlockPredictor::isSampledSet(std::uint32_t set) const
{
    // This runs on every LLC demand access; with the usual
    // power-of-two stride the test is one mask and one shift (two
    // hardware divides otherwise).
    if (strideShift_ != ~0u) {
        return (set & (setStride_ - 1)) == 0 &&
            (set >> strideShift_) < cfg_.sampler.numSets;
    }
    return set % setStride_ == 0 &&
        set / setStride_ < cfg_.sampler.numSets;
}

bool
SamplingDeadBlockPredictor::onAccess(std::uint32_t set, int hit_way,
                                     const Access &a)
{
    // a.thread is ignored: the predictor is thread-oblivious
    // (Sec. III-F).
    ++lookups_;
    const Addr block_addr = a.blockAddr();
    const std::uint64_t sig = signature(a.pc);

    if (cfg_.useSampler) {
        if (isSampledSet(set)) {
            ++updates_;
            // The partial tag is a hash of the full block address
            // folded to tagBits.  (The paper keeps the low-order 15
            // tag bits; hashing generalizes that to 64-bit address
            // spaces where distinct regions could otherwise alias
            // after masking, while preserving the storage cost.)
            const auto partial_tag = static_cast<std::uint16_t>(
                mix64(block_addr) & mask(cfg_.sampler.tagBits));
            sampler_.access(set / setStride_, partial_tag,
                            static_cast<std::uint16_t>(sig), table_);
        }
    } else {
        // Ablation: learn from every access using per-block state.
        ++updates_;
        if (std::uint16_t *last = lastSig_.find(set, hit_way)) {
            table_.decrement(*last);
            *last = static_cast<std::uint16_t>(sig);
        }
        // Missing entries are created by onFill.
    }
    return table_.predict(sig);
}

void
SamplingDeadBlockPredictor::onFill(std::uint32_t set, std::uint32_t way,
                                   const Access &a)
{
    if (!cfg_.useSampler)
        lastSig_.fill(set, way,
                      static_cast<std::uint16_t>(signature(a.pc)));
}

void
SamplingDeadBlockPredictor::onEvict(std::uint32_t set,
                                    std::uint32_t way, Addr)
{
    if (!cfg_.useSampler) {
        if (const auto last = lastSig_.take(set, way))
            table_.increment(*last);
    }
}

void
SamplingDeadBlockPredictor::registerStats(
    obs::StatRegistry &reg, const std::string &prefix) const
{
    using obs::StatRegistry;
    DeadBlockPredictor::registerStats(reg, prefix);
    reg.addCounter(StatRegistry::join(prefix, "lookups"), &lookups_);
    reg.addCounter(StatRegistry::join(prefix, "updates"), &updates_);
    if (cfg_.useSampler) {
        sampler_.registerStats(reg,
                               StatRegistry::join(prefix, "sampler"));
    }
    table_.registerStats(reg, StatRegistry::join(prefix, "table"));
}

void
SamplingDeadBlockPredictor::registerFaultTargets(
    fault::FaultInjector &injector)
{
    if (cfg_.useSampler)
        sampler_.registerFaultTargets(injector, "sampler");
    table_.registerFaultTargets(injector, "table");
}

void
SamplingDeadBlockPredictor::auditInvariants() const
{
#if SDBP_DCHECK_ENABLED
    SDBP_DCHECK_EQ(setStride_, cfg_.llcSets / cfg_.sampler.numSets,
                   "sampler set stride drifted from config");
    SDBP_DCHECK(setStride_ > 0, "sampler set stride must be positive");
    // The set map is stable: exactly numSets LLC sets are shadowed,
    // each by a distinct sampler set.
    std::uint32_t sampled = 0;
    for (std::uint32_t s = 0; s < cfg_.llcSets; ++s)
        sampled += isSampledSet(s) ? 1 : 0;
    SDBP_DCHECK_EQ(sampled, cfg_.sampler.numSets,
                   "sampled-set count drifted from sampler config");
    sampler_.auditInvariants();
    table_.auditInvariants();
#endif // SDBP_DCHECK_ENABLED
}

} // namespace sdbp
