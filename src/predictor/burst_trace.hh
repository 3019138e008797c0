/**
 * @file
 * Cache-bursts variant of the reference-trace predictor (Liu et al.
 * MICRO 2008, Sec. II-A3 of the paper; evaluating it at the LLC is
 * listed as future work in Sec. VIII).
 *
 * A burst is a run of consecutive accesses to the same block with no
 * intervening access to its set.  The signature is extended and the
 * tables trained once per burst instead of once per access, reducing
 * predictor traffic.  The paper notes bursts buy little at the LLC
 * because the L1 already filters most of them — this implementation
 * lets that claim be measured.
 */

#ifndef SDBP_PREDICTOR_BURST_TRACE_HH
#define SDBP_PREDICTOR_BURST_TRACE_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"
#include "util/hash.hh"

namespace sdbp
{

struct BurstTraceConfig
{
    unsigned signatureBits = 15;
    unsigned counterBits = 2;
    unsigned threshold = 2;
    std::uint32_t llcSets = 2048;

    /** The burst-history table of saturating counters. */
    constexpr budget::TableSpec
    storageSpec() const
    {
        return {std::uint64_t(1) << signatureBits, counterBits};
    }

    constexpr std::uint64_t
    storageBits() const
    {
        return storageSpec().total().count();
    }

    /** Per-block signature + predicted-dead bit. */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return signatureBits + 1;
    }
};

class BurstTracePredictor final : public DeadBlockPredictor
{
  public:
    BurstTracePredictor(std::uint32_t num_sets, std::uint32_t assoc,
                        const BurstTraceConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;

    std::string name() const override { return "burst-trace"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    /** Number of burst boundaries observed (test hook). */
    std::uint64_t bursts() const { return bursts_; }
    /** Accesses folded into an ongoing burst (test hook). */
    std::uint64_t filteredAccesses() const { return filtered_; }

  private:
    std::uint64_t
    pcSignature(PC pc) const
    {
        return makeSignature(pc, cfg_.signatureBits);
    }

    BurstTraceConfig cfg_;
    unsigned counterMax_;
    std::vector<std::uint8_t> table_;
    /** Most recently accessed block per set (burst detection). */
    std::vector<Addr> lastBlock_;
    /** Per-block burst-trace signature. */
    FrameLane<std::uint16_t> sig_;
    std::uint64_t bursts_ = 0;
    std::uint64_t filtered_ = 0;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_BURST_TRACE_HH
