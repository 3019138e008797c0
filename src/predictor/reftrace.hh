/**
 * @file
 * Reference-trace dead block predictor (Lai et al., ISCA 2001), the
 * "reftrace" / TDBP baseline of the paper (Sec. II-A1, IV-A).
 *
 * Each resident block carries a 15-bit signature: the truncated sum
 * of the PCs of all instructions that accessed it this generation.
 * A single table of 2-bit counters maps signatures to confidence
 * that the trace ends a generation (the block is dead).
 */

#ifndef SDBP_PREDICTOR_REFTRACE_HH
#define SDBP_PREDICTOR_REFTRACE_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"
#include "util/hash.hh"

namespace sdbp
{

struct RefTraceConfig
{
    /** Signature width; the table has 2^signatureBits entries. */
    unsigned signatureBits = 15;
    unsigned counterBits = 2;
    unsigned threshold = 2;

    /** The history table: 2^signatureBits saturating counters. */
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

    /** Per-block signature + predicted-dead bit (Sec. IV-A). */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return signatureBits + 1;
    }
};

class RefTracePredictor final : public DeadBlockPredictor
{
  public:
    RefTracePredictor(std::uint32_t num_sets, std::uint32_t assoc,
                      const RefTraceConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;

    std::string name() const override { return "reftrace"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    /** Current signature of the block in (set, way); 0 when the
     *  frame has none (test hook). */
    std::uint64_t signatureOf(std::uint32_t set, std::uint32_t way) const;

    const RefTraceConfig &config() const { return cfg_; }

    /**
     * Fault surface: the history table's saturating counters
     * ("table.counter").  The per-block signature lane models
     * LLC-side metadata, not predictor SRAM, so it is not exposed.
     */
    void registerFaultTargets(fault::FaultInjector &injector) override;

    /** Every counter within its configured saturation width. */
    void auditInvariants() const override;

  private:
    std::uint64_t
    pcSignature(PC pc) const
    {
        return makeSignature(pc, cfg_.signatureBits);
    }

    unsigned counterMax_;
    RefTraceConfig cfg_;
    std::vector<std::uint8_t> table_;
    /** Per-block signature: the 64 KB of Table I's metadata. */
    FrameLane<std::uint16_t> sig_;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_REFTRACE_HH
