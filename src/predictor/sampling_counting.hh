/**
 * @file
 * Sampling counting predictor — the paper's future-work item
 * (Sec. VIII: "we plan to investigate sampling techniques for
 * counting predictors").
 *
 * Like LvP, a block is predicted dead once its access count this
 * generation reaches the count its fill PC historically produces.
 * Like SDBP, the count table is trained only by a small decoupled
 * sampler tag array rather than by every cache eviction, so the
 * predictor table is accessed rarely and per-block cache metadata
 * shrinks to a fill-signature-free small counter.
 */

#ifndef SDBP_PREDICTOR_SAMPLING_COUNTING_HH
#define SDBP_PREDICTOR_SAMPLING_COUNTING_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"
#include "util/hash.hh"

namespace sdbp
{

struct SamplingCountingConfig
{
    std::uint32_t samplerSets = 32;
    std::uint32_t samplerAssoc = 12;
    unsigned tagBits = 15;
    /** log2 entries of the count table (PC-signature indexed). */
    unsigned tableIndexBits = 12;
    /** Width of live-time counters. */
    unsigned counterBits = 4;
    /** Confidence needed before predictions fire (2-bit counter). */
    unsigned confidenceThreshold = 2;
    std::uint32_t llcSets = 2048;

    /** Count table: count + 2-bit confidence per entry. */
    constexpr budget::TableSpec
    tableSpec() const
    {
        return {std::uint64_t(1) << tableIndexBits, counterBits + 2};
    }

    /** Sampler: tag + fill signature + count + valid + 4 LRU bits. */
    constexpr budget::TableSpec
    samplerSpec() const
    {
        return {std::uint64_t(samplerSets) * samplerAssoc,
                tagBits + tableIndexBits + counterBits + 1 + 4};
    }

    constexpr std::uint64_t
    storageBits() const
    {
        return (tableSpec().total() + samplerSpec().total()).count();
    }

    /** Fill signature + count + prediction bit per block. */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return tableIndexBits + counterBits + 1;
    }
};

class SamplingCountingPredictor final : public DeadBlockPredictor
{
  public:
    SamplingCountingPredictor(std::uint32_t num_sets,
                              std::uint32_t assoc,
                              const SamplingCountingConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;

    std::string name() const override { return "sampling-counting"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    bool isSampledSet(std::uint32_t set) const;
    const SamplingCountingConfig &config() const { return cfg_; }

  private:
    struct TableEntry
    {
        std::uint8_t count = 0;
        std::uint8_t confidence = 0; // 2-bit
    };

    struct SamplerEntry
    {
        std::uint16_t tag = 0;
        std::uint16_t fillSig = 0;
        std::uint8_t count = 0;
        bool valid = false;
        std::uint8_t lruPos = 0;
    };

    /** Per-resident-LLC-block state (fill signature + count). */
    struct BlockMeta
    {
        std::uint16_t fillSig = 0;
        std::uint8_t count = 0;
    };

    std::uint64_t
    signature(PC pc) const
    {
        return makeSignature(pc, cfg_.tableIndexBits);
    }

    bool predictFromTable(std::uint16_t sig, unsigned count) const;
    void samplerAccess(std::uint32_t sampler_set,
                       std::uint16_t partial_tag, std::uint16_t sig);

    SamplingCountingConfig cfg_;
    unsigned counterMax_;
    std::uint32_t setStride_;
    std::vector<TableEntry> table_;
    std::vector<SamplerEntry> sampler_;
    FrameLane<BlockMeta> meta_;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_SAMPLING_COUNTING_HH
