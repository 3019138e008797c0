/**
 * @file
 * Access Interval Predictor (AIP), the second counting-based
 * predictor of Kharbutli & Solihin (IEEE TC 2008), mentioned in
 * Sec. II-A4 of the paper ("An Access Interval Predictor (AIP) is
 * also described in the same paper, but we focus on LvP").
 *
 * AIP learns, per <fill-PC, block> table entry, the largest interval
 * (in accesses to the block's set) between consecutive touches of a
 * block within one generation.  A resident block is considered dead
 * once the time since its last touch exceeds that learned maximum —
 * deadness that develops *between* accesses and is reported through
 * isDeadNow().
 */

#ifndef SDBP_PREDICTOR_AIP_HH
#define SDBP_PREDICTOR_AIP_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"

namespace sdbp
{

struct AipConfig
{
    unsigned rowBits = 8; ///< log2 rows (hashed fill PC)
    unsigned colBits = 8; ///< log2 columns (hashed block address)
    /** Intervals are quantized to ceil(log2) in this many bits. */
    unsigned intervalBits = 4;
    std::uint32_t llcSets = 2048;

    /** Interval + confidence bit per entry, plus one per-set
     *  interval counter. */
    constexpr std::uint64_t
    storageBits() const
    {
        const budget::TableSpec table{
            std::uint64_t(1) << (rowBits + colBits),
            intervalBits + 1};
        const budget::TableSpec set_counters{llcSets, intervalBits};
        return (table.total() + set_counters.total()).count();
    }

    /** Hashed PC (8) + last-touch interval + max interval + learned
     *  threshold + confidence + prediction bit. */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return 8 + intervalBits * 3 + 1 + 1;
    }
};

class AipPredictor final : public DeadBlockPredictor
{
  public:
    AipPredictor(std::uint32_t num_sets, std::uint32_t assoc,
                 const AipConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;
    SDBP_HOT_PATH bool isDeadNow(std::uint32_t set,
                                 std::uint32_t way) const override;

    std::string name() const override { return "aip"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    const AipConfig &config() const { return cfg_; }

  private:
    struct TableEntry
    {
        /** log2-quantized maximum access interval. */
        std::uint8_t maxInterval = 0;
        bool confident = false;
    };

    struct BlockMeta
    {
        std::uint32_t entryIndex = 0;
        /** Set-access count at the last touch. */
        std::uint32_t lastTouch = 0;
        /** Largest quantized interval seen this generation. */
        std::uint8_t maxInterval = 0;
        /** Learned bound captured at fill. */
        std::uint8_t threshold = 0;
        bool confident = false;
    };

    static std::uint8_t quantize(std::uint32_t interval);
    std::uint32_t entryIndexOf(PC pc, Addr block_addr) const;

    AipConfig cfg_;
    std::vector<TableEntry> table_;
    /** Per-set access counters (the predictor's clock). */
    std::vector<std::uint32_t> setTicks_;
    FrameLane<BlockMeta> meta_;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_AIP_HH
