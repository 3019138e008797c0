/**
 * @file
 * Time-based dead block predictor in the spirit of Hu, Kaxiras &
 * Martonosi (ISCA 2002) and Abella et al.'s IATAC (Sec. II-A2 of
 * the paper): learn how long a block stays live, and declare it
 * dead once it has been idle for twice that long.
 *
 * Live times are learned per fill-PC signature (a practical
 * adaptation: the original learned per block, which costs far more
 * state).  The clock is the per-set access count, as in AIP.
 */

#ifndef SDBP_PREDICTOR_TIME_BASED_HH
#define SDBP_PREDICTOR_TIME_BASED_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"
#include "util/hash.hh"

namespace sdbp
{

struct TimeBasedConfig
{
    /** log2 entries of the live-time table. */
    unsigned tableIndexBits = 12;
    /** Width of stored (quantized) live times. */
    unsigned timeBits = 5;
    /** Idle threshold = liveTime * multiplier (2 in the paper). */
    unsigned multiplier = 2;
    std::uint32_t llcSets = 2048;

    /** Live-time table plus one per-set coarse-tick counter. */
    constexpr std::uint64_t
    storageBits() const
    {
        const budget::TableSpec table{
            std::uint64_t(1) << tableIndexBits, timeBits};
        const budget::TableSpec set_counters{llcSets, timeBits};
        return (table.total() + set_counters.total()).count();
    }

    /** Fill tick + last touch (quantized) + prediction bit. */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return timeBits * 2 + 1;
    }
};

class TimeBasedPredictor final : public DeadBlockPredictor
{
  public:
    TimeBasedPredictor(std::uint32_t num_sets, std::uint32_t assoc,
                       const TimeBasedConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;
    SDBP_HOT_PATH bool isDeadNow(std::uint32_t set,
                                 std::uint32_t way) const override;

    std::string name() const override { return "time-based"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    /** Learned live time for a PC (test hook; 0 = unknown). */
    std::uint32_t learnedLiveTime(PC pc) const;

  private:
    struct BlockMeta
    {
        std::uint32_t tableIndex = 0;
        std::uint32_t fillTick = 0;
        std::uint32_t lastTouch = 0;
    };

    std::uint32_t
    tableIndexOf(PC pc) const
    {
        return static_cast<std::uint32_t>(
            makeSignature(pc, cfg_.tableIndexBits));
    }

    TimeBasedConfig cfg_;
    std::uint32_t timeMax_;
    /** Exponential-average live time per fill-PC signature. */
    std::vector<std::uint32_t> liveTime_;
    std::vector<std::uint32_t> setTicks_;
    FrameLane<BlockMeta> meta_;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_TIME_BASED_HH
