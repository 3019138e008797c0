/**
 * @file
 * Counting-based Live-time Predictor (LvP) of Kharbutli & Solihin
 * (IEEE TC 2008), the "counting" / CDBP baseline (Sec. II-A4, IV-B).
 *
 * A block is predicted dead once it has been accessed as many times
 * as in its previous generation, provided the count matched across
 * the last two generations (one-bit confidence).  The table is a
 * matrix indexed by hashed fill PC (rows) and hashed block address
 * (columns).
 */

#ifndef SDBP_PREDICTOR_COUNTING_HH
#define SDBP_PREDICTOR_COUNTING_HH

#include <vector>

#include "predictor/dead_block_predictor.hh"
#include "util/budget.hh"

namespace sdbp
{

struct CountingConfig
{
    /** log2 of the number of rows (hashed PC). */
    unsigned rowBits = 8;
    /** log2 of the number of columns (hashed block address). */
    unsigned colBits = 8;
    /** Width of the per-entry access counter. */
    unsigned counterBits = 4;

    /** PC x addr matrix of count + confidence-bit entries. */
    constexpr budget::TableSpec
    storageSpec() const
    {
        return {std::uint64_t(1) << (rowBits + colBits),
                counterBits + 1};
    }

    constexpr std::uint64_t
    storageBits() const
    {
        return storageSpec().total().count();
    }

    /** 8-bit hashed PC + two counters + confidence bit (Sec. IV-B). */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return 8 + counterBits + counterBits + 1;
    }
};

class CountingPredictor final : public DeadBlockPredictor
{
  public:
    CountingPredictor(std::uint32_t num_sets, std::uint32_t assoc,
                      const CountingConfig &cfg = {});

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;

    std::string name() const override { return "counting"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    const CountingConfig &config() const { return cfg_; }

    /**
     * Fault surface: the PC x addr matrix's access counts
     * ("table.count") and confidence bits ("table.confident").
     * Per-block metadata rides with the LLC blocks and is not
     * exposed.
     */
    void registerFaultTargets(fault::FaultInjector &injector) override;

    /** Every table count within its configured counter width. */
    void auditInvariants() const override;

  private:
    struct TableEntry
    {
        std::uint8_t count = 0;
        bool confident = false;
    };

    /** Metadata a real implementation stores beside each block. */
    struct BlockMeta
    {
        std::uint32_t entryIndex = 0;
        std::uint8_t count = 0;
        /** Live-time threshold captured at fill. */
        std::uint8_t threshold = 0;
        bool confident = false;
    };

    std::uint32_t entryIndexOf(PC pc, Addr block_addr) const;

    CountingConfig cfg_;
    unsigned counterMax_;
    std::vector<TableEntry> table_;
    FrameLane<BlockMeta> meta_;
};

} // namespace sdbp

#endif // SDBP_PREDICTOR_COUNTING_HH
