/**
 * @file
 * The sampling dead block predictor (SDBP) — the paper's primary
 * contribution (Sec. III).
 *
 * On every LLC demand access the predictor hashes the PC into a
 * 15-bit signature and consults the skewed tables; the block is
 * predicted dead when the summed confidence meets the threshold.
 * Only accesses that fall into one of the 32 sampled LLC sets update
 * any state: they stream through the sampler tag array, whose hits
 * and evictions train the tables.
 *
 * For the component ablation of Fig. 6, the sampler can be disabled
 * (`useSampler = false`); the predictor then keeps a last-touch-PC
 * record for every resident LLC block and trains on every access and
 * eviction — the "DBRB alone" configuration equivalent to reftrace
 * with a PC-only trace.
 */

#ifndef SDBP_CORE_SDBP_HH
#define SDBP_CORE_SDBP_HH

#include "core/sampler.hh"
#include "core/skewed_table.hh"
#include "predictor/dead_block_predictor.hh"
#include "util/hotpath.hh"

namespace sdbp
{

struct SdbpConfig
{
    SamplerConfig sampler;
    SkewedTableConfig table;
    /** Width of the PC signature fed to the tables. */
    unsigned signatureBits = 15;
    /** Number of sets of the LLC being predicted for. */
    std::uint32_t llcSets = 2048;
    /** Fig. 6 ablation: learn from every set instead of sampling. */
    bool useSampler = true;

    /**
     * The paper's default configuration: 32-set 12-way sampler,
     * three 4096-entry 2-bit banks, threshold 8.  (constexpr so the
     * compile-time budget audit can evaluate shipped configs.)
     */
    static constexpr SdbpConfig
    paperDefault(std::uint32_t llc_sets = 2048)
    {
        SdbpConfig cfg;
        cfg.llcSets = llc_sets;
        return cfg;
    }

    /**
     * The single-table configuration used by the Fig. 6 ablation:
     * one 16384-entry bank (the skewed banks are "each one-fourth
     * the size of the single-table predictor"), threshold 2.
     */
    static constexpr SdbpConfig
    singleTable(std::uint32_t llc_sets = 2048)
    {
        SdbpConfig cfg;
        cfg.llcSets = llc_sets;
        cfg.table.numTables = 1;
        cfg.table.indexBits = 14; // 16384 entries = 4 x 4096
        cfg.table.threshold = 2;
        return cfg;
    }

    /** Predictor-side storage: tables plus (if enabled) sampler. */
    constexpr std::uint64_t
    storageBits() const
    {
        return table.storageBits() +
            (useSampler ? sampler.storageBits() : 0);
    }

    /**
     * One predicted-dead bit per cache block (Sec. III-C); the
     * no-sampler ablation instead needs a per-block signature too.
     */
    constexpr std::uint64_t
    metadataBitsPerBlock() const
    {
        return useSampler ? 1 : 1 + signatureBits;
    }
};

class SamplingDeadBlockPredictor final : public DeadBlockPredictor
{
  public:
    SamplingDeadBlockPredictor(
        std::uint32_t num_sets, std::uint32_t assoc,
        const SdbpConfig &cfg = SdbpConfig::paperDefault());

    SDBP_HOT_PATH bool onAccess(std::uint32_t set, int hit_way,
                                const Access &a) override;
    SDBP_HOT_PATH void onFill(std::uint32_t set, std::uint32_t way,
                              const Access &a) override;
    SDBP_HOT_PATH void onEvict(std::uint32_t set, std::uint32_t way,
                               Addr block_addr) override;

    std::string name() const override { return "sampler"; }
    std::uint64_t storageBits() const override { return cfg_.storageBits(); }
    std::uint64_t metadataBitsPerBlock() const override
    {
        return cfg_.metadataBitsPerBlock();
    }

    /**
     * Base gauges plus lookup/update counters and the sampler's and
     * table's own stats ("<prefix>.sampler.*", "<prefix>.table.*").
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const override;

    /** Number of LLC accesses that updated predictor state. */
    std::uint64_t updates() const { return updates_; }
    /** Number of predictor consultations. */
    std::uint64_t lookups() const { return lookups_; }

    const SdbpConfig &config() const { return cfg_; }
    const Sampler &sampler() const { return sampler_; }
    const SkewedTable &table() const { return table_; }
    SkewedTable &table() { return table_; }

    /** True when LLC set @p set is shadowed by a sampler set. */
    SDBP_HOT_PATH bool isSampledSet(std::uint32_t set) const;

    /**
     * Panic (via SDBP_DCHECK) unless the sampler-set map is stable
     * (stride divides the LLC evenly and every sampler set shadows
     * exactly one LLC set) and the sampler/table invariants hold.
     */
    void auditInvariants() const override;

    /**
     * Fault surface: the sampler tag array ("sampler.*") and the
     * skewed counter banks ("table.*") — exactly the Sec. IV-C
     * storage budget.  The per-block signature lane of the
     * useSampler=false ablation is LLC metadata and is not exposed.
     */
    void registerFaultTargets(fault::FaultInjector &injector) override;

    /** 15-bit signature of a PC. */
    SDBP_HOT_PATH std::uint64_t
    signature(PC pc) const
    {
        return makeSignature(pc, cfg_.signatureBits);
    }

  private:
    SdbpConfig cfg_;
    Sampler sampler_;
    SkewedTable table_;
    /** LLC sets per sampler set. */
    std::uint32_t setStride_;
    /**
     * floorLog2(setStride_) when the stride is a power of two (the
     * paper geometry: 2048/32 = 64), so the per-LLC-access sampled-set
     * test is a mask instead of two hardware divides; UINT32_MAX
     * flags a non-power-of-two stride (divide fallback).
     */
    std::uint32_t strideShift_ = ~0u;
    std::uint64_t updates_ = 0;
    std::uint64_t lookups_ = 0;

    /** useSampler=false: per-block last-touch signature (no lane
     *  is allocated with the sampler on). */
    FrameLane<std::uint16_t> lastSig_;
};

} // namespace sdbp

#endif // SDBP_CORE_SDBP_HH
