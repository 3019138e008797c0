#include "power/storage.hh"

#include <memory>

#include "core/sdbp.hh"
#include "power/budget_audit.hh"
#include "predictor/aip.hh"
#include "predictor/burst_trace.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"
#include "predictor/sampling_counting.hh"
#include "predictor/time_based.hh"

namespace sdbp
{

namespace
{

double
bitsToKB(std::uint64_t bits)
{
    return static_cast<double>(bits) / 8.0 / 1024.0;
}

} // anonymous namespace

double
StorageBreakdown::totalKB() const
{
    return bitsToKB(totalBits());
}

double
StorageBreakdown::predictorKB() const
{
    return bitsToKB(predictorBits);
}

double
StorageBreakdown::metadataKB() const
{
    return bitsToKB(metadataBits());
}

double
StorageBreakdown::fractionOfCache(std::uint64_t cache_bytes) const
{
    if (cache_bytes == 0)
        return 0.0;
    return static_cast<double>(totalBits()) / 8.0 /
        static_cast<double>(cache_bytes);
}

StorageBreakdown
storageOf(const DeadBlockPredictor &predictor, std::uint64_t num_blocks)
{
    StorageBreakdown b;
    b.predictor = predictor.name();
    b.predictorBits = predictor.storageBits();
    b.metadataBitsPerBlock = predictor.metadataBitsPerBlock();
    b.numBlocks = num_blocks;
    return b;
}

std::vector<StorageModel::Entry>
StorageModel::shipped(std::uint64_t num_blocks)
{
    // Same order as budget_audit::shippedRows() — the pairing below
    // is positional.  The shipped configurations are sized for the
    // 2 MB LLC (2048 sets x 16 ways).
    constexpr std::uint32_t sets = 2048, ways = 16;
    std::vector<std::unique_ptr<DeadBlockPredictor>> predictors;
    predictors.push_back(std::make_unique<SamplingDeadBlockPredictor>(
        sets, ways, SdbpConfig::paperDefault()));
    predictors.push_back(std::make_unique<SamplingDeadBlockPredictor>(
        sets, ways, SdbpConfig::singleTable()));
    predictors.push_back(std::make_unique<RefTracePredictor>(sets, ways));
    predictors.push_back(std::make_unique<CountingPredictor>(sets, ways));
    predictors.push_back(
        std::make_unique<SamplingCountingPredictor>(sets, ways));
    predictors.push_back(std::make_unique<AipPredictor>(sets, ways));
    predictors.push_back(std::make_unique<TimeBasedPredictor>(sets, ways));
    predictors.push_back(std::make_unique<BurstTracePredictor>(sets, ways));

    constexpr auto rows = budget_audit::shippedRows();
    static_assert(rows.size() == 8,
                  "audit rows and predictor list must stay in sync");

    std::vector<Entry> entries;
    entries.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        Entry e;
        e.label = rows[i].label;
        e.breakdown = storageOf(*predictors[i], num_blocks);
        e.auditPredictorBits = rows[i].predictorBits;
        e.auditMetadataBitsPerBlock = rows[i].metadataBitsPerBlock;
        entries.push_back(std::move(e));
    }
    return entries;
}

} // namespace sdbp
