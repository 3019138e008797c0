/**
 * @file
 * Table I: storage overhead of the reftrace, counting and sampling
 * predictors for a 2 MB LLC.
 */

#include "bench/common.hh"
#include "core/sdbp.hh"
#include "power/storage.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Table I: predictor storage overhead",
                  "Table I, Sec. IV-A/B/C");

    constexpr std::uint64_t llc_blocks = 32768;
    constexpr std::uint64_t llc_bytes = 2ull * 1024 * 1024;

    bench::JsonReport report("table1_storage",
                             "Table I, Sec. IV-A/B/C");

    // Sized for the 2 MB LLC: 2048 sets x 16 ways.
    RefTracePredictor reftrace(2048, 16);
    CountingPredictor counting(2048, 16);
    SamplingDeadBlockPredictor sampler(2048, 16);

    struct Row
    {
        const DeadBlockPredictor *p;
        double paper_total_kb;
    };
    const std::vector<Row> rows = {
        {&reftrace, 72.0},
        {&counting, 108.0},
        {&sampler, 13.75},
    };

    TextTable t({"Predictor", "Predictor structures (KB)",
                 "Cache metadata (KB)", "Total (KB)",
                 "% of 2MB LLC", "Paper total (KB)"});
    for (const auto &row : rows) {
        const StorageBreakdown b = storageOf(*row.p, llc_blocks);
        t.row()
            .cell(b.predictor)
            .cell(b.predictorKB(), 3)
            .cell(b.metadataKB(), 1)
            .cell(b.totalKB(), 3)
            .cell(formatPercent(b.fractionOfCache(llc_bytes), 2))
            .cell(row.paper_total_kb, 2);
    }
    t.print(std::cout);

    std::cout <<
        "\nNote: the sampler tag array computes to 1.6875 KB from the\n"
        "paper's own per-entry fields (36 bits x 12 ways x 32 sets);\n"
        "the paper's Table I lists 6.75 KB for it (a 4x discrepancy,\n"
        "see EXPERIMENTS.md).  Either way the sampling predictor is\n"
        "well under 1% of LLC capacity while reftrace and counting\n"
        "cost 3.5% and 5.3%.\n";

    report.addTable("predictor storage overhead", t);
    report.note("Paper totals (KB): reftrace 72, counting 108, "
                "sampler 13.75 (see EXPERIMENTS.md on the sampler "
                "discrepancy)");
    return bench::finish(report);
}
