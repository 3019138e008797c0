/**
 * @file
 * Table IV: the ten quad-core workload mixes, with a compact cache
 * sensitivity characterization of each (LLC MPKI of the mix under
 * LRU at several shared-cache sizes — the paper presents the same
 * information as per-mix sensitivity curves).
 */

#include "bench/common.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Table IV: multi-core workload mixes",
                  "Table IV, Sec. VI-A2");

    RunConfig base = RunConfig::quadCore();
    // Sensitivity sweeps are expensive; a shorter budget per point
    // still shows the curve shape.
    base.measureInstructions =
        std::max<InstCount>(base.measureInstructions / 4, 250000);
    base.warmupInstructions =
        std::max<InstCount>(base.warmupInstructions / 4, 100000);

    const std::vector<std::uint32_t> llc_sets = {1024, 2048, 4096,
                                                 8192}; // 1..8 MB

    bench::JsonReport report("table4_mixes", "Table IV, Sec. VI-A2",
                             base);

    // Every (mix, LLC size) sensitivity point is independent;
    // flatten the whole matrix into one parallel sweep.
    const auto &mixes = multicoreMixes();
    std::vector<MulticoreRunResult> cells(mixes.size() *
                                          llc_sets.size());
    bench::timedParallelFor(report, cells.size(), [&](std::size_t i) {
        RunConfig cfg = base;
        cfg.hierarchy.llc.numSets = llc_sets[i % llc_sets.size()];
        cells[i] = runMulticore(mixes[i / llc_sets.size()],
                                PolicyKind::Lru, cfg);
    });

    TextTable t({"Mix", "Benchmarks", "MPKI @1MB", "@2MB", "@4MB",
                 "@8MB"});
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const auto &mix = mixes[m];
        std::string benches;
        for (const auto &b : mix.benchmarks) {
            if (!benches.empty())
                benches += ' ';
            benches += bench::shortName(b);
        }
        auto &row = t.row().cell(mix.name).cell(benches);
        for (std::size_t s = 0; s < llc_sets.size(); ++s) {
            const auto &r = cells[m * llc_sets.size() + s];
            report.addRun(mix.name + "@" +
                              std::to_string(llc_sets[s]) + "sets",
                          "LRU", r.wallSeconds);
            row.cell(r.mpki, 2);
        }
    }
    t.print(std::cout);
    std::cout << "\nMPKI falls with shared-LLC size; the decline rate "
                 "is each mix's cache sensitivity curve.\n";

    report.addTable("multi-core workload mixes", t);
    return bench::finish(report);
}
