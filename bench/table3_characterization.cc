/**
 * @file
 * Table III: per-benchmark characterization — LRU MPKI, optimal
 * (MIN + bypass) MPKI and LRU IPC for the 2 MB LLC, for all 29
 * benchmark profiles.  Benchmarks in the memory-intensive subset
 * (>= 1% miss reduction under optimal) are marked with '*'.
 */

#include <algorithm>

#include "bench/common.hh"
#include "opt/belady.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Table III: benchmark characterization",
                  "Table III, Sec. VI-A1");

    RunConfig cfg = RunConfig::singleCore();
    cfg.recordLlcTrace = true;

    bench::JsonReport report("table3_characterization",
                             "Table III, Sec. VI-A1", cfg);

    const auto &subset = memoryIntensiveSubset();
    const auto &all = allSpecBenchmarks();

    // Each task runs the LRU simulation and the MIN replay of its
    // recorded trace, then drops the (large) trace before storing.
    struct Characterization
    {
        RunResult lru;
        std::uint64_t opt_misses = 0;
    };
    std::vector<Characterization> rows(all.size());
    bench::timedParallelFor(report, all.size(), [&](std::size_t i) {
        RunResult lru = runSingleCore(all[i], PolicyKind::Lru, cfg);
        const OptimalResult opt = optimalMisses(
            lru.llcTrace, cfg.hierarchy.llc.numSets,
            cfg.hierarchy.llc.assoc, true, lru.llcTraceMeasureStart);
        rows[i].opt_misses = opt.misses;
        lru.llcTrace = {};
        rows[i].lru = std::move(lru);
    });

    TextTable t({"Benchmark", "MPKI (LRU)", "MPKI (MIN)", "IPC (LRU)",
                 "MIN gain", "subset"});
    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::string &name = all[i];
        const RunResult &lru = rows[i].lru;
        report.addRun(name, "LRU", lru.wallSeconds);
        const double min_mpki = mpki(rows[i].opt_misses,
                                     lru.instructions);
        const double gain = lru.llcMisses == 0
            ? 0.0
            : 1.0 - static_cast<double>(rows[i].opt_misses) /
                  static_cast<double>(lru.llcMisses);
        const bool in_subset =
            std::find(subset.begin(), subset.end(), name) !=
            subset.end();
        t.row()
            .cell(bench::shortName(name))
            .cell(lru.mpki, 2)
            .cell(min_mpki, 2)
            .cell(lru.ipc, 2)
            .cell(formatPercent(gain, 1))
            .cell(in_subset ? "*" : "");
    }
    t.print(std::cout);
    std::cout << "\n'*' marks the 19-benchmark memory-intensive subset "
                 "used by Figs. 4-9.\n";

    report.addTable("benchmark characterization", t);
    report.note("'*' marks the 19-benchmark memory-intensive subset");
    return bench::finish(report);
}
