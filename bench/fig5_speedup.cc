/**
 * @file
 * Fig. 5: per-benchmark speedup (IPC over the LRU baseline) of each
 * technique with a default LRU cache.
 */

#include "bench/common.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Fig. 5: speedup over LRU (LRU default)",
                  "Fig. 5, Sec. VII-A2");

    const RunConfig cfg = RunConfig::singleCore();
    const auto &policies = lruDefaultPolicies();

    bench::JsonReport report("fig5_speedup", "Fig. 5, Sec. VII-A2",
                             cfg);

    // One grid with the LRU baseline as column 0.
    std::vector<PolicyKind> cols = {PolicyKind::Lru};
    cols.insert(cols.end(), policies.begin(), policies.end());
    const auto grid =
        bench::runGrid(report, memoryIntensiveSubset(), cols, cfg);

    TextTable t({"Benchmark", "TDBP", "CDBP", "DIP", "RRIP",
                 "Sampler"});
    std::map<std::string, std::vector<double>> speedups;

    for (std::size_t b = 0; b < grid.benchmarks.size(); ++b) {
        const RunResult &lru = grid.at(b, 0);
        auto &row =
            t.row().cell(sdbp::bench::shortName(grid.benchmarks[b]));
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunResult &r = grid.at(b, p + 1);
            const double speedup =
                lru.ipc > 0 ? r.ipc / lru.ipc : 1.0;
            speedups[policyName(policies[p])].push_back(speedup);
            row.cell(speedup, 3);
        }
    }

    auto &mean_row = t.row().cell("gmean");
    for (const char *name : {"TDBP", "CDBP", "DIP", "RRIP", "Sampler"})
        mean_row.cell(gmean(speedups[name]), 3);
    t.print(std::cout);

    std::cout <<
        "\nPaper reference (gmean speedup): TDBP ~1.00, CDBP 1.023, "
        "DIP 1.031, RRIP 1.041,\nSampler 1.059.  The sampler should "
        "deliver the best geometric mean here.\n";

    report.addTable("speedup over LRU (LRU default)", t);
    report.note("Paper gmean speedup: TDBP ~1.00, CDBP 1.023, "
                "DIP 1.031, RRIP 1.041, Sampler 1.059");
    return bench::finish(report);
}
