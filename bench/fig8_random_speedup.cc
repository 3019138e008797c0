/**
 * @file
 * Fig. 8: speedup over the LRU baseline with a default
 * random-replacement cache.
 */

#include "bench/common.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Fig. 8: speedup over LRU (random default)",
                  "Fig. 8, Sec. VII-B2");

    const RunConfig cfg = RunConfig::singleCore();
    const auto &policies = randomDefaultPolicies();

    bench::JsonReport report("fig8_random_speedup",
                             "Fig. 8, Sec. VII-B2", cfg);

    std::vector<PolicyKind> cols = {PolicyKind::Lru};
    cols.insert(cols.end(), policies.begin(), policies.end());
    const auto grid =
        bench::runGrid(report, memoryIntensiveSubset(), cols, cfg);

    TextTable t({"Benchmark", "Random", "Random CDBP",
                 "Random Sampler"});
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
    for (const char *name : {"Random", "Random CDBP", "Random Sampler"})
        mean_row.cell(gmean(speedups[name]), 3);
    t.print(std::cout);

    std::cout <<
        "\nPaper reference (gmean): Random 0.989, Random CDBP 1.001, "
        "Random Sampler 1.034.\n";

    report.addTable("speedup over LRU (random default)", t);
    report.note("Paper gmean: Random 0.989, Random CDBP 1.001, "
                "Random Sampler 1.034");
    return bench::finish(report);
}
