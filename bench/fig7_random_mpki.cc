/**
 * @file
 * Fig. 7: LLC misses with a default random-replacement cache,
 * normalized to the same 2 MB LRU baseline as Fig. 4.
 */

#include "bench/common.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Fig. 7: normalized LLC misses (random default)",
                  "Fig. 7, Sec. VII-B1");

    const RunConfig cfg = RunConfig::singleCore();
    const auto &policies = randomDefaultPolicies();

    bench::JsonReport report("fig7_random_mpki",
                             "Fig. 7, Sec. VII-B1", cfg);

    std::vector<PolicyKind> cols = {PolicyKind::Lru};
    cols.insert(cols.end(), policies.begin(), policies.end());
    const auto grid =
        bench::runGrid(report, memoryIntensiveSubset(), cols, cfg);

    TextTable t({"Benchmark", "Random", "Random CDBP",
                 "Random Sampler"});
    std::map<std::string, std::vector<double>> normalized;

    for (std::size_t b = 0; b < grid.benchmarks.size(); ++b) {
        const RunResult &lru = grid.at(b, 0);
        auto &row =
            t.row().cell(sdbp::bench::shortName(grid.benchmarks[b]));
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunResult &r = grid.at(b, p + 1);
            const double norm = lru.llcMisses == 0
                ? 1.0
                : static_cast<double>(r.llcMisses) /
                    static_cast<double>(lru.llcMisses);
            normalized[policyName(policies[p])].push_back(norm);
            row.cell(norm, 3);
        }
    }

    auto &mean_row = t.row().cell("amean");
    for (const char *name : {"Random", "Random CDBP", "Random Sampler"})
        mean_row.cell(amean(normalized[name]), 3);
    t.print(std::cout);

    std::cout <<
        "\nPaper reference (amean, normalized to LRU): Random 1.025, "
        "Random CDBP ~1.00,\nRandom Sampler 0.925.  The random-default "
        "sampler needs only 1 bit of per-block metadata.\n";

    report.addTable("normalized LLC misses (random default)", t);
    report.note("Paper amean normalized misses: Random 1.025, "
                "Random CDBP ~1.00, Random Sampler 0.925");
    return bench::finish(report);
}
