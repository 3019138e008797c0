/**
 * @file
 * Fig. 4: LLC misses of each technique normalized to the 2 MB LRU
 * baseline, per benchmark, plus the optimal policy.
 */

#include "bench/common.hh"
#include "opt/belady.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Fig. 4: normalized LLC misses (LRU default)",
                  "Fig. 4, Sec. VII-A1");

    RunConfig cfg = RunConfig::singleCore();
    RunConfig lru_cfg = cfg;
    lru_cfg.recordLlcTrace = true;

    bench::JsonReport report("fig4_mpki", "Fig. 4, Sec. VII-A1", cfg);

    const auto &policies = lruDefaultPolicies();
    const auto &subset = memoryIntensiveSubset();

    const auto baseline =
        bench::runGrid(report, subset, {PolicyKind::Lru}, lru_cfg);
    const auto grid = bench::runGrid(report, subset, policies, cfg);

    // The optimal replays are pure CPU work over the recorded LRU
    // traces; fan them out too.
    std::vector<OptimalResult> opt(subset.size());
    bench::timedParallelFor(report, subset.size(), [&](std::size_t b) {
        const RunResult &lru = baseline.at(b, 0);
        opt[b] = optimalMisses(lru.llcTrace, cfg.hierarchy.llc.numSets,
                               cfg.hierarchy.llc.assoc, true,
                               lru.llcTraceMeasureStart);
    });

    TextTable t({"Benchmark", "TDBP", "CDBP", "DIP", "RRIP", "Sampler",
                 "Optimal"});
    std::map<std::string, std::vector<double>> normalized;

    for (std::size_t b = 0; b < subset.size(); ++b) {
        const RunResult &lru = baseline.at(b, 0);
        auto &row = t.row().cell(sdbp::bench::shortName(subset[b]));
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunResult &r = grid.at(b, p);
            const double norm = lru.llcMisses == 0
                ? 1.0
                : static_cast<double>(r.llcMisses) /
                    static_cast<double>(lru.llcMisses);
            normalized[policyName(policies[p])].push_back(norm);
            row.cell(norm, 3);
        }
        const double onorm = lru.llcMisses == 0
            ? 1.0
            : static_cast<double>(opt[b].misses) /
                static_cast<double>(lru.llcMisses);
        normalized["Optimal"].push_back(onorm);
        row.cell(onorm, 3);
    }

    auto &mean_row = t.row().cell("amean");
    for (const char *name :
         {"TDBP", "CDBP", "DIP", "RRIP", "Sampler", "Optimal"})
        mean_row.cell(amean(normalized[name]), 3);
    t.print(std::cout);

    std::cout <<
        "\nPaper reference (amean normalized misses): TDBP 1.080, "
        "CDBP 0.954, DIP 0.939,\nRRIP 0.919, Sampler 0.883, "
        "Optimal 0.814.\n";

    report.addTable("normalized LLC misses (LRU default)", t);
    report.note("Paper amean normalized misses: TDBP 1.080, "
                "CDBP 0.954, DIP 0.939, RRIP 0.919, Sampler 0.883, "
                "Optimal 0.814");
    return bench::finish(report);
}
