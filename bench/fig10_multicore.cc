/**
 * @file
 * Fig. 10: normalized weighted speedup of the quad-core mixes with
 * an 8 MB shared LLC, for (a) a default LRU cache and (b) a default
 * random cache.  Also prints the average normalized MPKIs quoted in
 * Sec. VII-D.
 */

#include <set>

#include "bench/common.hh"

using namespace sdbp;

namespace
{

/** @return the rendered table so main can add it to the report. */
TextTable
runPart(bench::JsonReport &report, const char *title,
        const std::vector<PolicyKind> &policies, const RunConfig &cfg)
{
    std::cout << "\n--- " << title << " ---\n";

    // One grid: the LRU baseline as column 0, then every policy.
    std::vector<PolicyKind> cols = {PolicyKind::Lru};
    cols.insert(cols.end(), policies.begin(), policies.end());
    const auto grid =
        bench::runMixGrid(report, multicoreMixes(), cols, cfg);

    std::vector<std::string> headers = {"Mix"};
    for (const auto kind : policies)
        headers.push_back(policyName(kind));
    TextTable t(headers);

    std::map<std::string, std::vector<double>> speedups;
    std::map<std::string, std::vector<double>> norm_mpki;
    for (std::size_t m = 0; m < grid.mixes.size(); ++m) {
        const auto &lru = grid.at(m, 0);
        const double lru_weighted = weightedIpc(lru, cfg);
        auto &row = t.row().cell(grid.mixes[m].name);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto &r = grid.at(m, p + 1);
            const double w = weightedIpc(r, cfg);
            const double speedup = w / lru_weighted;
            speedups[policyName(policies[p])].push_back(speedup);
            norm_mpki[policyName(policies[p])].push_back(
                lru.mpki > 0 ? r.mpki / lru.mpki : 1.0);
            row.cell(speedup, 3);
        }
    }
    auto &mean_row = t.row().cell("gmean");
    for (const auto kind : policies)
        mean_row.cell(gmean(speedups[policyName(kind)]), 3);
    t.print(std::cout);

    std::cout << "Average normalized MPKI:";
    for (const auto kind : policies)
        std::cout << "  " << policyName(kind) << " "
                  << formatDouble(amean(norm_mpki[policyName(kind)]),
                                  2);
    std::cout << "\n";
    return t;
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Fig. 10: quad-core normalized weighted speedup (8MB LLC)",
        "Fig. 10(a)/(b), Sec. VII-D");

    RunConfig cfg = RunConfig::quadCore();
    // Quad-core runs cost ~4x a single-core run; halving the
    // per-thread budget keeps the full ten-mix sweep tractable while
    // the 8 MB LLC still warms fully.  SDBP_INSTRUCTIONS scales it.
    cfg.measureInstructions =
        std::max<InstCount>(cfg.measureInstructions / 2, 500000);

    bench::JsonReport report("fig10_multicore",
                             "Fig. 10(a)/(b), Sec. VII-D", cfg);

    // Warm the isolatedIpc memo in parallel so the weightedIpc
    // post-processing below never simulates serially.
    std::set<std::string> solo_set;
    for (const auto &mix : multicoreMixes())
        solo_set.insert(mix.benchmarks.begin(), mix.benchmarks.end());
    const std::vector<std::string> solo(solo_set.begin(),
                                        solo_set.end());
    bench::timedParallelFor(report, solo.size(), [&](std::size_t i) {
        (void)isolatedIpc(solo[i], cfg);
    });

    const TextTable ta = runPart(report, "(a) default LRU cache",
                                 multicoreLruPolicies(), cfg);
    std::cout <<
        "Paper reference (gmean): Sampler 1.125, CDBP 1.10, TADIP "
        "1.076, TDBP 1.056, RRIP 1.045.\n";

    const TextTable tb = runPart(report, "(b) default random cache",
                                 randomDefaultPolicies(), cfg);
    std::cout <<
        "Paper reference (gmean): Random Sampler 1.07, Random CDBP "
        "1.06, Random ~1.00.\n"
        "Paper normalized MPKIs: Sampler 0.77, CDBP 0.79, TADIP 0.85, "
        "TDBP 0.95, Random Sampler 0.82,\nRRIP 0.93 (multi-core), "
        "Random CDBP 0.84.\n";

    report.addTable("(a) default LRU cache", ta);
    report.addTable("(b) default random cache", tb);
    report.note("Paper gmean: Sampler 1.125, CDBP 1.10, TADIP 1.076, "
                "TDBP 1.056, RRIP 1.045; Random Sampler 1.07, Random "
                "CDBP 1.06");
    return bench::finish(report);
}
