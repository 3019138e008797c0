/**
 * @file
 * Fig. 1 + Sec. I: cache efficiency (live-time ratio).  Runs
 * 456.hmmer with a 1 MB LRU LLC and with the sampling dead-block
 * policy, reports the efficiency of each, and reports the average
 * dead-time fraction across the memory-intensive subset under LRU
 * (the paper's "blocks are dead 86% of the time" claim uses a 2 MB
 * LLC).
 */

#include "bench/common.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Fig. 1: cache efficiency (live-time ratio)",
                  "Fig. 1 and the Sec. I dead-time claim");

    // Part (a)/(b): 456.hmmer with a 1 MB LLC.
    RunConfig cfg = RunConfig::singleCore();
    cfg.hierarchy.llc.numSets = 1024; // 1 MB
    cfg.trackEfficiency = true;

    bench::JsonReport report("fig1_efficiency",
                             "Fig. 1 and the Sec. I dead-time claim",
                             cfg);

    const auto hmmer = bench::runGrid(
        report, {"456.hmmer"},
        {PolicyKind::Lru, PolicyKind::Sampler}, cfg);
    const RunResult &lru = hmmer.at(0, 0);
    const RunResult &sampler = hmmer.at(0, 1);

    TextTable t({"Configuration", "Efficiency", "Paper"});
    t.row().cell("1MB LRU (a)")
        .cell(formatPercent(lru.llcEfficiency, 1))
        .cell("22%");
    t.row().cell("1MB sampler DBRB (b)")
        .cell(formatPercent(sampler.llcEfficiency, 1))
        .cell("87%");
    t.print(std::cout);

    // Sec. I claim: average dead fraction over the subset, 2 MB LRU.
    RunConfig cfg2 = RunConfig::singleCore();
    cfg2.trackEfficiency = true;
    const auto subset = bench::runGrid(report, memoryIntensiveSubset(),
                                       {PolicyKind::Lru}, cfg2);
    std::vector<double> dead_fractions;
    for (std::size_t b = 0; b < subset.benchmarks.size(); ++b)
        dead_fractions.push_back(1.0 - subset.at(b, 0).llcEfficiency);
    std::cout << "\nAverage dead-time fraction, 2MB LRU LLC, "
                 "19-benchmark subset: "
              << formatPercent(amean(dead_fractions), 1)
              << " (paper: 86.2%)\n";
    std::cout << "A PGM heat map like Fig. 1 can be produced with "
                 "examples/efficiency_visualizer.\n";

    report.addTable("cache efficiency (live-time ratio)", t);
    report.note("Average dead-time fraction, 2MB LRU LLC, subset: " +
                formatPercent(amean(dead_fractions), 1) +
                " (paper: 86.2%)");
    return bench::finish(report);
}
