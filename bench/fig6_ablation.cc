/**
 * @file
 * Fig. 6: contribution of the sampling predictor's components —
 * every feasible combination of {sampler, 12-way sampler, skewed
 * 3-table predictor} on top of dead-block replacement and bypass
 * (DBRB), as geometric-mean speedup over the LRU baseline.
 *
 * Extended rows additionally ablate the design choices DESIGN.md §6
 * calls out: learn-from-own-evictions, bypass, and the confidence
 * threshold.
 */

#include "bench/common.hh"

using namespace sdbp;

namespace
{

struct Variant
{
    std::string name;
    PolicyOptions opts;
};

double
gmeanSpeedup(bench::JsonReport &report, const Variant &v,
             const RunConfig &base,
             const std::map<std::string, double> &lru_ipc)
{
    RunConfig cfg = base;
    cfg.policy = v.opts;
    const auto grid = bench::runGrid(report, memoryIntensiveSubset(),
                                     {PolicyKind::Sampler}, cfg);
    std::vector<double> speedups;
    for (std::size_t b = 0; b < grid.benchmarks.size(); ++b)
        speedups.push_back(grid.at(b, 0).ipc /
                           lru_ipc.at(grid.benchmarks[b]));
    return gmean(speedups);
}

} // anonymous namespace

int
main()
{
    bench::banner("Fig. 6: component contribution ablation",
                  "Fig. 6, Sec. VII-A4 (+ DESIGN.md §6 extras)");

    const RunConfig cfg = RunConfig::singleCore();
    const std::uint32_t llc_sets = cfg.hierarchy.llc.numSets;

    bench::JsonReport report("fig6_ablation", "Fig. 6, Sec. VII-A4",
                             cfg);

    const auto lru_grid = bench::runGrid(
        report, memoryIntensiveSubset(), {PolicyKind::Lru}, cfg);
    std::map<std::string, double> lru_ipc;
    for (std::size_t b = 0; b < lru_grid.benchmarks.size(); ++b)
        lru_ipc[lru_grid.benchmarks[b]] = lru_grid.at(b, 0).ipc;

    auto variant = [&](std::string name, bool use_sampler,
                       bool skewed, std::uint32_t sampler_assoc) {
        Variant v;
        v.name = std::move(name);
        SdbpConfig s = skewed ? SdbpConfig::paperDefault(llc_sets)
                              : SdbpConfig::singleTable(llc_sets);
        s.useSampler = use_sampler;
        s.sampler.assoc = sampler_assoc;
        v.opts.sdbp = s;
        return v;
    };

    std::vector<Variant> variants = {
        variant("DBRB alone (PC-only, 1 table)", false, false, 16),
        variant("DBRB + 3 tables", false, true, 16),
        variant("DBRB + sampler (16-way, 1 table)", true, false, 16),
        variant("DBRB + sampler + 3 tables", true, true, 16),
        variant("DBRB + sampler + 12-way", true, false, 12),
        variant("DBRB + sampler + 3 tables + 12-way (full)", true,
                true, 12),
    };

    // Extended ablations.
    {
        Variant v = variant("full, no learn-from-own-evictions", true,
                            true, 12);
        v.opts.sdbp->sampler.learnFromOwnEvictions = false;
        variants.push_back(v);
    }
    {
        Variant v = variant("full, bypass disabled", true, true, 12);
        v.opts.dbrb.enableBypass = false;
        variants.push_back(v);
    }
    {
        Variant v = variant("full, replacement disabled (bypass only)",
                            true, true, 12);
        v.opts.dbrb.enableDeadReplacement = false;
        variants.push_back(v);
    }
    for (unsigned threshold : {5, 7, 9}) {
        Variant v = variant("full, threshold " +
                                std::to_string(threshold),
                            true, true, 12);
        v.opts.sdbp->table.threshold = threshold;
        variants.push_back(v);
    }

    TextTable t({"Variant", "gmean speedup"});
    for (const auto &v : variants)
        t.row().cell(v.name).cell(
            gmeanSpeedup(report, v, cfg, lru_ipc), 3);

    // Extension (paper Sec. VIII future work): a counting predictor
    // trained through a decoupled sampler instead of by evictions.
    {
        const auto grid =
            bench::runGrid(report, memoryIntensiveSubset(),
                           {PolicyKind::SamplingCounting}, cfg);
        std::vector<double> speedups;
        for (std::size_t b = 0; b < grid.benchmarks.size(); ++b)
            speedups.push_back(grid.at(b, 0).ipc /
                               lru_ipc.at(grid.benchmarks[b]));
        t.row()
            .cell("extension: sampling counting predictor")
            .cell(gmean(speedups), 3);
    }
    t.print(std::cout);

    std::cout <<
        "\nPaper reference: DBRB alone 1.034, +3 tables 1.023, "
        "+sampler 1.038,\n+sampler+3 tables 1.040, +sampler+12-way "
        "1.056, full 1.059.\n";

    report.addTable("component contribution ablation", t);
    report.note("Paper: DBRB alone 1.034, +3 tables 1.023, +sampler "
                "1.038, +sampler+3 tables 1.040, +sampler+12-way "
                "1.056, full 1.059");
    return bench::finish(report);
}
