/**
 * @file
 * Fig. 11 (extension): fault tolerance of the sampling predictor.
 *
 * Sweeps the soft-error injection rate over the predictor's SRAM
 * surface (sampler tags/LRU stacks and the skewed counter banks,
 * DESIGN.md §11) and reports the MPKI/IPC degradation curve of the
 * Sampler policy against the fault-free LRU baseline.  Dead-block
 * predictions are hints, so faults can only erode the benefit of the
 * predictor — every run re-audits the structural invariants and the
 * hierarchy's architectural state stays correct at any rate.
 */

#include "bench/common.hh"

using namespace sdbp;

namespace
{

/** Injection rates swept, in faults per million consultations. */
const std::vector<std::uint64_t> kRates = {0, 10, 100, 1000, 10000};

std::string
rateLabel(std::uint64_t rate)
{
    return std::to_string(rate) + "/M";
}

} // anonymous namespace

int
main()
{
    bench::banner(
        "Fig. 11: Sampler MPKI/IPC vs predictor soft-error rate",
        "extension of Sec. VII; fault model in DESIGN.md \xC2\xA7"
        "11");

    RunConfig cfg = RunConfig::singleCore();
    bench::JsonReport report("fig11_fault_tolerance",
                             "extension; DESIGN.md \xC2\xA7"
                             "11",
                             cfg);

    const auto &subset = memoryIntensiveSubset();

    // Fault-free LRU reference: where the Sampler curve converges if
    // faults destroy every useful prediction.
    const auto lru =
        bench::runGrid(report, subset, {PolicyKind::Lru}, cfg);

    // One grid per injection rate; each checkpoints independently.
    std::vector<sweep::Grid> grids;
    for (const std::uint64_t rate : kRates) {
        RunConfig fault_cfg = cfg;
        fault_cfg.policy.dbrb.fault.faultsPerMillion = rate;
        grids.push_back(bench::runGrid(report, subset,
                                       {PolicyKind::Sampler},
                                       fault_cfg));
    }

    std::vector<std::string> headers = {"Benchmark", "LRU"};
    for (const std::uint64_t rate : kRates)
        headers.push_back("S@" + rateLabel(rate));

    TextTable mpki_t(headers);
    TextTable ipc_t(headers);
    std::map<std::string, std::vector<double>> mpki_cols;
    std::map<std::string, std::vector<double>> ipc_cols;

    for (std::size_t b = 0; b < subset.size(); ++b) {
        auto &mrow =
            mpki_t.row().cell(bench::shortName(subset[b]));
        auto &irow = ipc_t.row().cell(bench::shortName(subset[b]));
        const RunResult &base = lru.at(b, 0);
        mrow.cell(base.mpki, 3);
        irow.cell(base.ipc, 3);
        mpki_cols["LRU"].push_back(base.mpki);
        ipc_cols["LRU"].push_back(base.ipc);
        for (std::size_t ri = 0; ri < kRates.size(); ++ri) {
            const RunResult &r = grids[ri].at(b, 0);
            mrow.cell(r.mpki, 3);
            irow.cell(r.ipc, 3);
            mpki_cols[rateLabel(kRates[ri])].push_back(r.mpki);
            ipc_cols[rateLabel(kRates[ri])].push_back(r.ipc);
        }
    }

    auto &mmean = mpki_t.row().cell("amean");
    auto &imean = ipc_t.row().cell("amean");
    mmean.cell(amean(mpki_cols["LRU"]), 3);
    imean.cell(amean(ipc_cols["LRU"]), 3);
    for (const std::uint64_t rate : kRates) {
        mmean.cell(amean(mpki_cols[rateLabel(rate)]), 3);
        imean.cell(amean(ipc_cols[rateLabel(rate)]), 3);
    }

    std::cout << "\nLLC MPKI vs fault rate:\n";
    mpki_t.print(std::cout);
    std::cout << "\nIPC vs fault rate:\n";
    ipc_t.print(std::cout);

    // Fault accounting: injected flips against the configured rate.
    // The injector draws once per predictor consultation, so the
    // observed rate converges on the configured one.
    TextTable acct({"Rate", "Consultations", "Faults injected",
                    "Observed/M"});
    for (std::size_t ri = 0; ri < kRates.size(); ++ri) {
        std::uint64_t consultations = 0;
        std::uint64_t injected = 0;
        for (std::size_t b = 0; b < subset.size(); ++b) {
            const RunResult &r = grids[ri].at(b, 0);
            consultations += r.dbrb.predictions;
            injected += r.faultsInjected;
        }
        acct.row()
            .cell(rateLabel(kRates[ri]))
            .cell(std::to_string(consultations))
            .cell(std::to_string(injected))
            .cell(consultations == 0
                      ? 0.0
                      : 1e6 * static_cast<double>(injected) /
                          static_cast<double>(consultations),
                  1);
    }
    std::cout << "\nFault accounting:\n";
    acct.print(std::cout);

    std::cout
        << "\nPredictions are hints: faults degrade MPKI/IPC toward "
           "the LRU baseline\nbut never corrupt architectural state "
           "(every run re-audits invariants).\n";

    report.addTable("LLC MPKI vs fault rate", mpki_t);
    report.addTable("IPC vs fault rate", ipc_t);
    report.addTable("fault accounting", acct);
    report.note("Expectation: Sampler amean MPKI at 0/M beats LRU; "
                "rising fault rates erode the gap toward the LRU "
                "baseline while all invariant audits pass.");
    return bench::finish(report);
}
