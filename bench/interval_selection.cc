/**
 * @file
 * Interval-selection accuracy vs speedup: record a native trace per
 * workload profile, replay it in full for ground truth, then replay
 * only k-means-selected representative intervals and compare the
 * weighted MPKI/IPC estimates against the full-trace run.
 *
 * Methodology notes (see DESIGN.md §17): interval selection models
 * the SimPoint phase-sampling idea, so it is evaluated under LRU on
 * streaming-dominated profiles where per-interval warmup suffices.
 * Learning predictors (the sampler) need a training horizon far
 * longer than one interval, and reuse-heavy profiles are dominated
 * by per-representative cold caches — both are out of scope for the
 * estimator and excluded from the gate.
 *
 * Gate (skipped under --report-only): at least two profiles within
 * 5% MPKI error, and every profile at >= 10x instruction reduction.
 */

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <unistd.h>

#include "bench/common.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"
#include "trace/workload.hh"

using namespace sdbp;

namespace
{

/** Record at least @p budget instructions of @p benchmark into a
 *  native trace at @p path; returns the instructions recorded.
 *  (TraceWriter counts records, not instructions, so loop on the
 *  running gap+1 sum.) */
std::uint64_t
recordProfile(const std::string &benchmark, std::uint64_t budget,
              const std::string &path)
{
    SyntheticWorkload gen(specProfile(benchmark));
    TraceWriter writer(path);
    std::uint64_t instructions = 0;
    Access a;
    while (instructions < budget) {
        a = gen.next();
        writer.append(a);
        instructions += std::uint64_t{a.gap} + 1;
    }
    return instructions;
}

/** One timed single-core run. */
RunResult
timedRun(bench::JsonReport &report, const std::string &run_label,
         const std::string &benchmark, const RunConfig &cfg)
{
    const auto start = std::chrono::steady_clock::now();
    RunResult res = runSingleCore(benchmark, PolicyKind::Lru, cfg);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    report.addRun(run_label, "lru", secs);
    return res;
}

double
relError(double estimate, double truth)
{
    if (truth == 0)
        return estimate == 0 ? 0 : 1;
    return std::fabs(estimate - truth) / truth;
}

} // namespace

int
main(int argc, char **argv)
{
    bool report_only = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--report-only")
            report_only = true;

    bench::banner("Interval selection: accuracy vs speedup",
                  "Sec. VI methodology (SimPoint-style sampling)");

    // Streaming-dominated profiles where one-interval warmup is
    // enough for LRU state to converge.
    const std::vector<std::string> profiles = {
        "462.libquantum", "433.milc", "470.lbm"};
    constexpr std::uint64_t kIntervalsPerTrace = 64;
    constexpr unsigned kClusters = 3;
    constexpr double kMpkiErrorGate = 0.05;
    constexpr double kReductionGate = 10.0;
    constexpr int kProfilesWithinGate = 2;

    const RunConfig base = RunConfig::singleCore();
    bench::JsonReport report("interval_selection",
                             "Sec. VI methodology", base);

    TextTable t({"Benchmark", "true MPKI", "est MPKI", "MPKI err",
                 "true IPC", "est IPC", "IPC err", "reduction"});

    int within_gate = 0;
    double min_reduction = 1e30;
    for (const auto &b : profiles) {
        char path[128];
        std::snprintf(path, sizeof path,
                      "/tmp/sdbp_interval_%ld_%s.trace",
                      static_cast<long>(::getpid()),
                      bench::shortName(b).c_str());

        // The recorded budget covers the full configured run plus
        // slack so batched replay never wraps mid-run.
        const std::uint64_t budget = base.warmupInstructions +
            base.measureInstructions +
            base.measureInstructions / 100 + 4096;
        const std::uint64_t total = recordProfile(b, budget, path);

        // Ground truth and estimate replay the same trace from a
        // cold cache (warmup 0), so both sides share the cold-start
        // transient and the gate isolates the sampling error.
        RunConfig truth_cfg = base;
        truth_cfg.trace.kind = TraceKind::Native;
        truth_cfg.trace.path = path;
        truth_cfg.warmupInstructions = 0;
        truth_cfg.measureInstructions = total;
        const RunResult truth =
            timedRun(report, b + "/full", b, truth_cfg);

        RunConfig est_cfg = truth_cfg;
        est_cfg.trace.intervalInstructions =
            std::max<std::uint64_t>(total / kIntervalsPerTrace, 1);
        est_cfg.trace.selectClusters = kClusters;
        const RunResult est =
            timedRun(report, b + "/selected", b, est_cfg);

        std::remove(path);

        const double mpki_err = relError(est.mpki, truth.mpki);
        const double ipc_err = relError(est.ipc, truth.ipc);
        const double reduction = est.simulatedInstructions
            ? static_cast<double>(est.traceInstructions) /
                static_cast<double>(est.simulatedInstructions)
            : 0;
        if (mpki_err <= kMpkiErrorGate)
            ++within_gate;
        min_reduction = std::min(min_reduction, reduction);

        t.row()
            .cell(bench::shortName(b))
            .cell(formatDouble(truth.mpki, 3))
            .cell(formatDouble(est.mpki, 3))
            .cell(formatPercent(mpki_err, 2))
            .cell(formatDouble(truth.ipc, 4))
            .cell(formatDouble(est.ipc, 4))
            .cell(formatPercent(ipc_err, 2))
            .cell(formatDouble(reduction, 1) + "x");
    }
    t.print(std::cout);

    std::cout << "\nEstimates replay " << kClusters
              << " representative intervals of "
              << kIntervalsPerTrace
              << " (weighted by cluster size); ground truth replays "
                 "the whole trace.\n";

    report.addTable("interval selection accuracy vs speedup", t);
    report.note("gate: >=" + std::to_string(kProfilesWithinGate) +
                " profiles within " +
                formatPercent(kMpkiErrorGate, 0) +
                " MPKI error, every profile >=" +
                formatDouble(kReductionGate, 0) + "x reduction");

    int rc = bench::finish(report);
    if (!report_only && rc == 0) {
        if (within_gate < kProfilesWithinGate) {
            std::cerr << "GATE FAILED: only " << within_gate
                      << " profile(s) within "
                      << formatPercent(kMpkiErrorGate, 0)
                      << " MPKI error (need "
                      << kProfilesWithinGate << ")\n";
            rc = 1;
        }
        if (min_reduction < kReductionGate) {
            std::cerr << "GATE FAILED: instruction reduction "
                      << formatDouble(min_reduction, 1) << "x below "
                      << formatDouble(kReductionGate, 0) << "x\n";
            rc = 1;
        }
    }
    return rc;
}
