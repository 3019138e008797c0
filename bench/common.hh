/**
 * @file
 * Shared helpers for the per-table/per-figure benchmark binaries.
 *
 * Every binary prints the rows of one table or figure of the paper.
 * Instruction counts default to 2 M warm-up + 8 M measured per run
 * and scale via SDBP_INSTRUCTIONS / SDBP_WARMUP toward the paper's
 * 1 B-instruction SimPoints.
 */

#ifndef SDBP_BENCH_COMMON_HH
#define SDBP_BENCH_COMMON_HH

#include <cctype>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hh"
#include "obs/span_tracer.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "util/file.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace sdbp::bench
{

/** Strip the numeric SPEC prefix for compact rows:
 *  "456.hmmer" -> "hmmer".  Names without the prefix pass through. */
inline std::string
shortName(const std::string &benchmark)
{
    const auto dot = benchmark.find('.');
    if (dot == std::string::npos || dot == 0 ||
        dot + 1 >= benchmark.size())
        return benchmark;
    for (std::size_t i = 0; i < dot; ++i)
        if (!std::isdigit(static_cast<unsigned char>(benchmark[i])))
            return benchmark;
    return benchmark.substr(dot + 1);
}

inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "==========================================================\n"
              << title << "\n"
              << "(reproduces " << paper_ref << ")\n"
              << "==========================================================\n";
}

inline void
footer()
{
    std::cout << std::endl;
}

/**
 * Machine-readable companion of a bench binary's printed tables.
 * Each binary collects its TextTables here and calls write(), which
 * produces BENCH_<name>.json in the working directory — the same
 * numbers the terminal shows, parseable by tools/plots/CI.
 */
class JsonReport
{
  public:
    JsonReport(std::string name, std::string paper_ref,
               const RunConfig &cfg)
        : name_(std::move(name)), paperRef_(std::move(paper_ref)),
          warmup_(cfg.warmupInstructions),
          measure_(cfg.measureInstructions)
    {
    }

    /** For binaries that run no simulation (storage/power tables). */
    JsonReport(std::string name, std::string paper_ref)
        : name_(std::move(name)), paperRef_(std::move(paper_ref)),
          warmup_(0), measure_(0)
    {
    }

    /** Record one printed table under @p title. */
    void
    addTable(const std::string &title, const TextTable &t)
    {
        tables_.emplace_back(title, &t);
    }

    /** Free-form note (paper reference values etc.). */
    void note(const std::string &text) { notes_.push_back(text); }

    /** Record one simulated run's wall clock (and, when known, its
     *  host counters) for the timing block. */
    void
    addRun(const std::string &run, const std::string &policy,
           double seconds,
           const util::PerfCounters::Sample &host_perf = {})
    {
        runs_.push_back({run, policy, seconds, host_perf});
        runSeconds_ += seconds;
    }

    /** Account sweep wall clock not covered by addGrid. */
    void addSweepSeconds(double seconds) { sweepSeconds_ += seconds; }

    /** Fold a finished sweep into the timing block and collect its
     *  cell failures for the sweep block / exit code. */
    void
    addGrid(const sweep::Grid &g)
    {
        jobs_ = g.jobs;
        sweepSeconds_ += g.wallSeconds;
        errors_.insert(errors_.end(), g.errors.begin(),
                       g.errors.end());
        skipped_ += g.skipped;
        resumed_ += g.resumed;
        for (std::size_t b = 0; b < g.benchmarks.size(); ++b)
            for (std::size_t p = 0; p < g.policies.size(); ++p)
                addRun(g.benchmarks[b], policyName(g.policies[p]),
                       g.at(b, p).wallSeconds, g.at(b, p).hostPerf);
    }

    void
    addGrid(const sweep::MixGrid &g)
    {
        jobs_ = g.jobs;
        sweepSeconds_ += g.wallSeconds;
        errors_.insert(errors_.end(), g.errors.begin(),
                       g.errors.end());
        skipped_ += g.skipped;
        resumed_ += g.resumed;
        for (std::size_t m = 0; m < g.mixes.size(); ++m)
            for (std::size_t p = 0; p < g.policies.size(); ++p)
                addRun(g.mixes[m].name, policyName(g.policies[p]),
                       g.at(m, p).wallSeconds, g.at(m, p).hostPerf);
    }

    /**
     * Checkpoint path for the next sweep this report will run:
     * BENCH_<name>.manifest.json for the first grid, then
     * BENCH_<name>.grid2.manifest.json and so on — each grid of a
     * multi-grid bench resumes independently.
     */
    std::string
    nextManifestPath()
    {
        ++gridCount_;
        if (gridCount_ == 1)
            return "BENCH_" + name_ + ".manifest.json";
        return "BENCH_" + name_ + ".grid" +
            std::to_string(gridCount_) + ".manifest.json";
    }

    /** Span-trace export path (written by finish() when the global
     *  tracer is enabled): BENCH_<name>.spans.json. */
    std::string spansPath() const
    {
        return "BENCH_" + name_ + ".spans.json";
    }

    const std::vector<sweep::CellError> &errors() const
    {
        return errors_;
    }
    std::size_t skipped() const { return skipped_; }
    std::size_t resumed() const { return resumed_; }

    /**
     * Process exit code for this report: 0 when every cell produced
     * a result, 130 when a shutdown request skipped cells (the
     * conventional SIGINT code), 1 when cells failed outright.
     */
    int
    exitCode() const
    {
        if (skipped_ > 0)
            return 130;
        return errors_.empty() ? 0 : 1;
    }

    /** Write BENCH_<name>.json; reports failure on stderr. */
    bool
    write() const
    {
        obs::JsonValue root = obs::JsonValue::object();
        root.set("schema", obs::JsonValue("sdbp.bench_report/1"));
        root.set("bench", obs::JsonValue(name_));
        root.set("paper_ref", obs::JsonValue(paperRef_));
        obs::JsonValue config = obs::JsonValue::object();
        config.set("warmup_instructions", obs::JsonValue(warmup_));
        config.set("measure_instructions", obs::JsonValue(measure_));
        root.set("config", std::move(config));

        obs::JsonValue tables = obs::JsonValue::array();
        for (const auto &[title, table] : tables_) {
            obs::JsonValue jt = obs::JsonValue::object();
            jt.set("title", obs::JsonValue(title));
            obs::JsonValue headers = obs::JsonValue::array();
            for (const auto &h : table->headers())
                headers.push(obs::JsonValue(h));
            jt.set("headers", std::move(headers));
            obs::JsonValue rows = obs::JsonValue::array();
            for (const auto &row : table->rows()) {
                obs::JsonValue jr = obs::JsonValue::array();
                for (const auto &cell : row)
                    jr.push(obs::JsonValue(cell));
                rows.push(std::move(jr));
            }
            jt.set("rows", std::move(rows));
            tables.push(std::move(jt));
        }
        root.set("tables", std::move(tables));

        obs::JsonValue notes = obs::JsonValue::array();
        for (const auto &n : notes_)
            notes.push(obs::JsonValue(n));
        root.set("notes", std::move(notes));

        // Wall-clock accounting: how long the sweeps took with how
        // many workers, and what the summed per-run cost was.
        // effective_parallelism = run_seconds_total /
        // sweep_wall_seconds measures achieved concurrency; it
        // equals the speedup over a serial sweep only when every
        // worker has a dedicated core (per-run wall clocks inflate
        // under time-sharing — see EXPERIMENTS.md).
        obs::JsonValue timing = obs::JsonValue::object();
        timing.set("jobs",
                   obs::JsonValue(static_cast<std::uint64_t>(jobs_)));
        timing.set("total_wall_seconds",
                   obs::JsonValue(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                                      .count()));
        timing.set("sweep_wall_seconds",
                   obs::JsonValue(sweepSeconds_));
        timing.set("simulated_runs",
                   obs::JsonValue(
                       static_cast<std::uint64_t>(runs_.size())));
        timing.set("run_seconds_total", obs::JsonValue(runSeconds_));
        if (sweepSeconds_ > 0)
            timing.set("effective_parallelism",
                       obs::JsonValue(runSeconds_ / sweepSeconds_));
        obs::JsonValue run_list = obs::JsonValue::array();
        for (const auto &r : runs_) {
            obs::JsonValue jr = obs::JsonValue::object();
            jr.set("run", obs::JsonValue(r.run));
            jr.set("policy", obs::JsonValue(r.policy));
            jr.set("seconds", obs::JsonValue(r.seconds));
            if (r.hostPerf.valid)
                jr.set("host_ipc",
                       obs::JsonValue(r.hostPerf.hostIpc()));
            run_list.push(std::move(jr));
        }
        timing.set("runs", std::move(run_list));
        root.set("timing", std::move(timing));

        // Resilience accounting: failed/skipped cells and how many
        // were restored from a sweep manifest instead of re-run.
        obs::JsonValue sweep_block = obs::JsonValue::object();
        obs::JsonValue error_list = obs::JsonValue::array();
        for (const auto &e : errors_) {
            obs::JsonValue je = obs::JsonValue::object();
            je.set("run", obs::JsonValue(e.run));
            je.set("policy", obs::JsonValue(e.policy));
            je.set("error", obs::JsonValue(e.message));
            je.set("attempts", obs::JsonValue(
                                   std::uint64_t{e.attempts}));
            je.set("timed_out", obs::JsonValue(e.timedOut));
            error_list.push(std::move(je));
        }
        sweep_block.set("errors", std::move(error_list));
        sweep_block.set("skipped_cells",
                        obs::JsonValue(std::uint64_t{skipped_}));
        sweep_block.set("resumed_cells",
                        obs::JsonValue(std::uint64_t{resumed_}));
        root.set("sweep", std::move(sweep_block));

        const std::string path = "BENCH_" + name_ + ".json";
        if (!util::atomicWriteFile(path, root.dump() + "\n")) {
            std::cerr << "cannot write " << path << "\n";
            return false;
        }
        std::cout << "[wrote " << path << "]\n";
        return true;
    }

  private:
    struct RunTiming
    {
        std::string run;
        std::string policy;
        double seconds;
        util::PerfCounters::Sample hostPerf;
    };

    std::string name_;
    std::string paperRef_;
    InstCount warmup_;
    InstCount measure_;
    /** (title, table); tables must outlive the report. */
    std::vector<std::pair<std::string, const TextTable *>> tables_;
    std::vector<std::string> notes_;
    std::vector<sweep::CellError> errors_;
    std::size_t skipped_ = 0;
    std::size_t resumed_ = 0;
    unsigned gridCount_ = 0;
    unsigned jobs_ = sweep::defaultJobs();
    double sweepSeconds_ = 0;
    double runSeconds_ = 0;
    std::vector<RunTiming> runs_;
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
};

/**
 * The one shared sweep entry point of the bench binaries: fan the
 * benchmarks x policies grid across SDBP_JOBS workers and fold its
 * wall-clock accounting into @p report.  Rows and columns come back
 * in input order, so tables print exactly as the old serial loops
 * did.
 */
inline sweep::Grid
runGrid(JsonReport &report, const std::vector<std::string> &benchmarks,
        const std::vector<PolicyKind> &policies, const RunConfig &cfg)
{
    sweep::installShutdownHandler();
    sweep::SweepOptions opts = sweep::SweepOptions::fromEnvironment();
    opts.manifestPath = report.nextManifestPath();
    sweep::Grid g = sweep::runGrid(benchmarks, policies, cfg, opts);
    report.addGrid(g);
    return g;
}

/** Multicore-mix equivalent of bench::runGrid. */
inline sweep::MixGrid
runMixGrid(JsonReport &report, const std::vector<MixProfile> &mixes,
           const std::vector<PolicyKind> &policies,
           const RunConfig &cfg)
{
    sweep::installShutdownHandler();
    sweep::SweepOptions opts = sweep::SweepOptions::fromEnvironment();
    opts.manifestPath = report.nextManifestPath();
    sweep::MixGrid g = sweep::runMixGrid(mixes, policies, cfg, opts);
    report.addGrid(g);
    return g;
}

/**
 * Close out a bench binary: print any cell failures, write the JSON
 * report, and return the process exit code (0 all cells ran, 1 cells
 * failed, 130 interrupted).  Use as `return bench::finish(report);`.
 */
inline int
finish(JsonReport &report)
{
    for (const auto &e : report.errors()) {
        std::cerr << "FAILED cell " << e.run << "/" << e.policy
                  << " after " << e.attempts << " attempt(s)"
                  << (e.timedOut ? " [timeout]" : "") << ": "
                  << e.message << "\n";
    }
    if (report.skipped() > 0)
        std::cerr << "interrupted: " << report.skipped()
                  << " cell(s) skipped; re-run with SDBP_RESUME=1 to "
                     "continue from the manifest\n";
    // Diagnostics go to stderr: bench stdout is the figure/table
    // text and must stay byte-identical run to run.
    if (report.resumed() > 0)
        std::cerr << "[resumed " << report.resumed()
                  << " cell(s) from manifest]\n";
    const obs::SpanTracer &tracer = obs::SpanTracer::global();
    if (tracer.enabled() && tracer.recorded() > 0) {
        const std::string spans_path = report.spansPath();
        if (tracer.writeChromeTrace(spans_path))
            std::cerr << "[wrote " << spans_path << " ("
                      << tracer.size() << " spans, "
                      << tracer.dropped() << " dropped)]\n";
        else
            std::cerr << "cannot write " << spans_path << "\n";
    }
    report.write();
    footer();
    return report.exitCode();
}

/**
 * sweep::parallelFor with SDBP_JOBS workers, its wall clock folded
 * into @p report — for bench work that is not a plain grid (optimal
 * replays, per-size sensitivity cells).
 */
inline void
timedParallelFor(JsonReport &report, std::size_t n,
                 const std::function<void(std::size_t)> &fn)
{
    const auto start = std::chrono::steady_clock::now();
    sweep::parallelFor(n, sweep::defaultJobs(), fn);
    report.addSweepSeconds(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count());
}

} // namespace sdbp::bench

#endif // SDBP_BENCH_COMMON_HH
