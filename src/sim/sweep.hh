/**
 * @file
 * Parallel experiment engine: deterministic fan-out of independent
 * (benchmark, policy) simulations across a fixed thread pool.
 *
 * Every cell of a grid owns its own System and seeded workload
 * stream, so results are bit-identical to the serial loop for any
 * job count; results are collected by (row, column) index, never by
 * completion order (DESIGN.md §10).
 */

#ifndef SDBP_SIM_SWEEP_HH
#define SDBP_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep_manifest.hh"

namespace sdbp::sweep
{

/**
 * Worker count for sweeps: the SDBP_JOBS environment variable when
 * set, else hardware_concurrency (minimum 1).  1 means serial
 * execution.  A malformed SDBP_JOBS is a hard error, not a silent
 * fallback.
 */
unsigned defaultJobs();

/**
 * Per-cell retry budget: SDBP_RETRIES (0..16), default 0.  A cell
 * that throws (including SimulationTimeout) is re-attempted with
 * exponential backoff before being recorded as a CellError.
 */
unsigned defaultRetries();

/**
 * Cooperative shutdown for in-flight sweeps.  installShutdownHandler
 * routes SIGINT/SIGTERM to requestShutdown(); once requested, queued
 * cells are skipped (and marked so in the manifest) while cells
 * already executing drain normally — so ^C during a long sweep still
 * leaves a resumable checkpoint, and a second ^C kills the process
 * the usual way.
 */
void installShutdownHandler();
void requestShutdown();
bool shutdownRequested();
/** Test hook: clear a previously requested shutdown. */
void resetShutdown();

/** Execution knobs of one sweep. */
struct SweepOptions
{
    unsigned jobs = 0;    ///< 0 = defaultJobs()
    unsigned retries = 0; ///< extra attempts per failing cell
    /** When non-empty, checkpoint every cell outcome here. */
    std::string manifestPath;
    /** Restore completed cells from the manifest instead of
     *  re-running them (requires manifestPath). */
    bool resume = false;
    /**
     * Crash-isolated multi-process mode (DESIGN.md §16): 0 (the
     * default) keeps the in-process thread-pool behavior; N > 0
     * makes the sweep a coordinator that re-execs this binary as N
     * worker subprocesses claiming cells through manifest leases.
     * Requires manifestPath and a main() that calls
     * maybeWorkerMain(); otherwise the sweep warns and runs
     * in-process.
     */
    unsigned workers = 0;

    /** jobs/retries/resume/workers from SDBP_JOBS / SDBP_RETRIES /
     *  SDBP_RESUME / SDBP_WORKERS; manifestPath stays empty
     *  (caller's choice). */
    static SweepOptions fromEnvironment();
};

/**
 * Run fn(0) .. fn(n-1) across @p jobs workers.  Tasks must be
 * independent; completion order is unspecified but error reporting
 * is deterministic: if tasks throw, every task still finishes and
 * then the exception of the lowest failing index is rethrown — the
 * same failure the serial loop would report first.  jobs <= 1
 * executes inline.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * Derive the per-cell artifact path of a multi-cell sweep, so
 * concurrent runs never write the same file:
 * ("run.json", "456.hmmer", "Random Sampler") ->
 * "run.456_hmmer.random_sampler.json".  Deterministic, so serial
 * and parallel sweeps produce identical files.
 */
std::string cellArtifactPath(const std::string &base,
                             const std::string &run,
                             const std::string &policy);

/**
 * Results of a rows x policies sweep, row-major in input order; the
 * rows are benchmarks (Grid) or multi-core mixes (MixGrid).
 */
template <typename Result>
struct CellGrid
{
    std::vector<PolicyKind> policies;
    /** rows * policies.size() cells, row-major.  Failed and skipped
     *  cells hold a default Result with only the row/policy labels
     *  filled in. */
    std::vector<Result> cells;
    /** Cells that exhausted their attempts, ordered by index. */
    std::vector<CellError> errors;
    /** Cells skipped because shutdown was requested. */
    std::size_t skipped = 0;
    /** Cells restored from the manifest instead of re-run. */
    std::size_t resumed = 0;
    /** Workers the sweep ran with. */
    unsigned jobs = 1;
    /** Whole-grid wall clock, seconds. */
    double wallSeconds = 0;

    /** Every cell holds a real result. */
    bool ok() const { return errors.empty() && skipped == 0; }

    const Result &
    at(std::size_t row, std::size_t p) const
    {
        return cells[row * policies.size() + p];
    }

    /** Sum of per-run wall clocks (the serial-equivalent cost). */
    double
    runSecondsTotal() const
    {
        double sum = 0;
        for (const Result &cell : cells)
            sum += cell.wallSeconds;
        return sum;
    }
};

/** Single-core sweep: one row per benchmark. */
struct Grid : CellGrid<RunResult>
{
    std::vector<std::string> benchmarks;
};

/** Multi-core sweep: one row per mix. */
struct MixGrid : CellGrid<MulticoreRunResult>
{
    std::vector<MixProfile> mixes;
};

/**
 * Simulate every (benchmark, policy) cell with runSingleCore, fanned
 * across opts.jobs threads.  When cfg carries artifact paths and the
 * grid has more than one cell, each cell writes to its
 * cellArtifactPath-derived file instead.
 *
 * Failure isolation: a throwing cell (SimulationTimeout included) is
 * retried opts.retries times with exponential backoff and, if it
 * still fails, recorded as a CellError — the remaining cells run to
 * completion regardless.  With opts.manifestPath set, every cell
 * outcome is checkpointed atomically; with opts.resume additionally
 * set, cells the manifest records as completed restore their metrics
 * instead of re-running (unless cfg needs in-memory artifacts —
 * recordLlcTrace / trackEfficiency — which cannot be checkpointed;
 * those grids always re-run).
 */
Grid runGrid(std::vector<std::string> benchmarks,
             std::vector<PolicyKind> policies, const RunConfig &cfg,
             const SweepOptions &opts);

/** Simulate every (mix, policy) cell with runMulticore, with the
 *  same failure isolation, checkpointing and worker mode as runGrid
 *  (mix grids always checkpoint: runMulticore records no in-memory
 *  artifacts). */
MixGrid runMixGrid(std::vector<MixProfile> mixes,
                   std::vector<PolicyKind> policies,
                   const RunConfig &cfg, const SweepOptions &opts);

/** Back-compat convenience: plain sweep with @p jobs workers. */
Grid runGrid(std::vector<std::string> benchmarks,
             std::vector<PolicyKind> policies, const RunConfig &cfg,
             unsigned jobs = defaultJobs());
MixGrid runMixGrid(std::vector<MixProfile> mixes,
                   std::vector<PolicyKind> policies,
                   const RunConfig &cfg,
                   unsigned jobs = defaultJobs());

/**
 * One attempt at cell @p index of the sweep @p manifest describes:
 * the worker-process side of the cell lifecycle that runGrid and
 * runMixGrid run in-process.  Returns the cell's checkpoint metrics,
 * or nullopt with the failure recorded in @p err.
 */
std::optional<obs::JsonValue> runManifestCell(const SweepManifest &manifest,
                                              std::size_t index,
                                              CellError &err);

} // namespace sdbp::sweep

#endif // SDBP_SIM_SWEEP_HH
