/**
 * @file
 * Experiment runner: one call per (benchmark, policy) simulation,
 * returning all the metrics the paper's tables and figures report.
 */

#ifndef SDBP_SIM_RUNNER_HH
#define SDBP_SIM_RUNNER_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/system.hh"
#include "obs/artifacts.hh"
#include "sim/policy_factory.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_source.hh"
#include "util/perf_counters.hh"

namespace sdbp
{

/**
 * Observability wiring of one run.  Off by default (zero overhead);
 * when `collect` is set, a StatRegistry is attached to the system,
 * per-interval snapshots are taken, and a RunArtifacts is returned
 * with the result (and optionally exported to disk).  Event tracing
 * is a further opt-in: only a collected run with `traceJsonlPath`
 * set attaches a TraceSink, which streams every event to that file.
 */
struct ObsOptions
{
    /** Build RunArtifacts for this run. */
    bool collect = false;
    /** Heartbeat period in instructions (global tick). */
    std::uint64_t intervalInstructions = 1'000'000;
    /** When non-empty, write the artifact JSON here. */
    std::string statsJsonPath;
    /** When non-empty, write the derived timeline CSV here. */
    std::string timelineCsvPath;
    /** When non-empty, stream every trace event here as JSONL. */
    std::string traceJsonlPath;
};

struct RunConfig
{
    InstCount warmupInstructions = 2'000'000;
    InstCount measureInstructions = 8'000'000;
    HierarchyConfig hierarchy;
    CoreConfig core;
    /** Record the LLC reference stream for the optimal replay. */
    bool recordLlcTrace = false;
    /** Track per-frame LLC efficiency (Fig. 1). */
    bool trackEfficiency = false;
    /**
     * Where the reference stream comes from: the benchmark's
     * synthetic workload by default, or a trace file (native or
     * ChampSim), optionally simulated via interval selection
     * (DESIGN.md §17).  Round-trips through sweep manifests so
     * worker-mode sweeps transport trace-driven cells.
     */
    TraceSpec trace;
    PolicyOptions policy;
    ObsOptions obs;

    /**
     * Defaults for a single-core 2 MB-LLC experiment; instruction
     * counts honor the SDBP_INSTRUCTIONS / SDBP_WARMUP environment
     * variables so every bench can be scaled up toward the paper's
     * 1 B-instruction runs.  Setting SDBP_STATS_JSON=<path> turns on
     * artifact collection and writes the run JSON there;
     * SDBP_INTERVAL overrides the snapshot period.
     */
    static RunConfig singleCore();

    /** Quad-core, 8 MB shared LLC (Sec. VI-A2). */
    static RunConfig quadCore();
};

struct RunResult
{
    std::string benchmark;
    std::string policy;
    InstCount instructions = 0;
    Cycle cycles = 0;
    double ipc = 0;
    double mpki = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcBypasses = 0;
    /** LLC live-time ratio over the measurement phase. */
    double llcEfficiency = 0;
    /** Predictor accounting; meaningful for DBRB policies. */
    bool hasDbrb = false;
    DbrbStats dbrb;
    /** Soft errors injected into predictor state (DESIGN.md §11). */
    std::uint64_t faultsInjected = 0;
    /** LLC reference stream (when recordLlcTrace); includes the
     *  warm-up portion. */
    std::vector<LlcRef> llcTrace;
    /** Index in llcTrace where the measurement phase starts. */
    std::size_t llcTraceMeasureStart = 0;
    /** Per-frame efficiency, sets*assoc (when trackEfficiency). */
    std::vector<double> frameEfficiency;
    /** Run artifacts (when cfg.obs.collect); shared so RunResult
     *  stays cheap to copy. */
    std::shared_ptr<const obs::RunArtifacts> artifacts;
    /** Wall-clock seconds this run took (setup + warmup + measure). */
    double wallSeconds = 0;
    /** Host hardware counters over warmup+measure (valid gated;
     *  no-op hosts report valid=false).  DESIGN.md §14. */
    util::PerfCounters::Sample hostPerf;

    /**
     * Interval-selection summary (when cfg.trace.selectionEnabled()).
     * In that mode `instructions`, `ipc`, `mpki` and the LLC counters
     * above are weighted full-trace *estimates*;
     * `simulatedInstructions` is what actually ran (warm-up intervals
     * included), so traceInstructions / simulatedInstructions is the
     * speedup factor.
     */
    bool intervalSelected = false;
    std::uint64_t traceInstructions = 0;
    std::uint64_t intervalsTotal = 0;
    std::uint64_t intervalsSimulated = 0;
    std::uint64_t simulatedInstructions = 0;
};

/** Simulate one benchmark under one LLC policy on a single core. */
RunResult runSingleCore(const std::string &benchmark, PolicyKind kind,
                        RunConfig cfg = RunConfig::singleCore());

struct MulticoreRunResult
{
    std::string mix;
    std::string policy;
    std::vector<std::string> benchmarks;
    std::vector<double> ipc; ///< per thread
    std::uint64_t llcMisses = 0;
    InstCount totalInstructions = 0;
    double mpki = 0; ///< misses per kilo-instruction, all threads
    /** Soft errors injected into predictor state (DESIGN.md §11). */
    std::uint64_t faultsInjected = 0;
    /** Run artifacts (when cfg.obs.collect). */
    std::shared_ptr<const obs::RunArtifacts> artifacts;
    /** Wall-clock seconds this run took (setup + warmup + measure). */
    double wallSeconds = 0;
    /** Host hardware counters over warmup+measure (valid gated). */
    util::PerfCounters::Sample hostPerf;
};

/** Simulate one quad-core mix under one shared-LLC policy. */
MulticoreRunResult runMulticore(const MixProfile &mix, PolicyKind kind,
                                RunConfig cfg = RunConfig::quadCore());

/**
 * IPC of @p benchmark running alone with an LRU LLC of the
 * multi-core geometry — the SingleIPC denominator of the weighted
 * speedup metric (Sec. VI-A2).  Results are memoized per
 * (benchmark, cache geometry, instruction budget) within the
 * process; the memo is mutex-guarded, so concurrent sweep workers
 * may call this freely.
 */
double isolatedIpc(const std::string &benchmark,
                   RunConfig cfg = RunConfig::quadCore());

/** Weighted speedup of a multi-core run, normalized to nothing:
 *  sum_i IPC_i / SingleIPC_i. */
double weightedIpc(const MulticoreRunResult &run, const RunConfig &cfg);

} // namespace sdbp

#endif // SDBP_SIM_RUNNER_HH
