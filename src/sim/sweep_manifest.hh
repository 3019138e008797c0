/**
 * @file
 * Sweep checkpoint manifest: a JSON sidecar recording the outcome of
 * every (run, policy) cell of a sweep, written atomically after each
 * cell completes.  A crashed or interrupted sweep can be re-launched
 * with SDBP_RESUME=1 and only the failed or missing cells re-execute;
 * completed cells restore their metrics from the manifest.
 *
 * Schema v2 (DESIGN.md §16) makes the manifest the coordination
 * substrate of multi-process sweeps: cells carry lease records ({pid,
 * generation, claimed_ms, heartbeat_ms} on the system-wide monotonic
 * clock) that worker subprocesses claim via atomic tmp+rename under a
 * flock(2)'d sidecar, plus structured crash fields
 * (crashed/signal/lease_generation) per failed cell and the sweep's
 * RunConfig so a worker is self-contained.  Checkpoints are ephemeral:
 * only the current schema is read.
 *
 * The manifest stores metrics only (the scalar RunResult payload).
 * In-memory artifacts — the LLC reference trace, per-frame
 * efficiency, RunArtifacts — are not persisted, so sweeps that need
 * them (recordLlcTrace / trackEfficiency) are non-resumable and
 * always re-run their cells.
 */

#ifndef SDBP_SIM_SWEEP_MANIFEST_HH
#define SDBP_SIM_SWEEP_MANIFEST_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/json_fields.hh"
#include "sim/checkpoint.hh"

namespace sdbp::sweep
{

/** Outcome of one failed sweep cell (also serialized to the
 *  manifest, so a partial sweep is diagnosable from disk alone). */
struct CellError
{
    /** Row-major cell index in its grid. */
    std::size_t index = 0;
    /** Benchmark or mix name. */
    std::string run;
    std::string policy;
    /** what() of the last failing attempt. */
    std::string message;
    /** Attempts made (1 + retries actually used). */
    unsigned attempts = 0;
    /** The last failure was a SimulationTimeout (or a hard-timeout
     *  kill in multi-process mode). */
    bool timedOut = false;
    /** The worker process running the cell died (signal or nonzero
     *  exit) instead of reporting a failure in-band. */
    bool crashed = false;
    /** Terminating signal of the crashed worker (0 = exit-code
     *  death or not a crash). */
    int signal = 0;
    /** Lease generation of the last claim (multi-process sweeps;
     *  0 = cell never ran under a lease). */
    std::uint64_t leaseGeneration = 0;
};

enum class CellStatus { Pending, Leased, Completed, Failed, Skipped };

/** A worker's live claim on a cell (monotonic-clock ms). */
struct CellLease
{
    std::int64_t pid = 0;
    std::uint64_t claimedMs = 0;
    std::uint64_t heartbeatMs = 0;
};

/** One cell as the manifest records it. */
struct CellRecord
{
    /** Row and column labels, so the file reads on its own. */
    std::string run;
    std::string policy;
    CellStatus status = CellStatus::Pending;
    /** Checkpointed result of a Completed cell. */
    obs::JsonValue metrics;
    /** Last failure (persisted for Failed cells). */
    std::string error;
    unsigned attempts = 0;
    bool timedOut = false;
    bool crashed = false;
    int signal = 0;
    /** Claims this cell has ever received (lease generation). */
    std::uint64_t generation = 0;
    /** Live lease (status == Leased only). */
    CellLease lease;
    /** Worker-side cell execution window (monotonic ms). */
    std::uint64_t startedMs = 0;
    std::uint64_t finishedMs = 0;
    /** Pid that last ran the cell (telemetry; 0 = in-process). */
    std::int64_t workerPid = 0;
};

/** What a resume must match: the grid's labels and budget. */
struct SweepFingerprint
{
    /** Row labels: benchmarks or mix names. */
    std::vector<std::string> runs;
    /** Column labels: policy names. */
    std::vector<std::string> policies;
    InstCount warmup = 0;
    InstCount measure = 0;

    bool operator==(const SweepFingerprint &) const = default;
};

/** The whole manifest document. */
struct ManifestFile
{
    std::uint64_t schema = 0;
    /** "grid" (single-core rows) or "mix_grid" (multi-core mixes). */
    std::string kind;
    SweepFingerprint fingerprint;
    /** Worker payload of a multi-process sweep: the RunConfig, and
     *  each mix's benchmark list for mix grids. */
    std::optional<RunConfig> config;
    std::vector<MixProfile> mixes;
    /** runs x policies cells, row-major. */
    std::vector<CellRecord> cells;
};

/**
 * One sweep's checkpoint file.  All mutators are thread-safe (sweep
 * workers complete cells concurrently) and every mutation rewrites
 * the manifest via an atomic tmp+rename, so the on-disk file is a
 * well-formed JSON document at every instant — even across SIGKILL.
 *
 * Once shared with worker processes (shareWithWorkers, or the
 * worker-side constructor) the manifest is also safe against
 * concurrent *processes*: every mutator then re-reads the file under
 * an exclusive flock on "<path>.lock" before applying its change, so
 * coordinator and workers see one serialized history.
 */
class SweepManifest
{
  public:
    static constexpr std::uint64_t kSchemaVersion = 2;

    /** One successful lease acquisition. */
    struct Claim
    {
        std::size_t index = 0;
        /** 1-based count of claims this cell has ever received. */
        std::uint64_t generation = 0;
    };

    /**
     * Describe a grid about to run: @p kind is "grid" or "mix_grid",
     * @p runs the row labels (benchmarks or mix names), @p policies
     * the column labels.  Together with the instruction budget these
     * form the fingerprint that a resume must match.
     */
    SweepManifest(std::string path, std::string kind,
                  std::vector<std::string> runs,
                  std::vector<std::string> policies,
                  InstCount warmup, InstCount measure);

    /**
     * Worker side: attach to the file a coordinator shared, taking
     * the sweep's description from it, with cross-process access on.
     * An unreadable or malformed file is fatal().
     */
    explicit SweepManifest(std::string path);

    /**
     * Restore completed cells from the file at path(), if present.
     * A missing file is a fresh start (returns 0).  A malformed file,
     * one of another schema version, or one whose fingerprint (kind,
     * runs, policies, instruction budget) differs is fatal():
     * resuming a *different* sweep would silently mix experiments.
     *
     * @return number of cells restored to Completed
     */
    std::size_t loadCompleted();

    bool isCompleted(std::size_t index) const;
    /** Stored metrics of a completed cell; Null JSON otherwise. */
    obs::JsonValue completedMetrics(std::size_t index) const;

    void markCompleted(std::size_t index, obs::JsonValue metrics);
    void markFailed(const CellError &err);
    void markSkipped(std::size_t index);

    /** Write the current state (atomic tmp+rename). */
    void flush();

    const std::string &path() const { return path_; }

    // The sweep description below is fixed once the manifest is
    // shared, so these read it without the lock.
    std::size_t cellCount() const { return file_.cells.size(); }
    const std::string &kind() const { return file_.kind; }
    const SweepFingerprint &fingerprint() const
    {
        return file_.fingerprint;
    }
    const std::optional<RunConfig> &config() const
    {
        return file_.config;
    }
    const std::vector<MixProfile> &mixes() const { return file_.mixes; }

    // ---- multi-process fabric (schema v2) -------------------------

    /**
     * Coordinator side: persist what a worker subprocess needs to run
     * cells on its own (@p cfg and, for mix grids, @p mixes), then
     * serialize every later mutator against other processes through
     * an exclusive flock on "<path>.lock": lock, re-read the file,
     * apply, atomic-rewrite, unlock.  The in-process mutex still
     * guards against sibling threads.
     */
    void shareWithWorkers(const RunConfig &cfg,
                          std::vector<MixProfile> mixes);

    /**
     * Claim the first claimable cell: Pending, or Leased with a
     * heartbeat older than @p ttl_ms (a stale lease — its worker is
     * dead or wedged, so the cell is re-farmed).  nullopt when no
     * cell is claimable.  @p now_ms is util::monotonicMs().
     */
    std::optional<Claim> tryClaim(std::int64_t pid,
                                  std::uint64_t now_ms,
                                  std::uint64_t ttl_ms);

    /** Refresh the heartbeat of a lease still held by (pid, gen);
     *  no-op if the cell was reclaimed from under the caller. */
    void heartbeat(std::size_t index, std::int64_t pid,
                   std::uint64_t generation, std::uint64_t now_ms);

    /** Complete a leased cell: store metrics + timing, clear the
     *  lease.  No-op if (pid, gen) no longer owns the cell. */
    void completeClaimed(std::size_t index, std::int64_t pid,
                         std::uint64_t generation,
                         obs::JsonValue metrics,
                         std::uint64_t started_ms,
                         std::uint64_t finished_ms);

    /**
     * Fail a leased cell in-band (the worker caught the exception):
     * requeue as Pending while generation < max_attempts, else mark
     * Failed with @p err.  No-op if (pid, gen) no longer owns it.
     */
    void failClaimed(std::size_t index, const CellError &err,
                     std::int64_t pid, std::uint64_t generation,
                     unsigned max_attempts, std::uint64_t started_ms,
                     std::uint64_t finished_ms);

    /**
     * Coordinator-side crash charge: the worker owning this cell
     * died (signal @p sig, or nonzero exit when sig == 0) without
     * reporting.  Same requeue-or-fail policy as failClaimed.  No-op
     * unless @p pid still owns the lease.
     */
    void chargeCrash(std::size_t index, std::int64_t pid,
                     const std::string &message, int sig,
                     bool timed_out, unsigned max_attempts,
                     std::uint64_t now_ms);

    /**
     * Coordinator startup: clear leftover leases (their owners died
     * with a previous coordinator) and reset the attempt count of
     * every non-completed cell, so a resumed sweep gets a fresh
     * retry budget — matching the in-process resume semantics.
     */
    void resetLeases();

    /** Mark every Pending cell Skipped (coordinator shutdown). */
    void markSkippedPending();

    /** Per-cell copy of the current state (reloads from disk first
     *  in shared mode). */
    std::vector<CellRecord> snapshotCells();

  private:
    /** Run @p fn on the cells under the locks a mutation needs, then
     *  persist the result. */
    template <typename Fn>
    void mutate(Fn &&fn);
    void flushLocked() const;
    /** Shared mode: absorb the on-disk state before mutating. */
    void reloadLocked();

    mutable std::mutex mutex_;
    std::string path_;
    ManifestFile file_;
    bool shared_ = false;
};

} // namespace sdbp::sweep

namespace sdbp::obs
{

template <>
struct JsonEnum<sweep::CellStatus>
{
    static const char *name(sweep::CellStatus s);
    static std::optional<sweep::CellStatus> parse(const std::string &s);
};

template <>
struct JsonFields<sweep::CellLease>
{
    template <typename S, typename V>
    static void
    visit(S &l, V &v)
    {
        v("pid", l.pid);
        v("claimed_ms", l.claimedMs);
        v("heartbeat_ms", l.heartbeatMs);
    }
};

template <>
struct JsonFields<sweep::CellRecord>
{
    template <typename S, typename V>
    static void
    visit(S &c, V &v)
    {
        using sweep::CellStatus;
        const bool failed = c.status == CellStatus::Failed;
        v("run", c.run);
        v("policy", c.policy);
        v("status", c.status);
        v.when(c.status == CellStatus::Completed, "metrics", c.metrics);
        v.when(failed, "error", c.error);
        v.when(failed, "attempts", c.attempts);
        v.when(failed, "timed_out", c.timedOut);
        v.when(failed && c.crashed, "crashed", c.crashed);
        v.when(failed && c.crashed, "signal", c.signal);
        v.when(c.generation > 0, "lease_generation", c.generation);
        v.when(c.status == CellStatus::Leased, "lease", c.lease);
        v.when(c.startedMs > 0, "started_ms", c.startedMs);
        v.when(c.finishedMs > 0, "finished_ms", c.finishedMs);
        v.when(c.workerPid != 0, "worker_pid", c.workerPid);
    }
};

template <>
struct JsonFields<sweep::SweepFingerprint>
{
    template <typename S, typename V>
    static void
    visit(S &f, V &v)
    {
        v("runs", f.runs);
        v("policies", f.policies);
        v("warmup_instructions", f.warmup);
        v("measure_instructions", f.measure);
    }
};

template <>
struct JsonFields<sweep::ManifestFile>
{
    template <typename S, typename V>
    static void
    visit(S &m, V &v)
    {
        v("schema", m.schema);
        v("kind", m.kind);
        v("fingerprint", m.fingerprint);
        v("config", m.config);
        v.when(!m.mixes.empty(), "mixes", m.mixes);
        v("cells", m.cells);
    }
};

} // namespace sdbp::obs

#endif // SDBP_SIM_SWEEP_MANIFEST_HH
