/**
 * @file
 * Sweep checkpoint manifest: a JSON sidecar recording the outcome of
 * every (run, policy) cell of a sweep, written atomically after each
 * cell completes.  A crashed or interrupted sweep can be re-launched
 * with SDBP_RESUME=1 and only the failed or missing cells re-execute;
 * completed cells restore their metrics from the manifest.
 *
 * Schema 3: a fingerprint of the grid (row and column labels plus the
 * whole RunConfig as JSON) and one record per cell.  A resume must
 * match the fingerprint exactly; a file of any other schema is
 * refused with an error that says to delete it.  Checkpoints are
 * ephemeral, so older schemas are never migrated.
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
    /** The last failure was a SimulationTimeout. */
    bool timedOut = false;
};

enum class CellStatus { Pending, Completed, Failed, Skipped };

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
};

/** What a resume must match: the grid's labels and its RunConfig. */
struct SweepFingerprint
{
    /** Row labels: benchmarks or mix names. */
    std::vector<std::string> runs;
    /** Column labels: policy names. */
    std::vector<std::string> policies;
    /** The grid's RunConfig, as its JsonFields list writes it. */
    obs::JsonValue config;
};

/** The whole manifest document. */
struct ManifestFile
{
    std::uint64_t schema = 0;
    /** "grid" (single-core rows) or "mix_grid" (multi-core mixes). */
    std::string kind;
    SweepFingerprint fingerprint;
    /** runs x policies cells, row-major. */
    std::vector<CellRecord> cells;
};

/**
 * One sweep's checkpoint file.  All mutators are thread-safe (pool
 * threads complete cells concurrently) and every mutation rewrites
 * the manifest via an atomic tmp+rename, so the on-disk file is a
 * well-formed JSON document at every instant — even across SIGKILL.
 */
class SweepManifest
{
  public:
    static constexpr std::uint64_t kSchemaVersion = 3;

    /**
     * Describe a grid about to run: @p kind is "grid" or "mix_grid",
     * @p runs the row labels (benchmarks or mix names), @p policies
     * the column labels, @p cfg the configuration every cell runs
     * under.  Together they form the fingerprint a resume must match.
     */
    SweepManifest(std::string path, std::string kind,
                  std::vector<std::string> runs,
                  std::vector<std::string> policies,
                  const RunConfig &cfg);

    /**
     * Restore completed cells from the file at path(), if present.
     * A missing file is a fresh start (returns 0).  A malformed file,
     * one of another schema version, or one whose fingerprint (kind,
     * runs, policies, RunConfig) differs is fatal(): resuming a
     * *different* sweep would silently mix experiments.
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

  private:
    /** Run @p fn on the cells under the mutex, then persist them. */
    template <typename Fn>
    void mutate(Fn &&fn);
    void flushLocked() const;

    mutable std::mutex mutex_;
    std::string path_;
    ManifestFile file_;
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
        v("config", f.config);
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
        v("cells", m.cells);
    }
};

} // namespace sdbp::obs

#endif // SDBP_SIM_SWEEP_MANIFEST_HH
