/**
 * @file
 * The machine-readable artifact of one instrumented run: final
 * registry snapshot, per-interval timeline, predictor confusion
 * matrix and wall-clock profile, with JSON and CSV exporters.  This
 * is what `tools/sdbp_inspect` prints and what the SDBP_STATS_JSON
 * path receives.
 */

#ifndef SDBP_OBS_ARTIFACTS_HH
#define SDBP_OBS_ARTIFACTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/confusion.hh"
#include "obs/interval.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/stat_registry.hh"

namespace sdbp::obs
{

/** One derived per-interval series ("mpki", "ipc", ...). */
struct TimelineSeries
{
    std::string name;
    std::vector<double> values;
};

struct RunArtifacts
{
    std::string benchmark;
    std::string policy;
    std::uint64_t warmupInstructions = 0;
    std::uint64_t measureInstructions = 0;
    std::uint64_t intervalInstructions = 0;

    /** Registry snapshot at end of run. */
    StatSnapshot finalSnapshot;
    /** Cumulative snapshots at every heartbeat (measurement phase);
     *  the first entry is the measurement-start baseline. */
    std::vector<StatSnapshot> intervals;
    /** Derived per-interval series (one value per interval). */
    std::vector<TimelineSeries> series;

    bool hasConfusion = false;
    ConfusionMatrix confusion;

    /** run()'s phases as its phase clock recorded them: the
     *  "profile" entries, and the source of every timing figure. */
    std::vector<PhaseRecord> profile;

    /** Wall-clock seconds of the run at collect time (setup +
     *  warmup + measure; excludes artifact export). */
    double wallSeconds = 0;

    /** Every instruction run() simulated: the phases' sum, warm-up
     *  and restarted programs included. */
    std::uint64_t simulatedInstructions() const;

    /**
     * Host nanoseconds per simulated instruction: summed phase
     * seconds x 1e9 / simulatedInstructions().  The one definition
     * (perfbench/README.md): host time inside run() over every
     * instruction run() simulated, setup excluded.
     */
    double nsPerInstr() const;

    const TimelineSeries *findSeries(const std::string &name) const;

    JsonValue toJson() const;
    /** Write toJson() to @p path; false on I/O failure. */
    bool writeJson(const std::string &path) const;

    /**
     * Timeline as CSV: one row per interval with the end tick and
     * every derived series as a column.
     */
    std::string timelineCsv() const;
    bool writeTimelineCsv(const std::string &path) const;
};

/**
 * Compute the standard derived series from a timeline using the
 * canonical stat names (DESIGN.md §9): mpki, ipc, bypass_rate,
 * dead_coverage, confusion accuracy.  Missing stats produce no
 * series, so the helper works for any policy.
 */
std::vector<TimelineSeries>
standardSeries(const IntervalTimeline &timeline);

} // namespace sdbp::obs

#endif // SDBP_OBS_ARTIFACTS_HH
