/**
 * @file
 * Host-time record of one simulation phase (DESIGN.md §14).
 * SystemBase::run's phase clock takes one per phase — warm-up, then
 * measurement — and the runner derives every host-time output of a
 * run from them: the artifact's `profile` entries and `timing` block,
 * the "phase" spans and RunResult::hostPerf.
 */

#ifndef SDBP_OBS_PHASE_HH
#define SDBP_OBS_PHASE_HH

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/perf_counters.hh"

namespace sdbp::obs
{

struct PhaseRecord
{
    /** "warmup" or "measure". */
    const char *name = "";
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point end;
    /** Instructions the phase ticked, all cores together. */
    std::uint64_t instructions = 0;
    /** Host-counter deltas over the phase (valid=false without
     *  counters). */
    util::PerfCounters::Sample host;

    double seconds() const
    {
        return std::chrono::duration<double>(end - start).count();
    }

    double instructionsPerSec() const
    {
        const double s = seconds();
        return s > 0 ? static_cast<double>(instructions) / s : 0;
    }
};

/** Host-counter deltas summed over @p phases; valid only when every
 *  phase's are. */
inline util::PerfCounters::Sample
hostTotal(const std::vector<PhaseRecord> &phases)
{
    util::PerfCounters::Sample sum;
    sum.valid = !phases.empty();
    for (const PhaseRecord &p : phases) {
        sum.valid = sum.valid && p.host.valid;
        sum.cycles += p.host.cycles;
        sum.instructions += p.host.instructions;
        sum.llcMisses += p.host.llcMisses;
        sum.branchMisses += p.host.branchMisses;
    }
    if (!sum.valid)
        return {};
    return sum;
}

} // namespace sdbp::obs

#endif // SDBP_OBS_PHASE_HH
