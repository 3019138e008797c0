/**
 * @file
 * The unified TraceSource API: a TraceSpec names where a run's
 * reference stream comes from — the synthetic workload generators
 * (the default), a native sdbp trace file, or a ChampSim trace — and
 * makeTraceSource turns it into the AccessGenerator the System
 * consumes.  The spec is embedded in RunConfig and so is part of a
 * sweep manifest's fingerprint: a trace-driven grid checkpoints and
 * resumes like any other (DESIGN.md §17).
 */

#ifndef SDBP_TRACE_TRACE_SOURCE_HH
#define SDBP_TRACE_TRACE_SOURCE_HH

#include <memory>
#include <optional>
#include <string>

#include "trace/access.hh"

namespace sdbp
{

enum class TraceKind
{
    /** Synthetic workload generator named by the run's benchmark. */
    Synthetic,
    /** Native sdbp trace file (trace/trace_file.hh). */
    Native,
    /** ChampSim instruction trace (trace/champsim.hh). */
    ChampSim,
};

/** Stable spelling for manifests/CLI ("synthetic" etc.). */
std::string traceKindName(TraceKind kind);
std::optional<TraceKind> parseTraceKind(const std::string &name);

/** Where one run's reference stream comes from. */
struct TraceSpec
{
    TraceKind kind = TraceKind::Synthetic;
    /** Trace file path (Native/ChampSim; compressed .gz/.xz ok). */
    std::string path;

    bool synthetic() const { return kind == TraceKind::Synthetic; }

    bool operator==(const TraceSpec &) const = default;
};

/**
 * Detect the on-disk kind of @p path by probing its (decompressed)
 * first bytes: the native magic wins, anything else is ChampSim.
 * fatal() when the file is unreadable or empty.
 */
TraceKind detectTraceKind(const std::string &path);

/**
 * Build the generator a run drives: the benchmark's synthetic
 * workload for TraceKind::Synthetic, a streaming TraceReplayGenerator
 * otherwise.  @p address_space disambiguates per-core instances the
 * way SyntheticWorkload does (file-backed kinds replay the same
 * trace on every core).
 */
std::unique_ptr<AccessGenerator>
makeTraceSource(const TraceSpec &spec, const std::string &benchmark,
                unsigned address_space = 0);

} // namespace sdbp

#endif // SDBP_TRACE_TRACE_SOURCE_HH
