/**
 * @file
 * Event-trace sink: streams every predictor consultation, LLC fill,
 * eviction and bypass to a JSONL file, one JSON object per line.  A
 * run builds a sink only when it asks for an events file
 * (ObsOptions::traceJsonlPath).  Hot-path emission goes through the
 * SDBP_TRACE_EVENT macro, which costs one predictable null-pointer
 * test when no sink is attached.
 */

#ifndef SDBP_OBS_TRACE_SINK_HH
#define SDBP_OBS_TRACE_SINK_HH

#include <cstdint>
#include <fstream>
#include <string>

#include "util/types.hh"

namespace sdbp::obs
{

enum class TraceEventKind : std::uint8_t
{
    Prediction, ///< predictor consulted on a demand access
    Fill,       ///< block installed in the cache
    Eviction,   ///< valid block evicted
    Bypass,     ///< fill declined (predicted dead on arrival)
};

/** Stable lowercase name ("prediction", "fill", ...). */
const char *traceEventKindName(TraceEventKind kind);

struct TraceEvent
{
    std::uint64_t tick = 0;
    TraceEventKind kind = TraceEventKind::Prediction;
    std::uint32_t set = 0;
    Addr blockAddr = 0;
    PC pc = 0;
    /** Dead prediction attached to the event (kind-dependent). */
    bool predictedDead = false;
};

class TraceSink
{
  public:
    /** Open (and truncate) @p path; isOpen() tells whether it did. */
    explicit TraceSink(const std::string &path);

    bool isOpen() const { return out_.is_open(); }

    /** Append @p e to the file as one line. */
    void record(const TraceEvent &e);

    /** One JSONL line (no trailing newline). */
    static std::string toJsonl(const TraceEvent &e);

  private:
    std::ofstream out_;
};

} // namespace sdbp::obs

/** Record a TraceEvent through @p sink (a TraceSink*; may be null). */
#define SDBP_TRACE_EVENT(sink, ...)                                    \
    do {                                                               \
        if (sink)                                                      \
            (sink)->record(::sdbp::obs::TraceEvent{__VA_ARGS__});      \
    } while (0)

#endif // SDBP_OBS_TRACE_SINK_HH
