/**
 * @file
 * The benchmark's own span log.  Kept apart from the simulator's
 * obs::SpanTracer on purpose: the benchmark measures that telemetry
 * layer, so its own timing must not depend on it.
 *
 * Spans are recorded around the benchmark's calls into the simulator
 * (cell -> setup -> run, one span per ladder rung), kept in memory and
 * written once at exit.  Spans of one cell share the cell's id.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

class SpanLog
{
  public:
    struct Span
    {
        std::uint64_t id = 0;
        /** 0 for a root span. */
        std::uint64_t parent = 0;
        /** Id shared by every span of one cell. */
        std::uint64_t cell = 0;
        std::string name;
        std::string label;
        Clock::time_point start;
        Clock::time_point end;
    };

    /** A log that records nothing (untraced runs). */
    SpanLog() = default;
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** A fresh span id; a cell's root span id doubles as its cell
     *  id.  Children are recorded before their parent ends, so ids
     *  are handed out before the span is. */
    std::uint64_t newId() { return ++lastId_; }

    /** Record a finished span (no-op when disabled). */
    void add(std::uint64_t id, std::uint64_t parent, std::uint64_t cell,
             std::string name, std::string label,
             Clock::time_point start, Clock::time_point end);

    /** Total self time (duration minus children) per span name. */
    std::map<std::string, double> selfSecondsByName() const;

    /** Chrome trace_event JSON; false on I/O failure. */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    bool enabled_ = false;
    std::uint64_t lastId_ = 0;
    std::vector<Span> spans_;
    Clock::time_point epoch_ = Clock::now();
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
