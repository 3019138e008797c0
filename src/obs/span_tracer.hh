/**
 * @file
 * Span tracing for the simulator itself: RAII scoped spans with
 * thread attribution and nesting, collected into a bounded lock-free
 * buffer and exported as Chrome `trace_event` JSON (schema
 * `sdbp.trace_spans/1`) that loads directly in Perfetto or
 * chrome://tracing.
 *
 * Spans fire at *cell and phase granularity only* — one span per
 * sweep cell, one per warmup/measure phase — never per simulated
 * access, so the sealed hot path (DESIGN.md §12/§13) stays clean and
 * the tools/sdbp_lint `hot-span` rule rejects any emission reachable
 * from an SDBP_HOT_PATH root.
 *
 * The process-wide tracer (SpanTracer::global()) is enabled by
 * SDBP_SPANS=1; when disabled, span() returns an inert handle and
 * records nothing.  All tracer output (progress, file notices) goes
 * to stderr so stdout byte-identity guarantees hold with tracing on
 * or off.
 */

#ifndef SDBP_OBS_SPAN_TRACER_HH
#define SDBP_OBS_SPAN_TRACER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace sdbp::obs
{

/** One completed span, microseconds relative to the tracer epoch. */
struct SpanRecord
{
    /** Display name ("456.hmmer/Sampler", "warmup", ...). */
    std::string name;
    /** Category: "cell", "phase", "bench", ... */
    std::string category;
    /** Cell label a phase span belongs to ("" for cell spans). */
    std::string cell;
    std::uint64_t startUs = 0;
    std::uint64_t durUs = 0;
    /** Small sequential id of the emitting thread. */
    std::uint32_t tid = 0;
    /** Nesting depth within the emitting thread at begin time. */
    std::uint32_t depth = 0;
    /** Attempts the cell took (retries = attempts - 1); 0 = n/a. */
    std::uint32_t attempts = 0;
    bool failed = false;
    bool timedOut = false;
    bool resumed = false;
    bool skipped = false;
};

/**
 * Bounded span collector.  Writers claim slots with one relaxed
 * fetch_add (lock-free, wait-free); when the buffer is full, new
 * spans are dropped and counted rather than blocking or overwriting
 * a slot another thread may still be writing.  Export happens after
 * the sweep's worker threads have been joined, which provides the
 * necessary happens-before edge.
 */
class SpanTracer
{
  public:
    explicit SpanTracer(std::size_t capacity = 65536);

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    /**
     * RAII span: records begin time at construction and commits the
     * completed SpanRecord to the tracer at destruction.  Inert when
     * the tracer is disabled (or null).  Annotations set between
     * construction and destruction ride along in the record.
     */
    class Span
    {
      public:
        Span() = default;
        Span(SpanTracer *tracer, std::string category,
             std::string name);
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        Span(Span &&other) noexcept;
        Span &operator=(Span &&) = delete;
        ~Span();

        bool active() const { return tracer_ != nullptr; }

        void setAttempts(std::uint32_t n) { attempts_ = n; }
        void setFailed(bool timed_out)
        {
            failed_ = true;
            timedOut_ = timed_out;
        }
        void setResumed() { resumed_ = true; }
        void setSkipped() { skipped_ = true; }

      private:
        SpanTracer *tracer_ = nullptr;
        std::string category_;
        std::string name_;
        std::chrono::steady_clock::time_point start_;
        std::uint32_t depth_ = 0;
        std::uint32_t attempts_ = 0;
        bool failed_ = false;
        bool timedOut_ = false;
        bool resumed_ = false;
        bool skipped_ = false;
    };

    /** Begin a span now; inert handle when the tracer is disabled. */
    Span span(std::string category, std::string name);

    /**
     * Direct emission for callers that already measured an interval
     * (the runner mirrors run()'s phases through this).  No-op when
     * disabled.  @p cell attributes the span to a sweep cell.
     */
    void emit(const std::string &category, const std::string &name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end,
              const std::string &cell = {});

    /** Spans ever offered to the tracer (stored + dropped). */
    std::uint64_t recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }
    /** Spans rejected because the buffer was full. */
    std::uint64_t dropped() const;
    /** Spans currently stored. */
    std::size_t size() const;
    std::size_t capacity() const { return slots_.size(); }

    /** Stored spans in start-time order. */
    std::vector<SpanRecord> snapshot() const;

    /** Forget every stored span (the counters reset too). */
    void clear();

    /**
     * Chrome trace_event document: complete ("ph":"X") events under
     * "traceEvents", schema tag `sdbp.trace_spans/1`.  Loads in
     * Perfetto / chrome://tracing as-is.
     */
    JsonValue toChromeTrace() const;
    /** Write toChromeTrace() to @p path; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    /**
     * The process-wide tracer used by sweep/runner/bench.  Enabled at
     * first use when SDBP_SPANS=1; tests may flip it with
     * setEnabled() and clear() between cases.
     */
    static SpanTracer &global();

    /** Current thread's small sequential id (assigned on first use). */
    static std::uint32_t threadId();

  private:
    void commit(SpanRecord rec);

    friend class Span;
    /** Per-thread nesting depth bookkeeping for Span. */
    static std::uint32_t &nestingDepth();

    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point epoch_;
    std::vector<SpanRecord> slots_;
    std::atomic<std::size_t> next_{0};
    std::atomic<std::uint64_t> recorded_{0};
};

} // namespace sdbp::obs

#endif // SDBP_OBS_SPAN_TRACER_HH
