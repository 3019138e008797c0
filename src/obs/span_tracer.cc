#include "obs/span_tracer.hh"

#include <algorithm>

#include "util/env.hh"
#include "util/file.hh"

namespace sdbp::obs
{

namespace
{

std::uint64_t
microsBetween(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b)
{
    if (b <= a)
        return 0;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(b - a)
            .count());
}

} // anonymous namespace

SpanTracer::SpanTracer(std::size_t capacity)
    // sdbp-lint: allow(det-wallclock)
    : epoch_(std::chrono::steady_clock::now()), slots_(capacity)
{
}

std::uint32_t
SpanTracer::threadId()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local std::uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

std::uint32_t &
SpanTracer::nestingDepth()
{
    thread_local std::uint32_t depth = 0;
    return depth;
}

SpanTracer::Span::Span(SpanTracer *tracer, std::string category,
                       std::string name)
    : category_(std::move(category)), name_(std::move(name))
{
    if (!tracer || !tracer->enabled())
        return;
    tracer_ = tracer;
    start_ = std::chrono::steady_clock::now(); // sdbp-lint: allow(det-wallclock)
    depth_ = nestingDepth()++;
}

SpanTracer::Span::Span(Span &&other) noexcept
    : tracer_(other.tracer_), category_(std::move(other.category_)),
      name_(std::move(other.name_)), start_(other.start_),
      depth_(other.depth_), attempts_(other.attempts_),
      failed_(other.failed_), timedOut_(other.timedOut_),
      resumed_(other.resumed_), skipped_(other.skipped_)
{
    other.tracer_ = nullptr;
}

SpanTracer::Span::~Span()
{
    if (!tracer_)
        return;
    --nestingDepth();
    SpanRecord rec;
    rec.name = std::move(name_);
    rec.category = std::move(category_);
    rec.startUs = microsBetween(tracer_->epoch_, start_);
    rec.durUs = microsBetween(
        start_,
        std::chrono::steady_clock::now()); // sdbp-lint: allow(det-wallclock)
    rec.tid = threadId();
    rec.depth = depth_;
    rec.attempts = attempts_;
    rec.failed = failed_;
    rec.timedOut = timedOut_;
    rec.resumed = resumed_;
    rec.skipped = skipped_;
    tracer_->commit(std::move(rec));
}

SpanTracer::Span
SpanTracer::span(std::string category, std::string name)
{
    return Span(this, std::move(category), std::move(name));
}

void
SpanTracer::emit(const std::string &category, const std::string &name,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point end,
                 const std::string &cell)
{
    if (!enabled())
        return;
    SpanRecord rec;
    rec.name = name;
    rec.category = category;
    rec.cell = cell;
    rec.startUs = microsBetween(epoch_, start);
    rec.durUs = microsBetween(start, end);
    rec.tid = threadId();
    rec.depth = nestingDepth();
    commit(std::move(rec));
}

void
SpanTracer::commit(SpanRecord rec)
{
    recorded_.fetch_add(1, std::memory_order_relaxed);
    // One relaxed ticket per span; tickets beyond capacity are
    // dropped (never recycled), so a slot has exactly one writer and
    // the joined-threads export needs no further synchronization.
    const std::size_t ticket =
        next_.fetch_add(1, std::memory_order_relaxed);
    if (ticket >= slots_.size())
        return;
    slots_[ticket] = std::move(rec);
}

std::uint64_t
SpanTracer::dropped() const
{
    const std::uint64_t total = recorded();
    const std::uint64_t cap = slots_.size();
    return total > cap ? total - cap : 0;
}

std::size_t
SpanTracer::size() const
{
    return std::min(next_.load(std::memory_order_relaxed),
                    slots_.size());
}

std::vector<SpanRecord>
SpanTracer::snapshot() const
{
    std::vector<SpanRecord> out(slots_.begin(),
                                slots_.begin() +
                                    static_cast<std::ptrdiff_t>(size()));
    // Depth tie-breaks equal start stamps (µs resolution) so a
    // parent precedes the children it encloses.
    std::stable_sort(out.begin(), out.end(),
                     [](const SpanRecord &a, const SpanRecord &b) {
                         return a.startUs != b.startUs
                             ? a.startUs < b.startUs
                             : a.depth < b.depth;
                     });
    return out;
}

void
SpanTracer::clear()
{
    next_.store(0, std::memory_order_relaxed);
    recorded_.store(0, std::memory_order_relaxed);
    epoch_ = std::chrono::steady_clock::now(); // sdbp-lint: allow(det-wallclock)
}

JsonValue
SpanTracer::toChromeTrace() const
{
    JsonValue root = JsonValue::object();
    root.set("schema", JsonValue("sdbp.trace_spans/1"));
    root.set("displayTimeUnit", JsonValue("ms"));
    root.set("spans_recorded", JsonValue(recorded()));
    root.set("spans_dropped", JsonValue(dropped()));

    JsonValue events = JsonValue::array();
    for (const SpanRecord &s : snapshot()) {
        JsonValue e = JsonValue::object();
        e.set("name", JsonValue(s.name));
        e.set("cat", JsonValue(s.category));
        e.set("ph", JsonValue("X"));
        e.set("ts", JsonValue(s.startUs));
        e.set("dur", JsonValue(s.durUs));
        e.set("pid", JsonValue(std::uint64_t{1}));
        e.set("tid", JsonValue(std::uint64_t{s.tid}));
        JsonValue args = JsonValue::object();
        args.set("depth", JsonValue(std::uint64_t{s.depth}));
        if (!s.cell.empty())
            args.set("cell", JsonValue(s.cell));
        if (s.attempts > 0)
            args.set("attempts",
                     JsonValue(std::uint64_t{s.attempts}));
        if (s.failed) {
            args.set("failed", JsonValue(true));
            args.set("timed_out", JsonValue(s.timedOut));
        }
        if (s.resumed)
            args.set("resumed", JsonValue(true));
        if (s.skipped)
            args.set("skipped", JsonValue(true));
        e.set("args", std::move(args));
        events.push(std::move(e));
    }
    root.set("traceEvents", std::move(events));
    return root;
}

bool
SpanTracer::writeChromeTrace(const std::string &path) const
{
    return util::atomicWriteFile(path, toChromeTrace().dump() + "\n");
}

SpanTracer &
SpanTracer::global()
{
    static SpanTracer tracer;
    static const bool init = [] {
        tracer.setEnabled(env::u64("SDBP_SPANS", 0, 0, 1) == 1);
        return true;
    }();
    (void)init;
    return tracer;
}

} // namespace sdbp::obs
