#include "spans.hh"

#include <fstream>
#include <unordered_map>

namespace perfbench
{

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
SpanLog::add(std::uint64_t id, std::uint64_t parent, std::uint64_t cell,
             std::string name, std::string label,
             Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    spans_.push_back({id, parent, cell, std::move(name),
                      std::move(label), start, end});
}

std::map<std::string, double>
SpanLog::selfSecondsByName() const
{
    std::unordered_map<std::uint64_t, double> child_s;
    for (const Span &s : spans_)
        if (s.parent != 0)
            child_s[s.parent] += secondsBetween(s.start, s.end);
    std::map<std::string, double> self;
    for (const Span &s : spans_) {
        const auto it = child_s.find(s.id);
        self[s.name] += secondsBetween(s.start, s.end) -
            (it == child_s.end() ? 0.0 : it->second);
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    const auto us = [this](Clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    };
    os << "{\"schema\":\"perfbench.spans/1\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Labels are benchmark and policy names: no characters that
        // need JSON escaping.
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
           << "\"tid\":1,\"ts\":" << us(s.start)
           << ",\"dur\":" << us(s.end) - us(s.start)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"cell\":" << s.cell << ",\"label\":\"" << s.label
           << "\"}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
