#include "obs/trace_sink.hh"

#include <sstream>

namespace sdbp::obs
{

const char *
traceEventKindName(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::Prediction: return "prediction";
      case TraceEventKind::Fill: return "fill";
      case TraceEventKind::Eviction: return "eviction";
      case TraceEventKind::Bypass: return "bypass";
    }
    return "unknown";
}

namespace
{

/** @p e as one JSON object, written field by field: no temporaries. */
void
writeJsonl(std::ostream &os, const TraceEvent &e)
{
    os << "{\"tick\":" << e.tick << ",\"event\":\""
       << traceEventKindName(e.kind) << "\",\"set\":" << e.set
       << ",\"block\":" << e.blockAddr << ",\"pc\":" << e.pc
       << ",\"dead\":" << (e.predictedDead ? "true" : "false") << '}';
}

} // anonymous namespace

TraceSink::TraceSink(const std::string &path)
    : out_(path, std::ios::trunc)
{
}

void
TraceSink::record(const TraceEvent &e)
{
    writeJsonl(out_, e);
    out_ << '\n';
}

std::string
TraceSink::toJsonl(const TraceEvent &e)
{
    std::ostringstream os;
    writeJsonl(os, e);
    return os.str();
}

} // namespace sdbp::obs
