#include "obs/artifacts.hh"

#include "util/file.hh"

namespace sdbp::obs
{

namespace
{

JsonValue
hostJson(const util::PerfCounters::Sample &s)
{
    JsonValue host = JsonValue::object();
    host.set("cycles", JsonValue(s.cycles));
    host.set("instructions", JsonValue(s.instructions));
    host.set("llc_misses", JsonValue(s.llcMisses));
    host.set("branch_misses", JsonValue(s.branchMisses));
    host.set("ipc", JsonValue(s.hostIpc()));
    return host;
}

} // anonymous namespace

const TimelineSeries *
RunArtifacts::findSeries(const std::string &name) const
{
    for (const auto &s : series)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::uint64_t
RunArtifacts::simulatedInstructions() const
{
    std::uint64_t n = 0;
    for (const PhaseRecord &p : profile)
        n += p.instructions;
    return n;
}

double
RunArtifacts::nsPerInstr() const
{
    double seconds = 0;
    for (const PhaseRecord &p : profile)
        seconds += p.seconds();
    const std::uint64_t n = simulatedInstructions();
    return n > 0 ? seconds * 1e9 / static_cast<double>(n) : 0;
}

JsonValue
RunArtifacts::toJson() const
{
    JsonValue root = JsonValue::object();
    root.set("schema", "sdbp.run_artifacts/1");
    root.set("benchmark", benchmark);
    root.set("policy", policy);

    JsonValue cfg = JsonValue::object();
    cfg.set("warmup_instructions", JsonValue(warmupInstructions));
    cfg.set("measure_instructions", JsonValue(measureInstructions));
    cfg.set("interval_instructions", JsonValue(intervalInstructions));
    root.set("config", std::move(cfg));

    root.set("stats", snapshotToJson(finalSnapshot));

    JsonValue timeline = JsonValue::object();
    JsonValue ticks = JsonValue::array();
    for (const auto &snap : intervals)
        ticks.push(JsonValue(snap.tick));
    timeline.set("tick", std::move(ticks));
    for (const auto &s : series) {
        JsonValue vals = JsonValue::array();
        for (const double v : s.values)
            vals.push(JsonValue(v));
        timeline.set(s.name, std::move(vals));
    }
    root.set("timeline", std::move(timeline));

    if (hasConfusion) {
        JsonValue c = JsonValue::object();
        c.set("dead_evicted", JsonValue(confusion.deadEvicted));
        c.set("dead_hit", JsonValue(confusion.deadHit));
        c.set("live_evicted", JsonValue(confusion.liveEvicted));
        c.set("live_hit", JsonValue(confusion.liveHit));
        c.set("accuracy", JsonValue(confusion.accuracy()));
        c.set("false_discovery_rate",
              JsonValue(confusion.falseDiscoveryRate()));
        root.set("confusion", std::move(c));
    }

    JsonValue prof = JsonValue::array();
    for (const PhaseRecord &phase : profile) {
        JsonValue p = JsonValue::object();
        p.set("scope", phase.name);
        p.set("seconds", JsonValue(phase.seconds()));
        p.set("calls", JsonValue(std::uint64_t{1}));
        p.set("events", JsonValue(phase.instructions));
        p.set("events_per_sec", JsonValue(phase.instructionsPerSec()));
        if (phase.host.valid)
            p.set("host", hostJson(phase.host));
        prof.push(std::move(p));
    }
    root.set("profile", std::move(prof));

    // Simulator-of-the-simulator telemetry (DESIGN.md §14): how fast
    // the host executed this run, in wall clock and — when
    // perf_event is available — hardware counters.
    JsonValue timing = JsonValue::object();
    timing.set("wall_seconds", JsonValue(wallSeconds));
    const std::uint64_t simulated = simulatedInstructions();
    timing.set("simulated_instructions", JsonValue(simulated));
    if (simulated > 0)
        timing.set("ns_per_instr", JsonValue(nsPerInstr()));
    if (const auto host = hostTotal(profile); host.valid)
        timing.set("host", hostJson(host));
    root.set("timing", std::move(timing));
    return root;
}

bool
RunArtifacts::writeJson(const std::string &path) const
{
    return util::atomicWriteFile(path, toJson().dump() + "\n");
}

std::string
RunArtifacts::timelineCsv() const
{
    std::string csv = "interval,tick_end";
    for (const auto &s : series)
        csv += "," + s.name;
    csv += "\n";
    const std::size_t n =
        intervals.empty() ? 0 : intervals.size() - 1;
    for (std::size_t i = 0; i < n; ++i) {
        csv += std::to_string(i);
        csv += ",";
        csv += std::to_string(intervals[i + 1].tick);
        for (const auto &s : series) {
            csv += ",";
            csv += i < s.values.size()
                ? JsonValue(s.values[i]).dump(0)
                : std::string("0");
        }
        csv += "\n";
    }
    return csv;
}

bool
RunArtifacts::writeTimelineCsv(const std::string &path) const
{
    return util::atomicWriteFile(path, timelineCsv());
}

std::vector<TimelineSeries>
standardSeries(const IntervalTimeline &timeline)
{
    std::vector<TimelineSeries> out;
    if (timeline.snapshots().empty())
        return out;
    const StatSnapshot &first = timeline.snapshots().front();
    auto have = [&](const char *name) {
        return first.find(name) != nullptr;
    };
    auto add = [&](const char *name, std::vector<double> values) {
        out.push_back({name, std::move(values)});
    };

    if (have("llc.demand_misses") && have("sys.instructions"))
        add("mpki", timeline.rateSeries("llc.demand_misses",
                                        "sys.instructions", 1000.0));
    if (have("core0.instructions") && have("core0.cycles"))
        add("ipc", timeline.rateSeries("core0.instructions",
                                       "core0.cycles"));
    if (have("llc.demand_misses") && have("llc.demand_accesses"))
        add("miss_rate", timeline.rateSeries("llc.demand_misses",
                                             "llc.demand_accesses"));
    if (have("llc.bypasses") && have("llc.demand_misses"))
        add("bypass_rate", timeline.rateSeries("llc.bypasses",
                                               "llc.demand_misses"));
    if (have("dbrb.positives") && have("dbrb.predictions"))
        add("coverage", timeline.rateSeries("dbrb.positives",
                                            "dbrb.predictions"));
    if (have("dbrb.confusion.dead_evicted")) {
        const auto tp =
            timeline.deltaSeries("dbrb.confusion.dead_evicted");
        const auto fp = timeline.deltaSeries("dbrb.confusion.dead_hit");
        const auto fn =
            timeline.deltaSeries("dbrb.confusion.live_evicted");
        const auto tn = timeline.deltaSeries("dbrb.confusion.live_hit");
        std::vector<double> acc;
        acc.reserve(tp.size());
        for (std::size_t i = 0; i < tp.size(); ++i) {
            const double total = tp[i] + fp[i] + fn[i] + tn[i];
            acc.push_back(total > 0 ? (tp[i] + tn[i]) / total : 0.0);
        }
        add("accuracy", std::move(acc));
    }
    return out;
}

} // namespace sdbp::obs
