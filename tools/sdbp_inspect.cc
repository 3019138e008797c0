/**
 * @file
 * sdbp_inspect: run one instrumented simulation and inspect its
 * observability artifacts from the command line.
 *
 *   sdbp_inspect --benchmark hmmer --policy Sampler \
 *                --json run.json --csv timeline.csv
 *
 * Prints a human-readable summary (headline metrics, predictor
 * confusion matrix, per-interval timeline, wall-clock profile) and
 * optionally exports the machine-readable artifacts: the
 * `sdbp.run_artifacts/1` JSON, the derived timeline CSV, and the
 * event-trace JSONL.
 *
 * --benchmark and --policy accept comma-separated lists; a
 * multi-cell selection runs the whole grid in parallel (SDBP_JOBS /
 * --jobs workers) through the sweep engine and prints one summary
 * row per cell, with artifact paths derived per cell.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/artifacts.hh"
#include "obs/span_tracer.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/worker.hh"
#include "trace/champsim.hh"
#include "trace/spec_profiles.hh"
#include "trace/workload.hh"
#include "util/file.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace
{

using namespace sdbp;

int
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "\n"
        << "Run one instrumented single-core simulation and inspect "
           "its artifacts.\n"
        << "\n"
        << "options:\n"
        << "  --benchmark <names>  SPEC benchmark (default "
           "456.hmmer); the\n"
        << "                       numeric prefix is optional "
           "(\"hmmer\" works);\n"
        << "                       comma-separated lists sweep a "
           "grid\n"
        << "  --policy <names>     LLC policy (default Sampler); "
           "case-insensitive,\n"
        << "                       spaces/dashes/underscores "
           "interchangeable;\n"
        << "                       comma-separated lists sweep a "
           "grid\n"
        << "  --jobs <n>           sweep threads (default SDBP_JOBS "
           "or all cores)\n"
        << "  --workers <n>        crash-isolated worker *processes* "
           "instead of\n"
        << "                       threads (default SDBP_WORKERS or "
           "0 = in-process);\n"
        << "                       requires --manifest\n"
        << "  --retries <n>        extra attempts per failing sweep "
           "cell\n"
        << "                       (default SDBP_RETRIES or 0)\n"
        << "  --manifest <path>    checkpoint each cell outcome to "
           "this JSON\n"
        << "  --manifest-info <f>  print the per-cell state of a "
           "sweep manifest\n"
        << "                       (status, lease pid/generation, "
           "crash detail)\n"
        << "                       and exit; works on in-flight "
           "sweeps\n"
        << "  --resume             restore completed cells from the "
           "manifest\n"
        << "                       instead of re-running them\n"
        << "  --fault-rate <n>     inject n soft errors per million "
           "predictor\n"
        << "                       consultations (0..1000000)\n"
        << "  --fault-seed <n>     seed of the fault injector\n"
        << "  --warmup <n>         warm-up instructions\n"
        << "  --instructions <n>   measured instructions\n"
        << "  --interval <n>       snapshot period in instructions\n"
        << "  --trace <file>       simulate this memory trace (native "
           "or ChampSim\n"
        << "                       format; .gz/.xz transparently "
           "decompressed)\n"
        << "                       instead of a synthetic benchmark\n"
        << "  --record <out>       record the benchmark's reference "
           "stream as a\n"
        << "                       ChampSim trace covering the run's "
           "instruction\n"
        << "                       budget, then exit\n"
        << "  --intervals <n>      interval-selection: interval "
           "length in\n"
        << "                       instructions (with --select)\n"
        << "  --select <k>         interval-selection: simulate k "
           "weighted\n"
        << "                       representative intervals of the "
           "trace\n"
        << "  --json <path>        write the run-artifact JSON\n"
        << "  --csv <path>         write the derived timeline CSV\n"
        << "  --events <path>      stream every trace event "
           "(prediction,\n"
        << "                       fill, eviction, bypass) as JSONL\n"
        << "  --spans <file>       summarize a sdbp.trace_spans/1 "
           "JSON (slowest\n"
        << "                       cells, retries, per-phase "
           "breakdown) and exit\n"
        << "  --spans-out <path>   export this invocation's spans "
           "there\n"
        << "                       (implies span tracing on)\n"
        << "  --stats              dump every final stat, not just "
           "the summary\n"
        << "  --list-benchmarks    print the known benchmarks and "
           "exit\n"
        << "  --list-policies      print the known policies and "
           "exit\n"
        << "  --help               this text\n"
        << "\n"
        << "The same artifacts are available from any run via the\n"
        << "SDBP_STATS_JSON / SDBP_INTERVAL environment variables.\n";
    return 2;
}

/** Accept "456.hmmer" or just "hmmer". */
std::optional<std::string>
resolveBenchmark(const std::string &name)
{
    for (const auto &full : allSpecBenchmarks()) {
        if (full == name)
            return full;
        const auto dot = full.find('.');
        if (dot != std::string::npos && full.substr(dot + 1) == name)
            return full;
    }
    return std::nullopt;
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        const auto comma = text.find(',', start);
        const auto end =
            comma == std::string::npos ? text.size() : comma;
        if (end > start)
            out.push_back(text.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return out;
}

void
printSummary(const obs::RunArtifacts &art)
{
    const auto &snap = art.finalSnapshot;
    const double insts =
        snap.value("sys.instructions",
                   static_cast<double>(art.measureInstructions));

    TextTable t({"Metric", "Value"});
    t.row().cell("benchmark").cell(art.benchmark);
    t.row().cell("policy").cell(art.policy);
    t.row().cell("instructions (warmup+measure)")
        .cell(std::to_string(art.warmupInstructions) + "+" +
              std::to_string(art.measureInstructions));
    if (snap.find("core0.cycles")) {
        const double cycles = snap.value("core0.cycles");
        t.row().cell("IPC").cell(
            formatDouble(cycles > 0 ? insts / cycles : 0, 3));
    }
    if (snap.find("llc.demand_misses")) {
        const double misses = snap.value("llc.demand_misses");
        t.row().cell("LLC MPKI").cell(formatDouble(
            insts > 0 ? 1000.0 * misses / insts : 0, 3));
        t.row().cell("LLC demand accesses").cell(
            std::to_string(snap.counter("llc.demand_accesses")));
        t.row().cell("LLC demand misses").cell(
            std::to_string(snap.counter("llc.demand_misses")));
        t.row().cell("LLC bypasses").cell(
            std::to_string(snap.counter("llc.bypasses")));
        t.row().cell("LLC evictions").cell(
            std::to_string(snap.counter("llc.evictions")));
    }
    if (snap.find("llc.efficiency"))
        t.row().cell("LLC efficiency").cell(
            formatPercent(snap.value("llc.efficiency"), 1));
    if (snap.find("dbrb.pred.storage_bits"))
        t.row().cell("predictor storage (KB)").cell(formatDouble(
            snap.value("dbrb.pred.storage_bits") / 8192.0, 1));
    t.print(std::cout);

    if (art.hasConfusion) {
        const auto &c = art.confusion;
        std::cout << "\nPrediction confusion matrix (hits and "
                     "evictions classified):\n";
        TextTable ct({"", "observed dead", "observed live"});
        ct.row().cell("predicted dead")
            .cell(std::to_string(c.deadEvicted) + " (TP)")
            .cell(std::to_string(c.deadHit) + " (FP)");
        ct.row().cell("predicted live")
            .cell(std::to_string(c.liveEvicted) + " (FN)")
            .cell(std::to_string(c.liveHit) + " (TN)");
        ct.print(std::cout);
        std::cout << "accuracy " << formatPercent(c.accuracy(), 1)
                  << ", false discovery rate "
                  << formatPercent(c.falseDiscoveryRate(), 1) << "\n";
    }

    if (art.intervals.size() > 1 && !art.series.empty()) {
        std::cout << "\nTimeline (" << art.intervals.size() - 1
                  << " intervals of " << art.intervalInstructions
                  << " instructions):\n";
        std::vector<std::string> headers = {"end tick"};
        for (const auto &s : art.series)
            headers.push_back(s.name);
        TextTable tt(headers);
        const std::size_t n = art.intervals.size() - 1;
        for (std::size_t i = 0; i < n; ++i) {
            auto &row = tt.row().cell(
                std::to_string(art.intervals[i + 1].tick));
            for (const auto &s : art.series)
                row.cell(i < s.values.size()
                             ? formatDouble(s.values[i], 3)
                             : "-");
        }
        tt.print(std::cout);
    }

    if (!art.profile.empty()) {
        std::cout << "\nWall-clock profile:\n";
        TextTable pt({"scope", "seconds", "events", "events/sec"});
        for (const auto &p : art.profile)
            pt.row().cell(p.name)
                .cell(formatDouble(p.seconds(), 3))
                .cell(std::to_string(p.instructions))
                .cell(formatDouble(p.instructionsPerSec(), 0));
        pt.print(std::cout);
    }
}

/** One trace event, as far as the spans summary cares. */
struct SpanRow
{
    std::string name;
    std::string cat;
    double durUs = 0;
    std::uint64_t attempts = 0;
    bool failed = false;
    bool timedOut = false;
    bool resumed = false;
    bool skipped = false;
};

/**
 * `--spans <file>`: load a sdbp.trace_spans/1 document and print the
 * operator's view — slowest cells, retry/failure counts, and where
 * the wall clock went per phase.
 */
int
summarizeSpans(const std::string &path)
{
    bool ok = false;
    const std::string text = util::readFile(path, &ok);
    if (!ok) {
        std::cerr << "error: cannot read " << path << "\n";
        return 1;
    }
    std::string parse_err;
    const auto doc = obs::JsonValue::parse(text, &parse_err);
    if (!doc) {
        std::cerr << "error: " << path << ": " << parse_err << "\n";
        return 1;
    }
    const obs::JsonValue *schema = doc->find("schema");
    if (!schema || schema->asString() != "sdbp.trace_spans/1")
        std::cerr << "warning: " << path
                  << " does not declare schema sdbp.trace_spans/1; "
                     "summarizing anyway\n";
    const obs::JsonValue *events = doc->find("traceEvents");
    if (!events || !events->isArray()) {
        std::cerr << "error: " << path << " has no traceEvents\n";
        return 1;
    }

    std::vector<SpanRow> cells;
    // Phase name -> (total µs, count); ordered for stable output.
    std::map<std::string, std::pair<double, std::uint64_t>> phases;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const obs::JsonValue &ev = events->at(i);
        SpanRow row;
        if (const auto *v = ev.find("name"))
            row.name = v->asString();
        if (const auto *v = ev.find("cat"))
            row.cat = v->asString();
        if (const auto *v = ev.find("dur"))
            row.durUs = v->asNumber();
        if (const auto *args = ev.find("args")) {
            if (const auto *v = args->find("attempts"))
                row.attempts = v->asUInt();
            if (const auto *v = args->find("failed"))
                row.failed = v->asBool();
            if (const auto *v = args->find("timed_out"))
                row.timedOut = v->asBool();
            if (const auto *v = args->find("resumed"))
                row.resumed = v->asBool();
            if (const auto *v = args->find("skipped"))
                row.skipped = v->asBool();
        }
        if (row.cat == "cell") {
            cells.push_back(std::move(row));
        } else {
            auto &[us, count] = phases[row.cat + ":" + row.name];
            us += row.durUs;
            ++count;
        }
    }

    std::cout << "Span trace " << path << ": " << events->size()
              << " spans";
    if (const auto *v = doc->find("spans_dropped");
        v && v->asUInt() > 0)
        std::cout << " (" << v->asUInt() << " dropped: buffer full)";
    std::cout << "\n\n";

    if (!cells.empty()) {
        std::uint64_t failed = 0, timed_out = 0, resumed = 0,
                      skipped = 0, retries = 0;
        for (const auto &c : cells) {
            failed += c.failed ? 1 : 0;
            timed_out += c.timedOut ? 1 : 0;
            resumed += c.resumed ? 1 : 0;
            skipped += c.skipped ? 1 : 0;
            retries += c.attempts > 1 ? c.attempts - 1 : 0;
        }
        std::cout << cells.size() << " cell(s): " << failed
                  << " failed (" << timed_out << " timed out), "
                  << retries << " retr" << (retries == 1 ? "y" : "ies")
                  << ", " << resumed << " resumed, " << skipped
                  << " skipped\n\n";

        std::sort(cells.begin(), cells.end(),
                  [](const SpanRow &a, const SpanRow &b) {
                      return a.durUs > b.durUs;
                  });
        const std::size_t top = std::min<std::size_t>(cells.size(), 10);
        std::cout << "Slowest " << top << " cell(s):\n";
        TextTable ct({"Cell", "Wall ms", "Attempts", "Flags"});
        for (std::size_t i = 0; i < top; ++i) {
            const SpanRow &c = cells[i];
            std::string flags;
            auto flag = [&flags](const char *f) {
                flags += flags.empty() ? f : std::string(",") + f;
            };
            if (c.failed)
                flag(c.timedOut ? "timeout" : "failed");
            if (c.resumed)
                flag("resumed");
            if (c.skipped)
                flag("skipped");
            ct.row()
                .cell(c.name)
                .cell(c.durUs / 1000.0, 1)
                .cell(std::to_string(c.attempts))
                .cell(flags.empty() ? "-" : flags);
        }
        ct.print(std::cout);
        std::cout << "\n";
    }

    if (!phases.empty()) {
        double total_us = 0;
        for (const auto &[name, acc] : phases)
            total_us += acc.first;
        std::cout << "Per-phase breakdown (non-cell spans):\n";
        TextTable pt({"Span", "Count", "Total s", "Share"});
        for (const auto &[name, acc] : phases)
            pt.row()
                .cell(name)
                .cell(std::to_string(acc.second))
                .cell(acc.first / 1e6, 3)
                .cell(formatPercent(
                    total_us > 0 ? acc.first / total_us : 0, 1));
        pt.print(std::cout);
    }
    return 0;
}

/**
 * `--manifest-info <file>`: print the per-cell state of a sweep
 * manifest — the operator's view of an in-flight (or crashed)
 * multi-process sweep.  Shows each cell's status, the live lease
 * (worker pid, generation, heartbeat age) for Leased cells, and the
 * structured crash detail (signal, attempts) for Failed ones.
 *
 * Exit status: 0 when every cell completed, 1 when any cell failed
 * or was skipped, 3 while the sweep is still in flight (pending or
 * leased cells remain), 2 on a malformed file.
 */
int
summarizeManifest(const std::string &path)
{
    bool ok = false;
    const std::string text = util::readFile(path, &ok);
    if (!ok) {
        std::cerr << "error: cannot read " << path << "\n";
        return 2;
    }
    std::string parse_err;
    const auto doc = obs::JsonValue::parse(text, &parse_err);
    if (!doc) {
        std::cerr << "error: " << path << ": " << parse_err << "\n";
        return 2;
    }
    const obs::JsonValue *cells = doc->find("cells");
    if (!cells || !cells->isArray()) {
        std::cerr << "error: " << path
                  << " is not a sweep manifest (no cells array)\n";
        return 2;
    }
    const auto file = obs::fromJson<sweep::ManifestFile>(*doc);

    std::cout << "Sweep manifest " << path << " (schema v" << file.schema
              << ", kind " << file.kind << "): " << file.cells.size()
              << " cell(s)\n\n";

    using sweep::CellStatus;
    const std::uint64_t now_ms = util::monotonicMs();
    std::size_t completed = 0, failed = 0, leased = 0, pending = 0,
                skipped = 0, crashed = 0;
    TextTable t({"Cell", "Status", "Att", "Pid", "Gen", "Hb age",
                 "Detail"});
    for (const sweep::CellRecord &c : file.cells) {
        std::string pid = "-", hb_age = "-";
        if (c.status == CellStatus::Leased) {
            ++leased;
            pid = std::to_string(c.lease.pid);
            const std::uint64_t hb = c.lease.heartbeatMs;
            hb_age = hb && hb <= now_ms
                         ? formatDouble((now_ms - hb) / 1000.0, 1) +
                               " s"
                         : "?";
        } else if (c.workerPid) {
            pid = std::to_string(c.workerPid);
        }
        std::string detail;
        if (c.status == CellStatus::Completed) {
            ++completed;
        } else if (c.status == CellStatus::Failed) {
            ++failed;
            if (c.crashed) {
                ++crashed;
                detail = "crashed, signal " + std::to_string(c.signal) +
                         ": ";
            }
            detail += c.error;
        } else if (c.status == CellStatus::Skipped) {
            ++skipped;
        } else if (c.status == CellStatus::Pending) {
            ++pending;
        }
        t.row()
            .cell(c.run + "/" + c.policy)
            .cell(obs::toJson(c.status).asString())
            .cell(c.attempts ? std::to_string(c.attempts) : "-")
            .cell(pid)
            .cell(c.generation ? std::to_string(c.generation) : "-")
            .cell(hb_age)
            .cell(detail.empty() ? "-" : detail);
    }
    t.print(std::cout);
    std::cout << "\n" << completed << " completed, " << failed
              << " failed (" << crashed << " crashed), " << leased
              << " leased, " << pending << " pending, " << skipped
              << " skipped\n";
    if (pending > 0 || leased > 0)
        return 3;
    return failed > 0 || skipped > 0 ? 1 : 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    sweep::maybeWorkerMain(argc, argv);
    std::string benchmark = "456.hmmer";
    std::string policy_name = "Sampler";
    RunConfig cfg = RunConfig::singleCore();
    cfg.obs.collect = true;
    bool dump_stats = false;
    std::string spans_file;
    std::string spans_out;
    std::string manifest_info;
    std::string trace_file;
    std::string record_out;
    sweep::SweepOptions opts = sweep::SweepOptions::fromEnvironment();

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "error: " << arg
                          << " requires an argument\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--benchmark" || arg == "-b") {
            benchmark = next();
        } else if (arg == "--policy" || arg == "-p") {
            policy_name = next();
        } else if (arg == "--jobs" || arg == "-j") {
            opts.jobs = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
            if (opts.jobs == 0) {
                std::cerr << "error: --jobs needs a positive count\n";
                return 2;
            }
        } else if (arg == "--workers" || arg == "-w") {
            opts.workers = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--retries") {
            opts.retries = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--manifest") {
            opts.manifestPath = next();
        } else if (arg == "--manifest-info") {
            manifest_info = next();
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg == "--fault-rate") {
            cfg.policy.dbrb.fault.faultsPerMillion =
                std::strtoull(next(), nullptr, 10);
            if (cfg.policy.dbrb.fault.faultsPerMillion > 1'000'000) {
                std::cerr << "error: --fault-rate must be in "
                             "[0, 1000000]\n";
                return 2;
            }
        } else if (arg == "--fault-seed") {
            cfg.policy.dbrb.fault.seed =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--warmup") {
            cfg.warmupInstructions =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--instructions" || arg == "-n") {
            cfg.measureInstructions =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--interval") {
            cfg.obs.intervalInstructions =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--json") {
            cfg.obs.statsJsonPath = next();
        } else if (arg == "--csv") {
            cfg.obs.timelineCsvPath = next();
        } else if (arg == "--trace") {
            trace_file = next();
        } else if (arg == "--record") {
            record_out = next();
        } else if (arg == "--intervals") {
            cfg.trace.intervalInstructions =
                std::strtoull(next(), nullptr, 10);
        } else if (arg == "--select") {
            cfg.trace.selectClusters = static_cast<unsigned>(
                std::strtoul(next(), nullptr, 10));
        } else if (arg == "--events") {
            cfg.obs.traceJsonlPath = next();
        } else if (arg == "--spans") {
            spans_file = next();
        } else if (arg == "--spans-out") {
            spans_out = next();
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--list-benchmarks") {
            for (const auto &b : allSpecBenchmarks())
                std::cout << b << "\n";
            return 0;
        } else if (arg == "--list-policies") {
            for (const auto kind : allPolicyKinds())
                std::cout << policyName(kind) << "\n";
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::cerr << "error: unknown option " << arg << "\n";
            return usage(argv[0]);
        }
    }

    if (!manifest_info.empty())
        return summarizeManifest(manifest_info);
    if (!spans_file.empty())
        return summarizeSpans(spans_file);
    if (!spans_out.empty())
        obs::SpanTracer::global().setEnabled(true);

    if (!record_out.empty()) {
        if (!trace_file.empty()) {
            std::cerr << "error: --record and --trace are mutually "
                         "exclusive\n";
            return 2;
        }
        const auto resolved = resolveBenchmark(benchmark);
        if (!resolved) {
            std::cerr << "error: unknown benchmark '" << benchmark
                      << "' (--record takes a single benchmark)\n";
            return 2;
        }
        // Slack beyond warmup+measure: the system's batched decode
        // reads a little past the measured budget, and replay must
        // never wrap mid-run for the round trip to be bit-identical.
        const std::uint64_t budget = cfg.warmupInstructions +
            cfg.measureInstructions +
            cfg.measureInstructions / 100 + 4096;
        SyntheticWorkload gen(specProfile(*resolved));
        const std::uint64_t written =
            recordChampSimTrace(gen, budget, record_out);
        std::cout << "[recorded " << written << " instructions of "
                  << *resolved << " to " << record_out << "]\n";
        return 0;
    }

    if (cfg.trace.selectionEnabled() && trace_file.empty()) {
        std::cerr << "error: --intervals/--select need --trace\n";
        return 2;
    }
    if ((cfg.trace.intervalInstructions > 0) !=
        (cfg.trace.selectClusters > 0)) {
        std::cerr << "error: --intervals and --select go together\n";
        return 2;
    }

    std::vector<std::string> benchmarks;
    if (!trace_file.empty()) {
        // detectTraceKind is also the early validity check: corrupt
        // or missing traces exit nonzero with one line on stderr.
        cfg.trace.kind = detectTraceKind(trace_file);
        cfg.trace.path = trace_file;
        const auto slash = trace_file.find_last_of('/');
        benchmarks.push_back(slash == std::string::npos
                                 ? trace_file
                                 : trace_file.substr(slash + 1));
    } else
        for (const auto &name : splitList(benchmark)) {
            const auto resolved = resolveBenchmark(name);
            if (!resolved) {
                std::cerr << "error: unknown benchmark '" << name
                          << "'; valid benchmarks are:\n";
                for (const auto &b : allSpecBenchmarks())
                    std::cerr << "  " << b << "\n";
                return 2;
            }
            benchmarks.push_back(*resolved);
        }
    std::vector<PolicyKind> kinds;
    for (const auto &name : splitList(policy_name)) {
        const auto kind = parsePolicyKind(name);
        if (!kind) {
            std::cerr << "error: unknown policy '" << name
                      << "'; valid policies are:\n";
            for (const auto k : allPolicyKinds())
                std::cerr << "  " << policyName(k) << "\n";
            return 2;
        }
        kinds.push_back(*kind);
    }
    if (benchmarks.empty() || kinds.empty()) {
        std::cerr << "error: empty benchmark or policy list\n";
        return 2;
    }

    if (opts.resume && opts.manifestPath.empty()) {
        std::cerr << "error: --resume requires --manifest\n";
        return 2;
    }
    if (opts.workers > 0 && opts.manifestPath.empty()) {
        std::cerr << "error: --workers requires --manifest (the "
                     "manifest is the coordination substrate)\n";
        return 2;
    }

    const unsigned jobs =
        opts.jobs ? opts.jobs : sweep::defaultJobs();
    const std::size_t cells = benchmarks.size() * kinds.size();
    if (cells == 1)
        std::cout << "Running " << benchmarks[0] << " under "
                  << policyName(kinds[0]) << " ("
                  << cfg.warmupInstructions << " warmup + "
                  << cfg.measureInstructions
                  << " measured instructions)...\n\n";
    else if (opts.workers > 0)
        std::cout << "Sweeping " << benchmarks.size()
                  << " benchmark(s) x " << kinds.size()
                  << " policy(ies) across " << opts.workers
                  << " crash-isolated worker process(es) ("
                  << cfg.warmupInstructions << " warmup + "
                  << cfg.measureInstructions
                  << " measured instructions per run)...\n\n";
    else
        std::cout << "Sweeping " << benchmarks.size()
                  << " benchmark(s) x " << kinds.size()
                  << " policy(ies) across " << jobs << " worker(s) ("
                  << cfg.warmupInstructions << " warmup + "
                  << cfg.measureInstructions
                  << " measured instructions per run)...\n\n";

    sweep::installShutdownHandler();
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, kinds, cfg, opts);

    for (const auto &err : grid.errors) {
        std::cerr << "FAILED cell " << err.run << "/" << err.policy
                  << " after " << err.attempts << " attempt(s)"
                  << (err.timedOut ? " [timeout]" : "");
        if (err.crashed)
            std::cerr << " [crashed, signal " << err.signal << "]";
        std::cerr << ": " << err.message << "\n";
    }
    if (grid.skipped > 0)
        std::cerr << "interrupted: " << grid.skipped
                  << " cell(s) skipped\n";
    if (grid.resumed > 0)
        std::cerr << "[resumed " << grid.resumed
                  << " cell(s) from " << opts.manifestPath << "]\n";

    // Span export (SDBP_SPANS=1 or --spans-out) goes to stderr-land:
    // the file plus a notice, never a stdout line.
    const obs::SpanTracer &tracer = obs::SpanTracer::global();
    if (tracer.enabled() && tracer.recorded() > 0) {
        const std::string path =
            spans_out.empty() ? "sdbp_inspect.spans.json" : spans_out;
        if (tracer.writeChromeTrace(path))
            std::cerr << "[wrote " << path << " (" << tracer.size()
                      << " spans, " << tracer.dropped()
                      << " dropped)]\n";
        else
            std::cerr << "cannot write " << path << "\n";
    }

    if (cells == 1) {
        if (!grid.ok())
            return grid.skipped > 0 ? 130 : 1;
        const RunResult &res = grid.at(0, 0);
        if (res.intervalSelected) {
            // Interval selection runs without per-rep artifacts;
            // print the weighted full-trace estimates instead.
            TextTable t({"Metric", "Value"});
            t.row().cell("trace").cell(res.benchmark);
            t.row().cell("policy").cell(res.policy);
            t.row().cell("trace instructions").cell(
                std::to_string(res.traceInstructions));
            t.row().cell("intervals (simulated/total)").cell(
                std::to_string(res.intervalsSimulated) + "/" +
                std::to_string(res.intervalsTotal));
            t.row().cell("instructions simulated").cell(
                std::to_string(res.simulatedInstructions));
            t.row().cell("instruction reduction").cell(
                formatDouble(res.simulatedInstructions > 0
                                 ? static_cast<double>(
                                       res.traceInstructions) /
                                     static_cast<double>(
                                         res.simulatedInstructions)
                                 : 0, 1) + "x");
            t.row().cell("estimated IPC").cell(
                formatDouble(res.ipc, 3));
            t.row().cell("estimated LLC MPKI").cell(
                formatDouble(res.mpki, 3));
            t.print(std::cout);
            return 0;
        }
        if (!res.artifacts && grid.resumed > 0) {
            // Manifest checkpoints carry metrics, not artifacts.
            std::cout << res.benchmark << " under " << res.policy
                      << ": IPC " << formatDouble(res.ipc, 3)
                      << ", MPKI " << formatDouble(res.mpki, 3)
                      << " (restored from manifest; re-run without "
                         "--resume for full artifacts)\n";
            return 0;
        }
        if (!res.artifacts) {
            std::cerr << "error: run produced no artifacts\n";
            return 1;
        }
        printSummary(*res.artifacts);

        if (dump_stats) {
            std::cout << "\nFinal stats:\n";
            for (const auto &s :
                 res.artifacts->finalSnapshot.samples)
                std::cout << "  " << s.name << " = "
                          << (s.kind == obs::StatKind::Counter
                                  ? std::to_string(s.counter)
                                  : formatDouble(s.value, 6))
                          << "\n";
        }

        if (!cfg.obs.statsJsonPath.empty())
            std::cout << "\n[wrote " << cfg.obs.statsJsonPath
                      << "]\n";
        if (!cfg.obs.timelineCsvPath.empty())
            std::cout << "[wrote " << cfg.obs.timelineCsvPath
                      << "]\n";
        if (!cfg.obs.traceJsonlPath.empty())
            std::cout << "[wrote " << cfg.obs.traceJsonlPath
                      << "]\n";
        return 0;
    }

    // Multi-cell sweep: one summary row per cell, in grid order.
    TextTable t({"Benchmark", "Policy", "IPC", "MPKI", "Misses",
                 "Bypasses", "Wall s"});
    for (std::size_t b = 0; b < grid.benchmarks.size(); ++b)
        for (std::size_t p = 0; p < grid.policies.size(); ++p) {
            const RunResult &r = grid.at(b, p);
            t.row()
                .cell(grid.benchmarks[b])
                .cell(r.policy)
                .cell(r.ipc, 3)
                .cell(r.mpki, 3)
                .cell(std::to_string(r.llcMisses))
                .cell(std::to_string(r.llcBypasses))
                .cell(r.wallSeconds, 2);
        }
    t.print(std::cout);
    std::cout << "\nSweep of " << cells << " runs took "
              << formatDouble(grid.wallSeconds, 2) << " s with "
              << grid.jobs << " worker(s); serial-equivalent cost "
              << formatDouble(grid.runSecondsTotal(), 2) << " s.\n";
    if (!cfg.obs.statsJsonPath.empty() ||
        !cfg.obs.timelineCsvPath.empty() ||
        !cfg.obs.traceJsonlPath.empty())
        std::cout << "Artifacts were written per cell "
                     "(base path + .<benchmark>.<policy>).\n";
    if (grid.skipped > 0)
        return 130;
    return grid.errors.empty() ? 0 : 1;
}
