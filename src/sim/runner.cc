#include "sim/runner.hh"

#include "sim/engine.hh"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include <cmath>

#include "obs/span_tracer.hh"
#include "obs/trace_sink.hh"
#include "trace/interval_select.hh"
#include "trace/trace_file.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace sdbp
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

InstCount
envInstCount(const char *name, InstCount fallback)
{
    return env::u64(name, fallback, 1);
}

/**
 * Everything the observability layer attaches to one System for one
 * run.  Allocated only when cfg.obs.collect is set; an uncollected
 * run carries no registry, heartbeat or trace sink at all.
 */
struct ObsHarness
{
    obs::StatRegistry registry;
    obs::IntervalTimeline timeline{&registry};
    /** Set only when the run streams its events to a file. */
    std::unique_ptr<obs::TraceSink> trace;
};

/** Attach registry/heartbeat (and the event stream, when asked) to
 *  the engine. */
std::unique_ptr<ObsHarness>
attachObs(Engine &eng, const ObsOptions &opt)
{
    if (!opt.collect)
        return nullptr;
    auto h = std::make_unique<ObsHarness>();
    SystemBase &sys = *eng.system;
    sys.registerStats(h->registry);
    if (eng.dbrb)
        eng.dbrb->registerStats(h->registry, "dbrb");
    sys.setHeartbeat(opt.intervalInstructions,
                     [harness = h.get()](std::uint64_t tick) {
                         harness->timeline.sample(tick);
                     });
    if (!opt.traceJsonlPath.empty()) {
        h->trace = std::make_unique<obs::TraceSink>(opt.traceJsonlPath);
        if (!h->trace->isOpen()) {
            warn("cannot open trace JSONL file " + opt.traceJsonlPath);
            h->trace.reset();
        } else {
            if (eng.dbrb)
                eng.dbrb->setTraceSink(h->trace.get());
            sys.hierarchy().setTraceSink(h->trace.get());
        }
    }
    return h;
}

/**
 * Mirrors the system's phase record as "phase" spans attributed to
 * the cell once it goes out of scope: after run() returns, or while a
 * SimulationTimeout unwinds, so a timed-out cell keeps its partial
 * phase.  Emits nothing while the global tracer is off.
 */
class PhaseSpans
{
  public:
    PhaseSpans(const SystemBase &sys, std::string cell)
        : sys_(sys), cell_(std::move(cell))
    {
    }
    PhaseSpans(const PhaseSpans &) = delete;
    PhaseSpans &operator=(const PhaseSpans &) = delete;
    ~PhaseSpans()
    {
        for (const obs::PhaseRecord &p : sys_.phases())
            obs::SpanTracer::global().emit("phase", p.name, p.start,
                                           p.end, cell_);
    }

  private:
    const SystemBase &sys_;
    std::string cell_;
};

/**
 * Assemble, export (per the SDBP_STATS_JSON-style options) and
 * return the run artifact.  Takes the final snapshot now, while the
 * System's registered counters are still alive.
 */
std::shared_ptr<const obs::RunArtifacts>
collectObs(ObsHarness &h, const Engine &eng, const ObsOptions &opt,
           const std::string &benchmark, const std::string &policy,
           const RunConfig &cfg, double wallSeconds)
{
    auto art = std::make_shared<obs::RunArtifacts>();
    art->benchmark = benchmark;
    art->policy = policy;
    art->wallSeconds = wallSeconds;
    art->profile = eng.system->phases();
    art->warmupInstructions = cfg.warmupInstructions;
    art->measureInstructions = cfg.measureInstructions;
    art->intervalInstructions = opt.intervalInstructions;
    art->finalSnapshot = h.registry.snapshot(eng.system->tick());
    art->intervals = h.timeline.snapshots();
    art->series = obs::standardSeries(h.timeline);
    if (eng.dbrb) {
        art->hasConfusion = true;
        art->confusion = eng.dbrb->confusion();
    }

    if (!opt.statsJsonPath.empty() &&
        !art->writeJson(opt.statsJsonPath))
        warn("cannot write stats JSON to " + opt.statsJsonPath);
    if (!opt.timelineCsvPath.empty() &&
        !art->writeTimelineCsv(opt.timelineCsvPath))
        warn("cannot write timeline CSV to " + opt.timelineCsvPath);
    return art;
}

/**
 * Apply the SDBP_CELL_TIMEOUT wall-clock budget (seconds; 0 or unset
 * disables).  The deadline starts when the System is armed, so each
 * retry of a failed sweep cell gets a fresh budget.
 */
void
applyCellTimeout(SystemBase &sys)
{
    const std::uint64_t secs = env::u64("SDBP_CELL_TIMEOUT", 0);
    if (secs > 0)
        sys.setDeadline(std::chrono::steady_clock::now() +
                        std::chrono::seconds(secs));
}

/** A finished engine, kept alive for the caller's own read-out
 *  (with the harness its trace sinks point into). */
struct EngineRun
{
    Engine eng;
    std::unique_ptr<ObsHarness> harness;
    std::vector<ThreadRunResult> threads;
};

/**
 * The engine lifecycle both single-core and mix runs share: build the
 * engine for cfg.hierarchy.numCores cores, arm the cell timeout, host
 * counters and observability, run @p gens, and fill in what every
 * result carries (policy, host totals, artifacts, fault count, wall
 * seconds since @p wallStart).  @p workload names the benchmark or
 * mix; @p llcTrace, when set, records the LLC reference stream.
 */
template <class Result>
EngineRun
runEngine(PolicyKind kind, const RunConfig &cfg,
          const std::vector<AccessGenerator *> &gens,
          const std::string &workload, std::vector<LlcRef> *llcTrace,
          std::chrono::steady_clock::time_point wallStart, Result &res)
{
    EngineRun out;
    out.eng = makeEngine(kind, cfg.hierarchy, cfg.core, cfg.policy);
    SystemBase &sys = *out.eng.system;
    if (llcTrace)
        sys.hierarchy().recordLlcTrace(llcTrace);
    applyCellTimeout(sys);
    sys.enableHostCounters();
    out.harness = attachObs(out.eng, cfg.obs);

    res.policy = policyName(kind);
    {
        const PhaseSpans spans(sys, workload + "/" + res.policy);
        out.threads = sys.run(gens, cfg.warmupInstructions,
                              cfg.measureInstructions);
    }
    res.hostPerf = obs::hostTotal(sys.phases());
    if (out.harness) {
        res.artifacts = collectObs(*out.harness, out.eng, cfg.obs,
                                   workload, res.policy, cfg,
                                   secondsSince(wallStart));
    }
    if (out.eng.dbrb) {
        if (out.eng.faults)
            res.faultsInjected = out.eng.faults->injected();
        // Fault-injected or not, the predictor must end the run with
        // its invariants intact: corruption is confined to hints.
        out.eng.predictor->auditInvariants();
    }
    res.wallSeconds = secondsSince(wallStart);
    return out;
}

} // anonymous namespace

RunConfig
RunConfig::singleCore()
{
    RunConfig cfg;
    cfg.measureInstructions =
        envInstCount("SDBP_INSTRUCTIONS", cfg.measureInstructions);
    cfg.warmupInstructions =
        envInstCount("SDBP_WARMUP", cfg.warmupInstructions);
    if (const std::string path = env::outputPath("SDBP_STATS_JSON");
        !path.empty()) {
        cfg.obs.collect = true;
        cfg.obs.statsJsonPath = path;
    }
    cfg.obs.intervalInstructions =
        envInstCount("SDBP_INTERVAL", cfg.obs.intervalInstructions);
    cfg.policy.dbrb.fault.faultsPerMillion =
        env::u64("SDBP_FAULT_RATE",
                 cfg.policy.dbrb.fault.faultsPerMillion, 0, 1'000'000);
    cfg.policy.dbrb.fault.seed =
        env::u64("SDBP_FAULT_SEED", cfg.policy.dbrb.fault.seed);
    return cfg;
}

RunConfig
RunConfig::quadCore()
{
    RunConfig cfg = singleCore();
    cfg.hierarchy.numCores = 4;
    cfg.hierarchy.llc.numSets = 8192; // 8 MB shared LLC
    cfg.policy.numThreads = 4;
    return cfg;
}

namespace
{

/** The single-core run proper, over an already-built generator. */
RunResult
runSingleCoreWith(AccessGenerator &workload,
                  const std::string &benchmark, PolicyKind kind,
                  const RunConfig &cfg_in)
{
    const auto wall_start = std::chrono::steady_clock::now();
    RunConfig cfg = cfg_in;
    cfg.hierarchy.numCores = 1;
    cfg.hierarchy.llc.trackEfficiency = cfg.trackEfficiency;
    cfg.policy.numThreads = 1;

    RunResult res;
    res.benchmark = benchmark;
    const EngineRun run =
        runEngine(kind, cfg, {&workload}, benchmark,
                  cfg.recordLlcTrace ? &res.llcTrace : nullptr,
                  wall_start, res);

    SystemBase &sys = *run.eng.system;
    const CacheBase &llc = sys.hierarchy().llc();
    res.instructions = run.threads[0].instructions;
    res.cycles = run.threads[0].cycles;
    res.ipc = run.threads[0].ipc;
    res.llcAccesses = llc.stats().demandAccesses;
    res.llcMisses = llc.stats().demandMisses;
    res.llcBypasses = llc.stats().bypasses;
    res.llcTraceMeasureStart = sys.hierarchy().llcTraceMark();
    res.mpki = mpki(res.llcMisses, res.instructions);

    sys.hierarchy().llc().finalizeEfficiency(sys.tick());
    res.llcEfficiency = llc.stats().efficiency();
    if (cfg.trackEfficiency) {
        const auto sets = llc.config().numSets;
        const auto assoc = llc.config().assoc;
        res.frameEfficiency.reserve(
            static_cast<std::size_t>(sets) * assoc);
        for (std::uint32_t s = 0; s < sets; ++s)
            for (std::uint32_t w = 0; w < assoc; ++w)
                res.frameEfficiency.push_back(
                    llc.frameEfficiency(s, w));
    }

    if (run.eng.dbrb) {
        res.hasDbrb = true;
        res.dbrb = run.eng.dbrb->dbrbStats();
    }
    return res;
}

/**
 * Interval-selected run (DESIGN.md §17): fingerprint + cluster the
 * trace, then simulate one representative interval per cluster — each
 * on a fresh engine, warmed by its predecessor interval — and blend
 * the per-representative metrics by cluster instruction share into
 * full-trace estimates.
 */
RunResult
runIntervalSelected(const std::string &benchmark, PolicyKind kind,
                    const RunConfig &cfg)
{
    const auto wall_start = std::chrono::steady_clock::now();
    if (cfg.trace.synthetic())
        fatal("interval selection needs a trace file "
              "(record one with sdbp_inspect --record)");

    auto reader = openTraceReader(cfg.trace.path);
    IntervalSelectConfig isc;
    isc.intervalInstructions = cfg.trace.intervalInstructions;
    isc.clusters = cfg.trace.selectClusters;
    const IntervalSelection sel = selectIntervals(*reader, isc);

    // Materialize each representative and its predecessor (the
    // cache warm-up) in one sequential pass.
    std::vector<std::size_t> wanted;
    for (const auto &rep : sel.reps) {
        if (rep.interval > 0)
            wanted.push_back(rep.interval - 1);
        wanted.push_back(rep.interval);
    }
    auto collected = collectIntervals(*reader, sel, wanted);

    RunResult res;
    res.benchmark = benchmark;
    res.policy = policyName(kind);
    res.intervalSelected = true;
    res.traceInstructions = sel.totalInstructions;
    res.intervalsTotal = sel.intervals.size();
    res.intervalsSimulated = sel.reps.size();

    // Instruction-share weighting: CPI (not IPC) averages linearly
    // over instructions, so IPC blends through its reciprocal.
    double cpi_w = 0, mpki_w = 0, apki_w = 0, bpki_w = 0;
    std::size_t slot = 0;
    for (const auto &rep : sel.reps) {
        std::vector<Access> records;
        InstCount warm_instr = 0;
        if (rep.interval > 0) {
            records = std::move(collected[slot++]);
            warm_instr = sel.intervals[rep.interval - 1].instructions;
        }
        const auto &measure = collected[slot++];
        records.insert(records.end(), measure.begin(), measure.end());

        RunConfig sub = cfg;
        sub.trace = TraceSpec{}; // the records below are the source
        sub.warmupInstructions = warm_instr;
        sub.measureInstructions =
            sel.intervals[rep.interval].instructions;
        sub.obs = ObsOptions{}; // per-rep artifacts are meaningless
        sub.recordLlcTrace = false;
        sub.trackEfficiency = false;

        TraceReplayGenerator gen(std::move(records));
        const RunResult r =
            runSingleCoreWith(gen, benchmark, kind, sub);
        res.simulatedInstructions += warm_instr + r.instructions;
        res.faultsInjected += r.faultsInjected;

        const double w = rep.weight;
        if (r.ipc > 0)
            cpi_w += w / r.ipc;
        mpki_w += w * r.mpki;
        if (r.instructions > 0) {
            const double instr =
                static_cast<double>(r.instructions);
            apki_w += w * 1000.0 *
                static_cast<double>(r.llcAccesses) / instr;
            bpki_w += w * 1000.0 *
                static_cast<double>(r.llcBypasses) / instr;
        }
    }

    const double total =
        static_cast<double>(sel.totalInstructions);
    res.instructions = sel.totalInstructions;
    res.ipc = cpi_w > 0 ? 1.0 / cpi_w : 0;
    res.mpki = mpki_w;
    res.llcMisses = static_cast<std::uint64_t>(
        std::llround(mpki_w * total / 1000.0));
    res.llcAccesses = static_cast<std::uint64_t>(
        std::llround(apki_w * total / 1000.0));
    res.llcBypasses = static_cast<std::uint64_t>(
        std::llround(bpki_w * total / 1000.0));
    res.cycles = res.ipc > 0
        ? static_cast<Cycle>(std::llround(total / res.ipc))
        : 0;
    res.wallSeconds = secondsSince(wall_start);
    return res;
}

} // anonymous namespace

RunResult
runSingleCore(const std::string &benchmark, PolicyKind kind,
              RunConfig cfg)
{
    if (cfg.trace.selectionEnabled())
        return runIntervalSelected(benchmark, kind, cfg);
    const auto gen = makeTraceSource(cfg.trace, benchmark);
    return runSingleCoreWith(*gen, benchmark, kind, cfg);
}

MulticoreRunResult
runMulticore(const MixProfile &mix, PolicyKind kind, RunConfig cfg)
{
    const auto wall_start = std::chrono::steady_clock::now();
    const auto cores = static_cast<std::uint32_t>(
        mix.benchmarks.size());
    cfg.hierarchy.numCores = cores;
    cfg.policy.numThreads = cores;

    // Interval selection is a single-core methodology; a multi-core
    // mix with a file-backed trace replays the full trace per core.
    std::vector<std::unique_ptr<AccessGenerator>> workloads;
    std::vector<AccessGenerator *> gens;
    for (std::uint32_t c = 0; c < cores; ++c) {
        workloads.push_back(
            makeTraceSource(cfg.trace, mix.benchmarks[c], c));
        gens.push_back(workloads.back().get());
    }
    MulticoreRunResult res;
    res.mix = mix.name;
    res.benchmarks = mix.benchmarks;
    const EngineRun run =
        runEngine(kind, cfg, gens, mix.name, nullptr, wall_start, res);
    for (const auto &t : run.threads) {
        res.ipc.push_back(t.ipc);
        res.totalInstructions += t.instructions;
    }
    res.llcMisses = run.eng.system->hierarchy().llc().stats().demandMisses;
    res.mpki = mpki(res.llcMisses, res.totalInstructions);
    return res;
}

double
isolatedIpc(const std::string &benchmark, RunConfig cfg)
{
    // Shared across sweep workers: the memo is the only mutable
    // process-wide state in the runner, so it is mutex-guarded.  The
    // key covers the cache geometry and instruction budget so
    // different configurations (quad-core 8 MB, future geometries)
    // never collide.
    static std::mutex memo_mutex;
    static std::map<std::string, double> memo;
    const std::string key = benchmark + "/" +
        std::to_string(cfg.hierarchy.llc.numSets) + "x" +
        std::to_string(cfg.hierarchy.llc.assoc) + "/" +
        std::to_string(cfg.warmupInstructions) + "+" +
        std::to_string(cfg.measureInstructions);
    {
        std::lock_guard<std::mutex> lock(memo_mutex);
        if (auto it = memo.find(key); it != memo.end())
            return it->second;
    }

    // Simulate outside the lock; two workers racing on the same key
    // compute the same deterministic value, and emplace keeps the
    // first.
    RunConfig solo = cfg;
    solo.hierarchy.numCores = 1;
    solo.recordLlcTrace = false;
    solo.trackEfficiency = false;
    const RunResult run = runSingleCore(benchmark, PolicyKind::Lru,
                                        solo);
    std::lock_guard<std::mutex> lock(memo_mutex);
    return memo.emplace(key, run.ipc).first->second;
}

double
weightedIpc(const MulticoreRunResult &run, const RunConfig &cfg)
{
    double sum = 0;
    for (std::size_t i = 0; i < run.benchmarks.size(); ++i)
        sum += ratio(run.ipc[i], isolatedIpc(run.benchmarks[i], cfg));
    return sum;
}

} // namespace sdbp
