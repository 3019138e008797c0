/**
 * @file
 * What a sweep checkpoint stores about a run: one JSON field list
 * (obs/json_fields.hh) per struct, for the RunConfig a resume must
 * match (the manifest fingerprint) and the scalar results a manifest
 * restores on resume.
 *
 * Only scalar payloads are listed.  RunResult's llcTrace,
 * frameEfficiency, artifacts and hostPerf stay in memory; the first two
 * are why sweeps that record them cannot resume (sim/sweep.hh).
 *
 * Each list is in the order its keys appear in the JSON; optional
 * blocks (a non-default TraceSpec, the SDBP override, DBRB stats,
 * interval-selection summaries) are written only when they carry
 * information, so plain synthetic sweeps keep their established shape.
 */

#ifndef SDBP_SIM_CHECKPOINT_HH
#define SDBP_SIM_CHECKPOINT_HH

#include "obs/json_fields.hh"
#include "sim/runner.hh"

namespace sdbp::obs
{

template <>
struct JsonFields<CacheConfig>
{
    template <typename S, typename V>
    static void
    visit(S &c, V &v)
    {
        v("name", c.name);
        v("num_sets", c.numSets);
        v("assoc", c.assoc);
        v("latency", c.latency);
        v("track_efficiency", c.trackEfficiency);
    }
};

template <>
struct JsonFields<PrefetcherConfig>
{
    template <typename S, typename V>
    static void
    visit(S &p, V &v)
    {
        v("degree", p.degree);
        v("dead_block_directed", p.deadBlockDirected);
    }
};

template <>
struct JsonFields<HierarchyConfig>
{
    template <typename S, typename V>
    static void
    visit(S &h, V &v)
    {
        v("l1", h.l1);
        v("l2", h.l2);
        v("llc", h.llc);
        v("mem_latency", h.memLatency);
        v("mem_service_interval", h.memServiceInterval);
        v("num_cores", h.numCores);
        v("prefetch", h.prefetch);
    }
};

template <>
struct JsonFields<CoreConfig>
{
    template <typename S, typename V>
    static void
    visit(S &c, V &v)
    {
        v("width", c.width);
        v("rob_size", c.robSize);
        v("pipeline_depth", c.pipelineDepth);
    }
};

template <>
struct JsonFields<fault::FaultInjectorConfig>
{
    template <typename S, typename V>
    static void
    visit(S &f, V &v)
    {
        v("faults_per_million", f.faultsPerMillion);
        v("seed", f.seed);
    }
};

template <>
struct JsonFields<DeadBlockPolicyConfig>
{
    template <typename S, typename V>
    static void
    visit(S &d, V &v)
    {
        v("enable_bypass", d.enableBypass);
        v("enable_dead_replacement", d.enableDeadReplacement);
        v("bypass_reuse_window", d.bypassReuseWindow);
        v("fault", d.fault);
    }
};

template <>
struct JsonFields<SamplerConfig>
{
    template <typename S, typename V>
    static void
    visit(S &s, V &v)
    {
        v("num_sets", s.numSets);
        v("assoc", s.assoc);
        v("tag_bits", s.tagBits);
        v("pc_bits", s.pcBits);
        v("learn_from_own_evictions", s.learnFromOwnEvictions);
    }
};

template <>
struct JsonFields<SkewedTableConfig>
{
    template <typename S, typename V>
    static void
    visit(S &t, V &v)
    {
        v("num_tables", t.numTables);
        v("index_bits", t.indexBits);
        v("counter_bits", t.counterBits);
        v("threshold", t.threshold);
    }
};

template <>
struct JsonFields<SdbpConfig>
{
    template <typename S, typename V>
    static void
    visit(S &s, V &v)
    {
        v("signature_bits", s.signatureBits);
        v("llc_sets", s.llcSets);
        v("use_sampler", s.useSampler);
        v("sampler", s.sampler);
        v("table", s.table);
    }
};

template <>
struct JsonFields<PolicyOptions>
{
    template <typename S, typename V>
    static void
    visit(S &p, V &v)
    {
        v("num_threads", p.numThreads);
        v("seed", p.seed);
        v("dbrb", p.dbrb);
        v("sdbp", p.sdbp);
    }
};

template <>
struct JsonEnum<TraceKind>
{
    static std::string name(TraceKind k) { return traceKindName(k); }
    static std::optional<TraceKind>
    parse(const std::string &s)
    {
        return parseTraceKind(s);
    }
};

template <>
struct JsonFields<TraceSpec>
{
    template <typename S, typename V>
    static void
    visit(S &t, V &v)
    {
        v("kind", t.kind);
        v("path", t.path);
        v("interval_instructions", t.intervalInstructions);
        v("select_clusters", t.selectClusters);
    }
};

template <>
struct JsonFields<ObsOptions>
{
    template <typename S, typename V>
    static void
    visit(S &o, V &v)
    {
        v("collect", o.collect);
        v("interval_instructions", o.intervalInstructions);
        v("stats_json_path", o.statsJsonPath);
        v("timeline_csv_path", o.timelineCsvPath);
        v("trace_jsonl_path", o.traceJsonlPath);
    }
};

template <>
struct JsonFields<RunConfig>
{
    template <typename S, typename V>
    static void
    visit(S &c, V &v)
    {
        v("warmup_instructions", c.warmupInstructions);
        v("measure_instructions", c.measureInstructions);
        v("record_llc_trace", c.recordLlcTrace);
        v("track_efficiency", c.trackEfficiency);
        v("hierarchy", c.hierarchy);
        v("core", c.core);
        v("policy", c.policy);
        v.when(c.trace != TraceSpec{}, "trace", c.trace);
        v("obs", c.obs);
    }
};

template <>
struct JsonFields<DbrbStats>
{
    template <typename S, typename V>
    static void
    visit(S &d, V &v)
    {
        v("predictions", d.predictions);
        v("positives", d.positives);
        v("false_positive_hits", d.falsePositiveHits);
        v("bypass_reuses", d.bypassReuses);
        v("dead_evictions", d.deadEvictions);
        v("bypasses", d.bypasses);
    }
};

template <>
struct JsonFields<RunResult>
{
    template <typename S, typename V>
    static void
    visit(S &r, V &v)
    {
        v("benchmark", r.benchmark);
        v("policy", r.policy);
        v("instructions", r.instructions);
        v("cycles", r.cycles);
        v("ipc", r.ipc);
        v("mpki", r.mpki);
        v("llc_accesses", r.llcAccesses);
        v("llc_misses", r.llcMisses);
        v("llc_bypasses", r.llcBypasses);
        v("llc_efficiency", r.llcEfficiency);
        v("has_dbrb", r.hasDbrb);
        v.when(r.hasDbrb, "dbrb", r.dbrb);
        v("faults_injected", r.faultsInjected);
        v("wall_seconds", r.wallSeconds);
        v.group("interval", r.intervalSelected, [&r](auto &g) {
            g("trace_instructions", r.traceInstructions);
            g("intervals_total", r.intervalsTotal);
            g("intervals_simulated", r.intervalsSimulated);
            g("simulated_instructions", r.simulatedInstructions);
        });
    }
};

template <>
struct JsonFields<MulticoreRunResult>
{
    template <typename S, typename V>
    static void
    visit(S &r, V &v)
    {
        v("mix", r.mix);
        v("policy", r.policy);
        v("benchmarks", r.benchmarks);
        v("ipc", r.ipc);
        v("llc_misses", r.llcMisses);
        v("total_instructions", r.totalInstructions);
        v("mpki", r.mpki);
        v("faults_injected", r.faultsInjected);
        v("wall_seconds", r.wallSeconds);
    }
};

} // namespace sdbp::obs

#endif // SDBP_SIM_CHECKPOINT_HH
