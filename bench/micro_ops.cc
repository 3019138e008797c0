/**
 * @file
 * google-benchmark microbenchmarks for the hot operations: predictor
 * lookup/update, sampler access, cache access, and a full simulated
 * instruction (supports the latency discussion of Sec. IV-E: the
 * sampling predictor does far less work per LLC access than the
 * metadata read-modify-write predictors).
 *
 * Results print to the console as usual and are also written to
 * BENCH_micro_ops.json (google-benchmark's JSON format), matching the
 * BENCH_*.json artifacts of the table/figure binaries.
 */

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <memory>

#include "cache/cache.hh"
#include "cache/lru.hh"
#include "core/sdbp.hh"
#include "cpu/system.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "trace/spec_profiles.hh"
#include "util/rng.hh"
#include "util/simd.hh"

namespace
{

using namespace sdbp;

void
BM_SkewedTableLookup(benchmark::State &state)
{
    SkewedTable table;
    Rng rng(1);
    std::uint64_t sig = 0;
    for (auto _ : state) {
        sig = (sig + 0x9e37) & mask(15);
        benchmark::DoNotOptimize(table.predict(sig));
    }
}
BENCHMARK(BM_SkewedTableLookup);

void
BM_SdbpAccessUnsampledSet(benchmark::State &state)
{
    SamplingDeadBlockPredictor p(2048, 16);
    Addr addr = 0;
    for (auto _ : state) {
        addr += 64;
        benchmark::DoNotOptimize(
            p.onAccess(1, -1, Access::atBlock(addr,
                                            0x400000 + (addr & 0xff))));
    }
}
BENCHMARK(BM_SdbpAccessUnsampledSet);

void
BM_SdbpAccessSampledSet(benchmark::State &state)
{
    SamplingDeadBlockPredictor p(2048, 16);
    Addr addr = 0;
    for (auto _ : state) {
        addr += 2048; // stay in sampled set 0
        benchmark::DoNotOptimize(
            p.onAccess(0, -1, Access::atBlock(addr,
                                            0x400000 + (addr & 0xff))));
    }
}
BENCHMARK(BM_SdbpAccessSampledSet);

void
BM_RefTraceAccess(benchmark::State &state)
{
    RefTracePredictor p(2048, 16);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 1) & 0xfff;
        const auto way = static_cast<std::uint32_t>(addr & 15);
        p.onFill(0, way, Access::atBlock(addr, 0x400000));
        benchmark::DoNotOptimize(p.onAccess(
            0, static_cast<int>(way), Access::atBlock(addr, 0x400004)));
        p.onEvict(0, way, addr);
    }
}
BENCHMARK(BM_RefTraceAccess);

void
BM_CountingAccess(benchmark::State &state)
{
    CountingPredictor p(2048, 16);
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 1) & 0xfff;
        const auto way = static_cast<std::uint32_t>(addr & 15);
        p.onFill(0, way, Access::atBlock(addr, 0x400000));
        benchmark::DoNotOptimize(p.onAccess(
            0, static_cast<int>(way), Access::atBlock(addr, 0x400000)));
        p.onEvict(0, way, addr);
    }
}
BENCHMARK(BM_CountingAccess);

void
BM_LruCacheAccess(benchmark::State &state)
{
    CacheConfig cfg;
    cfg.numSets = 2048;
    cfg.assoc = 16;
    Cache cache(cfg, std::make_unique<LruPolicy>(2048, 16));
    Rng rng(7);
    std::uint64_t now = 0;
    for (auto _ : state) {
        const Access a =
            Access::atBlock(rng.below(1 << 16), 0x400000);
        if (!cache.access(a, now))
            cache.fill(a, now);
        ++now;
    }
}
BENCHMARK(BM_LruCacheAccess);

void
simulatedInstruction(benchmark::State &state)
{
    HierarchyConfig hcfg;
    Engine eng = makeEngine(PolicyKind::Sampler, hcfg, CoreConfig{});
    SyntheticWorkload workload(specProfile("456.hmmer"));
    // Use run() in chunks so the benchmark measures steady state.
    std::vector<AccessGenerator *> gens = {&workload};
    for (auto _ : state)
        eng.system->run(gens, 0, 10000);
    state.SetItemsProcessed(state.iterations() * 10000);
}

/** The sealed Sampler engine, as the runner uses it. */
void
BM_SimulatedInstruction(benchmark::State &state)
{
    simulatedInstruction(state);
}
BENCHMARK(BM_SimulatedInstruction)->Unit(benchmark::kMillisecond);

/**
 * The same sealed engine with the scan-kernel path pinned: /simd is
 * the AVX2 kernels (where available), /scalar forces the reference
 * scans — the in-process equivalent of SDBP_NO_SIMD=1.  Their delta
 * is the end-to-end worth of the vector set scan.
 */
void
simulatedInstructionSimd(benchmark::State &state, bool simd_on)
{
    const bool prev = simd::setEnabledForTest(simd_on);
    simulatedInstruction(state);
    simd::setEnabledForTest(prev);
}
BENCHMARK_CAPTURE(simulatedInstructionSimd, simd, true)
    ->Name("BM_SimulatedInstruction/simd")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(simulatedInstructionSimd, scalar, false)
    ->Name("BM_SimulatedInstruction/scalar")
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

int
main(int argc, char **argv)
{
    // Console output as usual, plus the machine-readable artifact —
    // injected via the standard --benchmark_out flags so an explicit
    // user-provided --benchmark_out still wins.
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=BENCH_micro_ops.json";
    std::string fmt_flag = "--benchmark_out_format=json";
    bool user_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            user_out = true;
    if (!user_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int args_count = static_cast<int>(args.size());

    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count,
                                               args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    if (!user_out)
        std::cout << "[wrote BENCH_micro_ops.json]\n";
    benchmark::Shutdown();
    return 0;
}
