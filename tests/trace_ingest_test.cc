/**
 * @file
 * Tests for the real-trace pipeline (DESIGN.md §17): ChampSim
 * record/replay round-trips bit-identically through the simulator,
 * compressed traces stream in bounded memory, corrupt traces die
 * with one-line diagnostics, interval selection is deterministic,
 * and a trace-driven sweep grid on the thread pool, and its resume
 * from the manifest, match the serial run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "trace/champsim.hh"
#include "trace/interval_select.hh"
#include "trace/spec_profiles.hh"
#include "trace/trace_file.hh"
#include "trace/trace_reader.hh"
#include "trace/trace_source.hh"
#include "trace/workload.hh"
#include "util/file.hh"

namespace sdbp
{
namespace
{

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

void
writeBytes(const std::string &path, const void *data, std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
}

std::vector<Access>
drainReader(TraceReader &reader)
{
    std::vector<Access> out;
    Access batch[256];
    for (;;) {
        const std::size_t n =
            reader.readBatch(std::span<Access>(batch));
        if (n == 0)
            break;
        out.insert(out.end(), batch, batch + n);
    }
    return out;
}

void
expectSameAccess(const Access &got, const Access &want,
                 std::size_t index)
{
    EXPECT_EQ(got.pc, want.pc) << "record " << index;
    EXPECT_EQ(got.addr, want.addr) << "record " << index;
    EXPECT_EQ(got.gap, want.gap) << "record " << index;
    EXPECT_EQ(got.isWrite, want.isWrite) << "record " << index;
    EXPECT_EQ(got.dependsOnPrevLoad, want.dependsOnPrevLoad)
        << "record " << index;
}

TEST(ChampSim, RecordDecodeRoundTripPreservesEveryField)
{
    // mcf leans on pointer-chase streams, so dependsOnPrevLoad is
    // exercised — including on the very first record.
    const std::string path = tempPath("roundtrip.champsim");
    SyntheticWorkload gen(specProfile("429.mcf"));
    recordChampSimTrace(gen, 40000, path);

    gen.reset();
    ChampSimTraceReader reader(path);
    const auto decoded = drainReader(reader);
    ASSERT_GT(decoded.size(), 1000u);
    bool saw_dep = false, saw_write = false, saw_gap = false;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        const Access want = gen.next();
        expectSameAccess(decoded[i], want, i);
        saw_dep |= want.dependsOnPrevLoad;
        saw_write |= want.isWrite;
        saw_gap |= want.gap > 0;
    }
    EXPECT_TRUE(saw_dep);
    EXPECT_TRUE(saw_write);
    EXPECT_TRUE(saw_gap);

    // rewind restarts the decode from the first record.
    reader.rewind();
    const auto again = drainReader(reader);
    ASSERT_EQ(again.size(), decoded.size());
    expectSameAccess(again[0], decoded[0], 0);
    std::remove(path.c_str());
}

TEST(ChampSim, RecordedTraceReplaysBitIdentically)
{
    const std::string path = tempPath("replay.champsim");
    const std::string benchmark = "456.hmmer";
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;

    // Record with slack beyond the run's budget so the replay never
    // wraps mid-run (the batched decode reads slightly past it).
    SyntheticWorkload gen(specProfile(benchmark));
    recordChampSimTrace(gen,
                        cfg.warmupInstructions +
                            cfg.measureInstructions + 8192,
                        path);

    const RunResult direct =
        runSingleCore(benchmark, PolicyKind::Sampler, cfg);
    RunConfig replay_cfg = cfg;
    replay_cfg.trace.kind = TraceKind::ChampSim;
    replay_cfg.trace.path = path;
    const RunResult replayed =
        runSingleCore(benchmark, PolicyKind::Sampler, replay_cfg);

    EXPECT_EQ(replayed.instructions, direct.instructions);
    EXPECT_EQ(replayed.cycles, direct.cycles);
    EXPECT_EQ(replayed.ipc, direct.ipc);
    EXPECT_EQ(replayed.mpki, direct.mpki);
    EXPECT_EQ(replayed.llcAccesses, direct.llcAccesses);
    EXPECT_EQ(replayed.llcMisses, direct.llcMisses);
    EXPECT_EQ(replayed.llcBypasses, direct.llcBypasses);
    std::remove(path.c_str());
}

TEST(TraceIngest, OpenTraceReaderDispatchesNativeByMagic)
{
    const std::string path = tempPath("dispatch.sdbptrace");
    SyntheticWorkload gen(specProfile("429.mcf"));
    captureTrace(gen, 300, path);

    const auto reader = openTraceReader(path);
    ASSERT_NE(dynamic_cast<NativeTraceReader *>(reader.get()),
              nullptr);
    gen.reset();
    const auto decoded = drainReader(*reader);
    ASSERT_EQ(decoded.size(), 300u);
    for (std::size_t i = 0; i < decoded.size(); ++i)
        expectSameAccess(decoded[i], gen.next(), i);
    std::remove(path.c_str());
}

TEST(TraceIngestDeathTest, CorruptTracesDieWithOneLineDiagnostics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";

    const std::string empty = tempPath("empty.trace");
    writeBytes(empty, "", 0);
    EXPECT_EXIT(openTraceReader(empty), testing::ExitedWithCode(1),
                "is empty");

    const std::string missing = tempPath("no-such-dir/nope.trace");
    EXPECT_EXIT(openTraceReader(missing), testing::ExitedWithCode(1),
                "cannot open trace file");

    // Junk that is not a multiple of the ChampSim record size.
    const std::string junk = tempPath("junk.trace");
    const char bytes[100] = {12, 34, 56};
    writeBytes(junk, bytes, sizeof(bytes));
    EXPECT_EXIT(drainReader(*openTraceReader(junk)),
                testing::ExitedWithCode(1),
                "truncated ChampSim record");

    // Native magic with an unsupported version.
    const std::string badver = tempPath("badver.sdbptrace");
    const NativeTraceHeader header{kNativeTraceMagic, 99, 0};
    writeBytes(badver, &header, sizeof(header));
    EXPECT_EXIT(openTraceReader(badver), testing::ExitedWithCode(1),
                "unsupported trace version");

    // Native header declaring more records than the file holds.
    const std::string shortfile = tempPath("short.sdbptrace");
    {
        TraceWriter writer(shortfile);
        writer.append(Access{});
        writer.close();
        NativeTraceHeader lying{kNativeTraceMagic,
                                kNativeTraceVersion, 10};
        std::FILE *f = std::fopen(shortfile.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(&lying, sizeof(lying), 1, f), 1u);
        std::fclose(f);
    }
    EXPECT_EXIT(readTraceFile(shortfile), testing::ExitedWithCode(1),
                "truncated record");

    std::remove(empty.c_str());
    std::remove(junk.c_str());
    std::remove(badver.c_str());
    std::remove(shortfile.c_str());
}

TEST(TraceIngest, GzTraceStreamsInBoundedMemory)
{
    const std::string path = tempPath("bounded.champsim");
    SyntheticWorkload gen(specProfile("462.libquantum"));
    recordChampSimTrace(gen, 120000, path);
    if (std::system(("gzip -f '" + path + "'").c_str()) != 0)
        GTEST_SKIP() << "gzip unavailable";
    const std::string gz = path + ".gz";

    constexpr std::size_t kRing = 256;
    TraceReplayGenerator replay(openTraceReader(gz), kRing);
    ASSERT_TRUE(replay.streaming());
    gen.reset();
    std::size_t checked = 0;
    Access batch[100];
    for (int round = 0; round < 50; ++round) {
        replay.nextBatch(std::span<Access>(batch));
        // The ring bounds decoded-record memory no matter how much
        // of the trace has streamed through.
        EXPECT_LE(replay.bufferedRecords(), kRing);
        for (const Access &rec : batch)
            expectSameAccess(rec, gen.next(), checked++);
    }
    EXPECT_EQ(replay.loops(), 0u);

    // reset() replays the stream from the start.
    replay.reset();
    gen.reset();
    replay.nextBatch(std::span<Access>(batch));
    for (std::size_t i = 0; i < 100; ++i)
        expectSameAccess(batch[i], gen.next(), i);
    std::remove(gz.c_str());
}

TEST(TraceIngest, StreamingReplayWrapsLikeInMemoryReplay)
{
    const std::string path = tempPath("wrap.sdbptrace");
    SyntheticWorkload gen(specProfile("470.lbm"));
    captureTrace(gen, 1000, path);

    TraceReplayGenerator streamed(openTraceReader(path), 128);
    TraceReplayGenerator inmem(readTraceFile(path));
    Access a[64], b[64];
    for (int round = 0; round < 40; ++round) {
        streamed.nextBatch(std::span<Access>(a));
        inmem.nextBatch(std::span<Access>(b));
        for (std::size_t i = 0; i < 64; ++i)
            expectSameAccess(a[i], b[i],
                             static_cast<std::size_t>(round) * 64 + i);
    }
    EXPECT_GT(streamed.loops(), 0u);
    // The first wrap teaches the streaming generator the length.
    EXPECT_EQ(streamed.size(), 1000u);
    std::remove(path.c_str());
}

TEST(IntervalSelect, SelectionIsDeterministic)
{
    SyntheticWorkload gen(specProfile("429.mcf"));
    std::vector<Access> records;
    for (int i = 0; i < 20000; ++i)
        records.push_back(gen.next());

    IntervalSelectConfig cfg;
    cfg.intervalInstructions = 2000;
    cfg.clusters = 4;
    VectorTraceReader r1(records), r2(records);
    const IntervalSelection a = selectIntervals(r1, cfg);
    const IntervalSelection b = selectIntervals(r2, cfg);

    ASSERT_EQ(a.reps.size(), b.reps.size());
    ASSERT_LE(a.reps.size(), 4u);
    double weight_sum = 0;
    for (std::size_t i = 0; i < a.reps.size(); ++i) {
        EXPECT_EQ(a.reps[i].interval, b.reps[i].interval);
        EXPECT_EQ(a.reps[i].weight, b.reps[i].weight);
        weight_sum += a.reps[i].weight;
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-9);
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t i = 0; i < a.intervals.size(); ++i)
        EXPECT_EQ(a.intervals[i].cluster, b.intervals[i].cluster);

    // collectIntervals returns exactly the records of each interval.
    VectorTraceReader r3(records);
    const auto got = collectIntervals(
        r3, a, {a.reps[0].interval, a.reps[0].interval});
    ASSERT_EQ(got.size(), 2u);
    const TraceInterval &iv = a.intervals[a.reps[0].interval];
    ASSERT_EQ(got[0].size(), iv.recordCount);
    EXPECT_EQ(got[0].size(), got[1].size());
    for (std::size_t i = 0; i < got[0].size(); ++i)
        expectSameAccess(got[0][i], records[iv.firstRecord + i], i);
}

/** Serial vs parallel comparison for trace-driven cells. */
void
expectSameResult(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_EQ(a.intervalSelected, b.intervalSelected);
    EXPECT_EQ(a.traceInstructions, b.traceInstructions);
    EXPECT_EQ(a.intervalsTotal, b.intervalsTotal);
    EXPECT_EQ(a.intervalsSimulated, b.intervalsSimulated);
    EXPECT_EQ(a.simulatedInstructions, b.simulatedInstructions);
}

TEST(TraceSweep, IntervalSelectedGridMatchesSerialUnderWorkers)
{
    // Record one trace; every cell of the grid replays it with
    // interval selection, on two pool threads and then from the
    // manifest those cells checkpointed.
    const std::string path = tempPath("sweep.champsim");
    SyntheticWorkload gen(specProfile("462.libquantum"));
    recordChampSimTrace(gen, 200000, path);

    RunConfig cfg = RunConfig::singleCore();
    cfg.trace.kind = TraceKind::ChampSim;
    cfg.trace.path = path;
    cfg.trace.intervalInstructions = 20000;
    cfg.trace.selectClusters = 2;

    const std::vector<std::string> runs = {"trace"};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};

    sweep::SweepOptions serial_opts;
    serial_opts.jobs = 1;
    const sweep::Grid serial =
        sweep::runGrid(runs, policies, cfg, serial_opts);
    ASSERT_TRUE(serial.ok());
    const RunResult &probe = serial.at(0, 0);
    EXPECT_TRUE(probe.intervalSelected);
    EXPECT_EQ(probe.intervalsSimulated, 2u);
    EXPECT_GT(probe.traceInstructions, 190000u);
    EXPECT_LT(probe.simulatedInstructions, probe.traceInstructions);

    sweep::SweepOptions opts;
    opts.jobs = 2;
    opts.manifestPath = tempPath("trace_sweep.manifest.json");
    std::remove(opts.manifestPath.c_str());
    const sweep::Grid parallel =
        sweep::runGrid(runs, policies, cfg, opts);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.resumed, 0u);
    for (std::size_t p = 0; p < policies.size(); ++p)
        expectSameResult(parallel.at(0, p), serial.at(0, p));

    // The checkpointed TraceSpec matches, so both cells restore.
    opts.resume = true;
    const sweep::Grid resumed =
        sweep::runGrid(runs, policies, cfg, opts);
    ASSERT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumed, policies.size());
    for (std::size_t p = 0; p < policies.size(); ++p)
        expectSameResult(resumed.at(0, p), serial.at(0, p));

    std::remove(opts.manifestPath.c_str());
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace sdbp
