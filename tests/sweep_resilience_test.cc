/**
 * @file
 * Tests for fault-tolerant sweep execution: per-cell failure
 * isolation (CellError + retries, remaining cells still run), the
 * checkpoint manifest (atomic writes, resume of completed cells,
 * fingerprint safety), graceful-shutdown skipping, and the JSON
 * round-trip of every checkpointed struct's field list.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <type_traits>

#include "obs/json.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/worker.hh"
#include "trace/spec_profiles.hh"
#include "util/file.hh"

namespace sdbp
{
namespace
{

RunConfig
tinyConfig()
{
    RunConfig cfg = RunConfig::singleCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;
    return cfg;
}

std::vector<std::string>
twoBenchmarks()
{
    const auto &subset = memoryIntensiveSubset();
    return {subset[0], subset[1]};
}

/** Fresh manifest path per test so checkpoints never collide. */
std::string
manifestPath(const std::string &test)
{
    const std::string path =
        testing::TempDir() + "sdbp_" + test + ".manifest.json";
    std::remove(path.c_str());
    return path;
}

obs::JsonValue
parseManifest(const std::string &path)
{
    bool ok = false;
    const std::string text = util::readFile(path, &ok);
    EXPECT_TRUE(ok) << path;
    std::string err;
    const auto doc = obs::JsonValue::parse(text, &err);
    EXPECT_TRUE(doc.has_value()) << err;
    return doc ? *doc : obs::JsonValue();
}

std::string
cellStatus(const obs::JsonValue &doc, std::size_t index)
{
    const obs::JsonValue *cells = doc.find("cells");
    if (!cells || index >= cells->size())
        return {};
    const obs::JsonValue *status = cells->at(index).find("status");
    return status ? status->asString() : std::string{};
}

/** RAII guard for the SDBP_TEST_FAIL_CELL hook. */
class FailCellGuard
{
  public:
    explicit FailCellGuard(const std::string &cell)
    {
        ::setenv("SDBP_TEST_FAIL_CELL", cell.c_str(), 1);
    }
    ~FailCellGuard() { ::unsetenv("SDBP_TEST_FAIL_CELL"); }
};

TEST(SweepManifestTest, RunResultJsonRoundTrip)
{
    RunResult r;
    r.benchmark = "456.hmmer";
    r.policy = "Sampler";
    r.instructions = 123456;
    r.cycles = 654321;
    r.ipc = 0.1887;
    r.mpki = 12.75;
    r.llcAccesses = 4242;
    r.llcMisses = 99;
    r.llcBypasses = 7;
    r.llcEfficiency = 0.5;
    r.hasDbrb = true;
    r.dbrb.predictions = 1000;
    r.dbrb.positives = 250;
    r.dbrb.falsePositiveHits = 3;
    r.dbrb.bypassReuses = 2;
    r.dbrb.deadEvictions = 120;
    r.dbrb.bypasses = 5;
    r.faultsInjected = 17;
    r.wallSeconds = 1.25;

    const RunResult back = obs::fromJson<RunResult>(obs::toJson(r));
    EXPECT_EQ(back.benchmark, r.benchmark);
    EXPECT_EQ(back.policy, r.policy);
    EXPECT_EQ(back.instructions, r.instructions);
    EXPECT_EQ(back.cycles, r.cycles);
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.mpki, r.mpki);
    EXPECT_EQ(back.llcAccesses, r.llcAccesses);
    EXPECT_EQ(back.llcMisses, r.llcMisses);
    EXPECT_EQ(back.llcBypasses, r.llcBypasses);
    EXPECT_EQ(back.llcEfficiency, r.llcEfficiency);
    EXPECT_EQ(back.hasDbrb, r.hasDbrb);
    EXPECT_EQ(back.dbrb.predictions, r.dbrb.predictions);
    EXPECT_EQ(back.dbrb.positives, r.dbrb.positives);
    EXPECT_EQ(back.dbrb.falsePositiveHits, r.dbrb.falsePositiveHits);
    EXPECT_EQ(back.dbrb.bypassReuses, r.dbrb.bypassReuses);
    EXPECT_EQ(back.dbrb.deadEvictions, r.dbrb.deadEvictions);
    EXPECT_EQ(back.dbrb.bypasses, r.dbrb.bypasses);
    EXPECT_EQ(back.faultsInjected, r.faultsInjected);
    EXPECT_EQ(back.wallSeconds, r.wallSeconds);
    EXPECT_FALSE(back.intervalSelected);
}

TEST(SweepManifestTest, IntervalResultJsonRoundTrip)
{
    RunResult r;
    r.benchmark = "trace";
    r.policy = "LRU";
    r.intervalSelected = true;
    r.traceInstructions = 4'000'000;
    r.intervalsTotal = 64;
    r.intervalsSimulated = 3;
    r.simulatedInstructions = 375'000;

    const RunResult back = obs::fromJson<RunResult>(obs::toJson(r));
    EXPECT_TRUE(back.intervalSelected);
    EXPECT_EQ(back.traceInstructions, r.traceInstructions);
    EXPECT_EQ(back.intervalsTotal, r.intervalsTotal);
    EXPECT_EQ(back.intervalsSimulated, r.intervalsSimulated);
    EXPECT_EQ(back.simulatedInstructions, r.simulatedInstructions);
}

TEST(SweepManifestTest, TraceSpecJsonRoundTrip)
{
    // Default (synthetic) specs must not emit a "trace" block at all
    // so established manifests keep their shape.
    RunConfig plain;
    EXPECT_EQ(obs::toJson(plain).find("trace"), nullptr);
    const RunConfig plain_back =
        obs::fromJson<RunConfig>(obs::toJson(plain));
    EXPECT_TRUE(plain_back.trace == TraceSpec{});

    RunConfig cfg;
    cfg.trace.kind = TraceKind::ChampSim;
    cfg.trace.path = "/tmp/some.trace.xz";
    cfg.trace.intervalInstructions = 125'000;
    cfg.trace.selectClusters = 3;
    const RunConfig back = obs::fromJson<RunConfig>(obs::toJson(cfg));
    EXPECT_TRUE(back.trace == cfg.trace);
    EXPECT_TRUE(back.trace.selectionEnabled());
}

TEST(SweepManifestTest, MulticoreResultJsonRoundTrip)
{
    MulticoreRunResult r;
    r.mix = "mix1";
    r.policy = "DRRIP";
    r.benchmarks = {"a", "b", "c", "d"};
    r.ipc = {0.5, 0.25, 1.0, 0.75};
    r.llcMisses = 4321;
    r.totalInstructions = 400000;
    r.mpki = 10.8;
    r.faultsInjected = 3;
    r.wallSeconds = 2.5;

    const MulticoreRunResult back =
        obs::fromJson<MulticoreRunResult>(obs::toJson(r));
    EXPECT_EQ(back.mix, r.mix);
    EXPECT_EQ(back.policy, r.policy);
    EXPECT_EQ(back.benchmarks, r.benchmarks);
    EXPECT_EQ(back.ipc, r.ipc);
    EXPECT_EQ(back.llcMisses, r.llcMisses);
    EXPECT_EQ(back.totalInstructions, r.totalInstructions);
    EXPECT_EQ(back.mpki, r.mpki);
    EXPECT_EQ(back.faultsInjected, r.faultsInjected);
    EXPECT_EQ(back.wallSeconds, r.wallSeconds);
}

/**
 * Field-list visitor that gives every listed field a distinct
 * non-default value and records its key, so a round trip that drops
 * a field, or reads it under another key, shows up.
 */
class Perturb
{
  public:
    template <typename T>
    void
    operator()(const char *key, T &member)
    {
        keys.insert(key);
        set(member);
    }

    template <typename T>
    void
    when(bool, const char *key, T &member)
    {
        (*this)(key, member);
    }

    template <typename Fn>
    void
    group(const char *key, bool &present, Fn &&fn)
    {
        keys.insert(key);
        present = true;
        fn(*this);
    }

    /** Perturb every listed field of @p m. */
    template <typename T>
    void
    set(T &m)
    {
        ++n_;
        if constexpr (std::is_same_v<T, bool>)
            m = !m;
        else if constexpr (std::is_enum_v<T>)
            m = static_cast<T>(static_cast<int>(m) + 1);
        else if constexpr (std::is_integral_v<T>)
            m = static_cast<T>(1000 + n_);
        else if constexpr (std::is_floating_point_v<T>)
            m = static_cast<double>(n_) + 0.25;
        else if constexpr (std::is_same_v<T, std::string>)
            m = "s" + std::to_string(n_);
        else if constexpr (std::is_same_v<T, obs::JsonValue>)
            m = obs::JsonValue(std::uint64_t{n_});
        else if constexpr (obs::detail::kIsVector<T>) {
            m.resize(2);
            for (auto &item : m)
                set(item);
        } else if constexpr (obs::detail::kIsOptional<T>) {
            m.emplace();
            set(*m);
        } else {
            obs::JsonFields<T>::visit(m, *this);
        }
    }

    std::set<std::string> keys;

  private:
    std::uint64_t n_ = 0;
};

/** Every object key anywhere in @p v. */
void
collectKeys(const obs::JsonValue &v, std::set<std::string> &out)
{
    if (v.isArray())
        for (std::size_t i = 0; i < v.size(); ++i)
            collectKeys(v.at(i), out);
    for (const auto &[key, value] : v.members()) {
        out.insert(key);
        collectKeys(value, out);
    }
}

/** Perturb @p value, then require that every listed key is written
 *  and that the JSON reads back to the same JSON. */
template <typename T>
void
expectFieldListRoundTrips(T value, const std::function<void(T &)> &fix)
{
    Perturb perturb;
    perturb.set(value);
    fix(value);
    const obs::JsonValue json = obs::toJson(value);
    std::set<std::string> written;
    collectKeys(json, written);
    EXPECT_EQ(written, perturb.keys);
    EXPECT_EQ(obs::toJson(obs::fromJson<T>(json)).dump(), json.dump());
}

TEST(SweepManifestTest, EveryListedFieldRoundTrips)
{
    const auto keep = [](auto &) {};
    expectFieldListRoundTrips<RunConfig>({}, keep);
    expectFieldListRoundTrips<RunResult>({}, keep);
    expectFieldListRoundTrips<MulticoreRunResult>({}, keep);
    // The manifest's cell fields depend on the status: cover each
    // status whose fields are conditional.
    expectFieldListRoundTrips<sweep::ManifestFile>(
        {}, [](sweep::ManifestFile &m) {
            m.cells.push_back(m.cells[1]);
            m.cells[0].status = sweep::CellStatus::Completed;
            m.cells[1].status = sweep::CellStatus::Failed;
            m.cells[2].status = sweep::CellStatus::Leased;
        });
}

TEST(SweepManifestTest, MarkReloadRoundTrip)
{
    const std::string path = manifestPath("mark_reload");
    {
        sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"},
                               1000, 2000);
        obs::JsonValue metrics = obs::JsonValue::object();
        metrics.set("mpki", 3.5);
        m.markCompleted(0, std::move(metrics));
        sweep::CellError err;
        err.index = 1;
        err.run = "b";
        err.policy = "LRU";
        err.message = "boom";
        err.attempts = 2;
        m.markFailed(err);
    }
    sweep::SweepManifest reloaded(path, "grid", {"a", "b"}, {"LRU"},
                                  1000, 2000);
    EXPECT_EQ(reloaded.loadCompleted(), 1u);
    EXPECT_TRUE(reloaded.isCompleted(0));
    EXPECT_FALSE(reloaded.isCompleted(1));
    const obs::JsonValue metrics = reloaded.completedMetrics(0);
    const obs::JsonValue *mpki = metrics.find("mpki");
    ASSERT_NE(mpki, nullptr);
    EXPECT_EQ(mpki->asNumber(), 3.5);

    const obs::JsonValue doc = parseManifest(path);
    EXPECT_EQ(cellStatus(doc, 0), "completed");
    EXPECT_EQ(cellStatus(doc, 1), "failed");
    std::remove(path.c_str());
}

TEST(SweepManifestDeathTest, FingerprintMismatchIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = manifestPath("fingerprint");
    {
        sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"},
                               1000, 2000);
        m.flush();
    }
    // Different benchmark list.
    EXPECT_EXIT(
        {
            sweep::SweepManifest m(path, "grid", {"a", "c"}, {"LRU"},
                                   1000, 2000);
            m.loadCompleted();
        },
        testing::ExitedWithCode(1), "different sweep");
    // Different instruction budget.
    EXPECT_EXIT(
        {
            sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"},
                                   1000, 9999);
            m.loadCompleted();
        },
        testing::ExitedWithCode(1), "different sweep");
    // Corrupted file.
    ASSERT_TRUE(util::atomicWriteFile(path, "{not json"));
    EXPECT_EXIT(
        {
            sweep::SweepManifest m(path, "grid", {"a", "b"}, {"LRU"},
                                   1000, 2000);
            m.loadCompleted();
        },
        testing::ExitedWithCode(1), "not valid JSON");
    std::remove(path.c_str());
}

TEST(SweepResilience, ThrowingCellIsIsolated)
{
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru,
                                              PolicyKind::Sampler};
    const std::string victim =
        benchmarks[1] + "/" + policyName(PolicyKind::Sampler);
    const FailCellGuard guard(victim);

    sweep::SweepOptions opts;
    opts.jobs = 2;
    opts.retries = 1;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);

    EXPECT_FALSE(grid.ok());
    ASSERT_EQ(grid.errors.size(), 1u);
    const sweep::CellError &err = grid.errors.front();
    EXPECT_EQ(err.run, benchmarks[1]);
    EXPECT_EQ(err.policy, policyName(PolicyKind::Sampler));
    EXPECT_EQ(err.attempts, 2u); // 1 + retries, all forced to fail
    EXPECT_FALSE(err.timedOut);
    EXPECT_NE(err.message.find("SDBP_TEST_FAIL_CELL"),
              std::string::npos);

    // The failed cell holds a labeled placeholder; every other cell
    // holds a real result.
    for (std::size_t b = 0; b < benchmarks.size(); ++b)
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const RunResult &r = grid.at(b, p);
            EXPECT_EQ(r.benchmark, benchmarks[b]);
            if (b == 1 && policies[p] == PolicyKind::Sampler)
                EXPECT_EQ(r.cycles, 0u);
            else
                EXPECT_GT(r.cycles, 0u);
        }
}

TEST(SweepResilience, FailedCellRecordedInManifest)
{
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("failed_cell");

    {
        const FailCellGuard guard(benchmarks[0] + "/" +
                                  policyName(PolicyKind::Lru));
        sweep::SweepOptions opts;
        opts.jobs = 1;
        opts.manifestPath = path;
        const sweep::Grid grid =
            sweep::runGrid(benchmarks, policies, cfg, opts);
        ASSERT_EQ(grid.errors.size(), 1u);
        EXPECT_EQ(grid.errors.front().index, 0u);
    }

    const obs::JsonValue doc = parseManifest(path);
    EXPECT_EQ(cellStatus(doc, 0), "failed");
    EXPECT_EQ(cellStatus(doc, 1), "completed");
    const obs::JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    const obs::JsonValue *msg = cells->at(0).find("error");
    ASSERT_NE(msg, nullptr);
    EXPECT_NE(msg->asString().find("SDBP_TEST_FAIL_CELL"),
              std::string::npos);

    // Resume with the hook removed: the completed cell restores, the
    // failed cell re-executes and now succeeds.
    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.manifestPath = path;
    opts.resume = true;
    const sweep::Grid resumed =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumed, 1u);
    EXPECT_GT(resumed.at(0, 0).cycles, 0u);
    EXPECT_GT(resumed.at(1, 0).cycles, 0u);
    EXPECT_EQ(cellStatus(parseManifest(path), 0), "completed");
    std::remove(path.c_str());
}

TEST(SweepResilience, ResumeRestoresInsteadOfRerunning)
{
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("resume_restores");

    sweep::SweepOptions opts;
    opts.jobs = 2;
    opts.manifestPath = path;
    const sweep::Grid first =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    ASSERT_TRUE(first.ok());

    // Plant a sentinel MPKI in cell 0's checkpoint.  If the resumed
    // sweep restores (rather than re-runs) the cell, the sentinel
    // must surface in its result.
    obs::JsonValue doc = parseManifest(path);
    const obs::JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    obs::JsonValue patched_cells = obs::JsonValue::array();
    for (std::size_t i = 0; i < cells->size(); ++i) {
        obs::JsonValue cell = cells->at(i);
        if (i == 0) {
            obs::JsonValue metrics = *cell.find("metrics");
            metrics.set("mpki", 12345.0);
            cell.set("metrics", std::move(metrics));
        }
        patched_cells.push(std::move(cell));
    }
    doc.set("cells", std::move(patched_cells));
    ASSERT_TRUE(util::atomicWriteFile(path, doc.dump(2) + "\n"));

    opts.resume = true;
    const sweep::Grid second =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumed, 2u);
    EXPECT_EQ(second.at(0, 0).mpki, 12345.0);
    EXPECT_EQ(second.at(1, 0).mpki, first.at(1, 0).mpki);
    EXPECT_EQ(second.at(1, 0).cycles, first.at(1, 0).cycles);
    std::remove(path.c_str());
}

TEST(SweepResilience, ResumeIgnoredForNonCheckpointableGrids)
{
    RunConfig cfg = tinyConfig();
    cfg.recordLlcTrace = true; // in-memory payload: not resumable
    const std::vector<std::string> benchmarks = {twoBenchmarks()[0]};
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("non_resumable");

    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.manifestPath = path;
    const sweep::Grid first =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    ASSERT_TRUE(first.ok());

    opts.resume = true;
    const sweep::Grid second =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumed, 0u); // re-ran, not restored
    EXPECT_FALSE(second.at(0, 0).llcTrace.empty());
    std::remove(path.c_str());
}

TEST(SweepResilience, ShutdownSkipsQueuedCells)
{
    const RunConfig cfg = tinyConfig();
    const auto benchmarks = twoBenchmarks();
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("shutdown");

    sweep::requestShutdown();
    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.manifestPath = path;
    const sweep::Grid grid =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    sweep::resetShutdown();

    EXPECT_FALSE(grid.ok());
    EXPECT_EQ(grid.skipped, 2u);
    EXPECT_TRUE(grid.errors.empty());
    const obs::JsonValue doc = parseManifest(path);
    EXPECT_EQ(cellStatus(doc, 0), "skipped");
    EXPECT_EQ(cellStatus(doc, 1), "skipped");

    // The checkpoint left behind is resumable: with shutdown cleared
    // the skipped cells execute on the next attempt.
    opts.resume = true;
    const sweep::Grid resumed =
        sweep::runGrid(benchmarks, policies, cfg, opts);
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumed, 0u);
    EXPECT_GT(resumed.at(0, 0).cycles, 0u);
    std::remove(path.c_str());
}

TEST(SweepResilience, SkippedCellsKeepTheirLabels)
{
    // Like a failed cell, a skipped one holds a labelled placeholder.
    const MixProfile &mix = multicoreMixes().front();
    sweep::requestShutdown();
    sweep::SweepOptions opts;
    opts.jobs = 1;
    const sweep::MixGrid grid = sweep::runMixGrid(
        {mix}, {PolicyKind::Lru}, RunConfig::quadCore(), opts);
    sweep::resetShutdown();

    EXPECT_EQ(grid.skipped, 1u);
    EXPECT_EQ(grid.at(0, 0).mix, mix.name);
    EXPECT_EQ(grid.at(0, 0).policy, policyName(PolicyKind::Lru));
    EXPECT_EQ(grid.at(0, 0).totalInstructions, 0u);
}

TEST(SweepResilience, MixGridIsolatesFailures)
{
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;
    const auto &all = multicoreMixes();
    ASSERT_GE(all.size(), 2u);
    const std::vector<MixProfile> mixes(all.begin(), all.begin() + 2);
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("mix_failure");

    {
        const FailCellGuard guard(mixes[0].name + "/" +
                                  policyName(PolicyKind::Lru));
        sweep::SweepOptions opts;
        opts.jobs = 2;
        opts.manifestPath = path;
        const sweep::MixGrid grid =
            sweep::runMixGrid(mixes, policies, cfg, opts);
        ASSERT_EQ(grid.errors.size(), 1u);
        EXPECT_EQ(grid.errors.front().run, mixes[0].name);
        EXPECT_GT(grid.at(1, 0).totalInstructions, 0u);
    }

    // Resume re-runs only the failed mix.
    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.manifestPath = path;
    opts.resume = true;
    const sweep::MixGrid resumed =
        sweep::runMixGrid(mixes, policies, cfg, opts);
    EXPECT_TRUE(resumed.ok());
    EXPECT_EQ(resumed.resumed, 1u);
    EXPECT_GT(resumed.at(0, 0).totalInstructions, 0u);
    std::remove(path.c_str());
}

TEST(SweepResilienceTest, MixGridResumeIgnoresArtifactFlags)
{
    // runGrid refuses to resume when the config requests in-memory
    // payloads (recordLlcTrace / trackEfficiency) because those are
    // not checkpointed.  Mix grids are exempt from that guard:
    // runMulticore never records either payload, so a mix-grid
    // checkpoint is always authoritative and a resume must restore
    // even with the artifact flags set.
    RunConfig cfg = RunConfig::quadCore();
    cfg.warmupInstructions = 20000;
    cfg.measureInstructions = 100000;
    cfg.recordLlcTrace = true;
    cfg.trackEfficiency = true;
    const auto &all = multicoreMixes();
    ASSERT_GE(all.size(), 1u);
    const std::vector<MixProfile> mixes(all.begin(), all.begin() + 1);
    const std::vector<PolicyKind> policies = {PolicyKind::Lru};
    const std::string path = manifestPath("mix_resume_artifacts");

    sweep::SweepOptions opts;
    opts.jobs = 1;
    opts.manifestPath = path;
    const sweep::MixGrid first =
        sweep::runMixGrid(mixes, policies, cfg, opts);
    ASSERT_TRUE(first.ok());

    opts.resume = true;
    const sweep::MixGrid second =
        sweep::runMixGrid(mixes, policies, cfg, opts);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.resumed, 1u); // restored, not re-run
    EXPECT_EQ(second.at(0, 0).llcMisses, first.at(0, 0).llcMisses);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace sdbp
