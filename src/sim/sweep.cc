#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/span_tracer.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/thread_pool.hh"

namespace sdbp::sweep
{

namespace
{

std::atomic<bool> g_shutdown{false};

extern "C" void
sweepSignalHandler(int sig)
{
    // First signal: request a graceful drain (queued cells skip,
    // in-flight cells finish and checkpoint).  Restoring the default
    // disposition means a second signal kills the process outright.
    g_shutdown.store(true, std::memory_order_relaxed);
    std::signal(sig, SIG_DFL);
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** "Random Sampler" -> "random_sampler"; "456.hmmer" -> "456_hmmer". */
std::string
slug(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out.push_back(static_cast<char>(
                std::tolower(static_cast<unsigned char>(c))));
        else if (!out.empty() && out.back() != '_')
            out.push_back('_');
    }
    while (!out.empty() && out.back() == '_')
        out.pop_back();
    return out;
}

/**
 * Run @p attempt up to 1 + retries times with exponential backoff,
 * recording each throw in @p err.  Returns true on success;
 * otherwise @p err holds the last failure.
 */
bool
runWithRetries(unsigned retries, const std::function<void()> &attempt,
               CellError &err)
{
    const unsigned max_attempts = retries + 1;
    for (unsigned a = 1; a <= max_attempts; ++a) {
        err.attempts = a;
        try {
            // Test hook: make exactly this cell throw, so the
            // end-to-end failure path (retries, CellError, manifest,
            // exit code) is exercisable from tests and CI.
            if (const std::string f = env::str("SDBP_TEST_FAIL_CELL");
                !f.empty() && err.run + "/" + err.policy == f)
                throw std::runtime_error(
                    "SDBP_TEST_FAIL_CELL forced failure");
            attempt();
            return true;
        } catch (const SimulationTimeout &e) {
            err.timedOut = true;
            err.message = e.what();
        } catch (const std::exception &e) {
            err.timedOut = false;
            err.message = e.what();
        } catch (...) {
            err.timedOut = false;
            err.message = "unknown exception";
        }
        if (a < max_attempts && !shutdownRequested()) {
            warn("cell " + err.run + "/" + err.policy +
                 " failed (attempt " + std::to_string(a) + "/" +
                 std::to_string(max_attempts) + "): " + err.message);
            const unsigned delay_ms =
                std::min(100u << (a - 1), 2000u);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay_ms));
        }
    }
    return false;
}

/** True when stderr is an interactive terminal. */
bool
stderrIsTty()
{
#if defined(__unix__) || defined(__APPLE__)
    return ::isatty(::fileno(stderr)) != 0;
#else
    return false;
#endif
}

/**
 * Live sweep progress on stderr: one \r-rewritten line with
 * done/failed counts and an ETA extrapolated from the mean cell
 * time so far.  Gated by SDBP_PROGRESS (default: on iff stderr is a
 * TTY); single-cell "sweeps" stay silent.  Writes stderr only —
 * figure/table stdout stays byte-identical with the meter on or off.
 */
class ProgressMeter
{
  public:
    ProgressMeter(std::size_t total)
        : total_(total),
          enabled_(total > 1 &&
                   env::u64("SDBP_PROGRESS", stderrIsTty() ? 1 : 0, 0,
                            1) == 1),
          // Host-side ETA only, never simulated state:
          start_(std::chrono::steady_clock::now()) // sdbp-lint: allow(det-wallclock)
    {
    }

    ~ProgressMeter()
    {
        if (enabled_ && done_ > 0)
            std::fputc('\n', stderr);
    }

    /** One cell finished (any outcome); repaints the line. */
    void update(bool failed)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        ++done_;
        if (failed)
            ++failed_;
        const double elapsed = secondsSince(start_);
        const double eta = elapsed / static_cast<double>(done_) *
            static_cast<double>(total_ - done_);
        std::fprintf(stderr,
                     "\r[sweep] %zu/%zu cells done, %zu failed, "
                     "ETA %.0fs ",
                     done_, total_, failed_, eta);
        std::fflush(stderr);
    }

  private:
    const std::size_t total_;
    const bool enabled_;
    const std::chrono::steady_clock::time_point start_;
    std::mutex mutex_;
    std::size_t done_ = 0;
    std::size_t failed_ = 0;
};

} // anonymous namespace

unsigned
defaultJobs()
{
    const std::uint64_t jobs = env::u64("SDBP_JOBS", 0, 1, 4096);
    if (jobs > 0)
        return static_cast<unsigned>(jobs);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

unsigned
defaultRetries()
{
    return static_cast<unsigned>(env::u64("SDBP_RETRIES", 0, 0, 16));
}

void
installShutdownHandler()
{
    std::signal(SIGINT, sweepSignalHandler);
    std::signal(SIGTERM, sweepSignalHandler);
}

void
requestShutdown()
{
    g_shutdown.store(true, std::memory_order_relaxed);
}

bool
shutdownRequested()
{
    return g_shutdown.load(std::memory_order_relaxed);
}

void
resetShutdown()
{
    g_shutdown.store(false, std::memory_order_relaxed);
}

SweepOptions
SweepOptions::fromEnvironment()
{
    SweepOptions opts;
    opts.jobs = defaultJobs();
    opts.retries = defaultRetries();
    opts.resume = env::u64("SDBP_RESUME", 0, 0, 1) == 1;
    return opts;
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    util::ThreadPool pool(workers);
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        futures.push_back(pool.submit([&fn, i] { fn(i); }));
    // Drain every future, then fail with the lowest-index error so a
    // parallel sweep reports the same failure the serial loop would.
    std::exception_ptr first;
    for (auto &f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first)
                first = std::current_exception();
        }
    }
    if (first)
        std::rethrow_exception(first);
}

std::string
cellArtifactPath(const std::string &base, const std::string &run,
                 const std::string &policy)
{
    const std::string suffix = "." + slug(run) + "." + slug(policy);
    const auto slash = base.find_last_of('/');
    const auto dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + suffix;
    return base.substr(0, dot) + suffix + base.substr(dot);
}

namespace
{

/**
 * Per-cell copy of cfg.  A multi-cell sweep rewrites any artifact
 * paths via cellArtifactPath so concurrent cells never share an
 * output file; a single cell keeps the caller's exact paths.
 */
RunConfig
cellConfig(const RunConfig &cfg, bool multi_cell,
           const std::string &run, const std::string &policy)
{
    if (!multi_cell)
        return cfg;
    RunConfig out = cfg;
    if (!out.obs.statsJsonPath.empty())
        out.obs.statsJsonPath =
            cellArtifactPath(out.obs.statsJsonPath, run, policy);
    if (!out.obs.timelineCsvPath.empty())
        out.obs.timelineCsvPath =
            cellArtifactPath(out.obs.timelineCsvPath, run, policy);
    if (!out.obs.traceJsonlPath.empty())
        out.obs.traceJsonlPath =
            cellArtifactPath(out.obs.traceJsonlPath, run, policy);
    return out;
}

/** What the cell lifecycle needs to know about one kind of row. */
template <typename Row>
struct RowTraits;

/** Single-core rows: one benchmark each. */
template <>
struct RowTraits<std::string>
{
    static constexpr const char *kKind = "grid";

    static const std::string &name(const std::string &b) { return b; }

    static RunResult
    run(const std::string &benchmark, PolicyKind kind,
        const RunConfig &cfg)
    {
        return runSingleCore(benchmark, kind, cfg);
    }

    static void
    label(RunResult &r, const std::string &run, const std::string &pol)
    {
        r.benchmark = run;
        r.policy = pol;
    }

    /** In-memory payloads (the LLC reference trace, per-frame
     *  efficiency) are not checkpointed, so such grids must re-run. */
    static bool
    checkpointable(const RunConfig &cfg)
    {
        return !cfg.recordLlcTrace && !cfg.trackEfficiency;
    }
};

/** Multi-core rows: one mix each. */
template <>
struct RowTraits<MixProfile>
{
    static constexpr const char *kKind = "mix_grid";

    static const std::string &name(const MixProfile &m) { return m.name; }

    static MulticoreRunResult
    run(const MixProfile &mix, PolicyKind kind, const RunConfig &cfg)
    {
        return runMulticore(mix, kind, cfg);
    }

    static void
    label(MulticoreRunResult &r, const std::string &run,
          const std::string &pol)
    {
        r.mix = run;
        r.policy = pol;
    }

    /** runMulticore never records the in-memory payloads that make a
     *  grid non-resumable (it ignores cfg.recordLlcTrace and
     *  cfg.trackEfficiency), so every mix grid checkpoints fully.
     *  See SweepResilienceTest.MixGridResumeIgnoresArtifactFlags. */
    static bool checkpointable(const RunConfig &) { return true; }
};

/**
 * The one grid executor.  Every cell goes through the same lifecycle
 * — resume from the manifest, skip on shutdown, run with retries,
 * checkpoint, span — on the in-process pool.
 */
template <typename Row, typename Result>
void
runCells(CellGrid<Result> &grid, const std::vector<Row> &rows,
         const RunConfig &cfg, const SweepOptions &opts)
{
    using Traits = RowTraits<Row>;
    grid.jobs = opts.jobs ? opts.jobs : defaultJobs();
    const std::size_t cols = grid.policies.size();
    const std::size_t n = rows.size() * cols;
    grid.cells.resize(n);

    std::vector<std::string> run_names;
    run_names.reserve(rows.size());
    for (const Row &row : rows)
        run_names.push_back(Traits::name(row));
    std::vector<std::string> policy_names;
    policy_names.reserve(cols);
    for (const PolicyKind kind : grid.policies)
        policy_names.push_back(policyName(kind));
    const auto cellName = [&](std::size_t i) {
        return run_names[i / cols] + "/" + policy_names[i % cols];
    };

    const bool checkpointable = Traits::checkpointable(cfg);
    std::unique_ptr<SweepManifest> manifest;
    bool resume = false;
    if (!opts.manifestPath.empty()) {
        manifest = std::make_unique<SweepManifest>(
            opts.manifestPath, Traits::kKind, run_names, policy_names,
            cfg);
        resume = opts.resume && checkpointable;
        if (opts.resume && !checkpointable)
            warn("sweep records in-memory artifacts; ignoring resume "
                 "and re-running every cell");
        if (resume)
            manifest->loadCompleted();
        // Persist the initial state so an interrupt before the first
        // cell completes still leaves a well-formed checkpoint.
        manifest->flush();
    }

    obs::SpanTracer &tracer = obs::SpanTracer::global();
    ProgressMeter progress(n);
    const auto start = std::chrono::steady_clock::now();

    // Cells holding a real result (restored or run); written per
    // index, so concurrent pool tasks never share an element.
    std::vector<char> done(n, 0);
    for (std::size_t i = 0; resume && i < n; ++i) {
        if (!manifest->isCompleted(i))
            continue;
        obs::fromJson(manifest->completedMetrics(i), grid.cells[i]);
        done[i] = 1;
        ++grid.resumed;
        tracer.span("cell", cellName(i)).setResumed();
        progress.update(false);
    }

    std::mutex book_mutex;
    parallelFor(n, grid.jobs, [&](std::size_t i) {
        if (done[i])
            return;
        auto span = tracer.span("cell", cellName(i));
        if (shutdownRequested()) {
            if (manifest)
                manifest->markSkipped(i);
            span.setSkipped();
            progress.update(false);
            std::lock_guard<std::mutex> lock(book_mutex);
            ++grid.skipped;
            return;
        }

        CellError err;
        err.index = i;
        err.run = run_names[i / cols];
        err.policy = policy_names[i % cols];
        const bool ok = runWithRetries(
            opts.retries,
            [&] {
                grid.cells[i] = Traits::run(
                    rows[i / cols], grid.policies[i % cols],
                    cellConfig(cfg, n > 1, err.run, err.policy));
            },
            err);
        span.setAttempts(err.attempts);
        if (ok) {
            done[i] = 1;
            if (manifest)
                manifest->markCompleted(i, obs::toJson(grid.cells[i]));
            progress.update(false);
            return;
        }
        span.setFailed(err.timedOut);
        progress.update(true);
        if (manifest)
            manifest->markFailed(err);
        std::lock_guard<std::mutex> lock(book_mutex);
        grid.errors.push_back(std::move(err));
    });
    // Pool tasks push errors in completion order; report them in
    // cell order, as the serial loop would.
    std::sort(grid.errors.begin(), grid.errors.end(),
              [](const CellError &a, const CellError &b) {
                  return a.index < b.index;
              });
    grid.wallSeconds = secondsSince(start);

    for (std::size_t i = 0; i < n; ++i) {
        if (done[i])
            continue;
        grid.cells[i] = Result{};
        Traits::label(grid.cells[i], run_names[i / cols],
                      policy_names[i % cols]);
    }
}

} // anonymous namespace

Grid
runGrid(std::vector<std::string> benchmarks,
        std::vector<PolicyKind> policies, const RunConfig &cfg,
        const SweepOptions &opts)
{
    Grid grid;
    grid.benchmarks = std::move(benchmarks);
    grid.policies = std::move(policies);
    runCells(grid, grid.benchmarks, cfg, opts);
    return grid;
}

MixGrid
runMixGrid(std::vector<MixProfile> mixes,
           std::vector<PolicyKind> policies, const RunConfig &cfg,
           const SweepOptions &opts)
{
    MixGrid grid;
    grid.mixes = std::move(mixes);
    grid.policies = std::move(policies);
    runCells(grid, grid.mixes, cfg, opts);
    return grid;
}

} // namespace sdbp::sweep
