#include "sim/worker.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <spawn.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__APPLE__)
#include <mach-o/dyld.h>
#endif
extern char **environ;
#endif

#include "obs/span_tracer.hh"
#include "sim/sweep.hh"
#include "util/env.hh"
#include "util/file.hh"
#include "util/logging.hh"

namespace sdbp::sweep
{

namespace
{

std::atomic<bool> g_worker_capable{false};
std::atomic<bool> g_in_worker{false};

} // anonymous namespace

bool
workerCapable()
{
    return g_worker_capable.load(std::memory_order_relaxed);
}

bool
inWorkerProcess()
{
    return g_in_worker.load(std::memory_order_relaxed);
}

unsigned
defaultWorkers()
{
    return static_cast<unsigned>(env::u64("SDBP_WORKERS", 0, 0, 1024));
}

std::uint64_t
leaseTtlMs()
{
    return env::u64("SDBP_LEASE_TTL", 60, 1, 86400) * 1000u;
}

ChaosSpec
chaosSpec()
{
    ChaosSpec spec;
    const std::string raw = env::str("SDBP_TEST_CRASH_CELL");
    if (raw.empty())
        return spec;
    const auto colon = raw.find(':');
    bool ok = colon != std::string::npos && colon > 0;
    std::size_t index = 0;
    if (ok) {
        try {
            std::size_t used = 0;
            index = std::stoull(raw.substr(0, colon), &used);
            ok = used == colon;
        } catch (...) {
            ok = false;
        }
    }
    const std::string mode = ok ? raw.substr(colon + 1) : "";
    if (!ok ||
        (mode != "abort" && mode != "segv" && mode != "hang" &&
         mode != "exit1"))
        fatal("malformed SDBP_TEST_CRASH_CELL '" + raw +
              "' (expected <cell-index>:abort|segv|hang|exit1)");
    spec.enabled = true;
    spec.index = index;
    spec.mode = mode;
    return spec;
}

#if defined(__unix__) || defined(__APPLE__)

namespace
{

/** Absolute path of the running binary ("" when undiscoverable). */
std::string
selfExePath()
{
#if defined(__linux__)
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return buf;
#elif defined(__APPLE__)
    char buf[4096];
    std::uint32_t size = sizeof(buf);
    if (_NSGetExecutablePath(buf, &size) != 0)
        return {};
    return buf;
#else
    return {};
#endif
}

[[noreturn]] void
chaosCrash(const std::string &mode)
{
    warn("SDBP_TEST_CRASH_CELL firing: " + mode);
    if (mode == "abort")
        std::abort();
    if (mode == "segv")
        ::raise(SIGSEGV);
    if (mode == "exit1")
        std::_Exit(1);
    // "hang": a wedged cell that never reaches the cooperative
    // deadline check — only the coordinator's hard SIGKILL tier
    // (or a stale-lease reclaim... which the heartbeat thread
    // prevents, deliberately) can end it.
    for (;;)
        std::this_thread::sleep_for(std::chrono::seconds(1));
    std::abort(); // unreachable; placates [[noreturn]]
}

/**
 * Background lease refresher: while the worker's main thread runs a
 * cell, keep its lease heartbeat fresh so sibling workers don't
 * reclaim the cell as stale mid-run.
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(SweepManifest &manifest, std::int64_t pid,
                    std::uint64_t ttl_ms)
        : manifest_(manifest), pid_(pid),
          periodMs_(std::max<std::uint64_t>(500, ttl_ms / 4)),
          thread_([this] { run(); })
    {
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void
    watch(std::size_t index, std::uint64_t generation)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = true;
        index_ = index;
        generation_ = generation;
    }

    void
    unwatch()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        active_ = false;
    }

  private:
    void
    run()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!stop_) {
            cv_.wait_for(lock,
                         std::chrono::milliseconds(periodMs_),
                         [this] { return stop_; });
            if (stop_)
                return;
            if (!active_)
                continue;
            const std::size_t index = index_;
            const std::uint64_t generation = generation_;
            lock.unlock();
            manifest_.heartbeat(index, pid_, generation,
                                util::monotonicMs());
            lock.lock();
        }
    }

    SweepManifest &manifest_;
    const std::int64_t pid_;
    const std::uint64_t periodMs_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    bool active_ = false;
    std::size_t index_ = 0;
    std::uint64_t generation_ = 0;
    std::thread thread_;
};

/**
 * The worker protocol: attach to the coordinator's manifest, then
 * claim-run-report until no claimable cell remains.  Exits the
 * process; never returns to main().
 */
[[noreturn]] void
workerMain(const std::string &manifest_path)
{
    g_in_worker.store(true, std::memory_order_relaxed);
    installShutdownHandler();

    SweepManifest manifest(manifest_path);
    const SweepFingerprint &fp = manifest.fingerprint();
    const std::string where = "worker manifest " + manifest_path;
    if (manifest.kind() != "grid" && manifest.kind() != "mix_grid")
        fatal(where + " lacks a sweep fingerprint");
    if (fp.runs.empty() || fp.policies.empty() ||
        manifest.cellCount() != fp.runs.size() * fp.policies.size())
        fatal(where + " has an empty or inconsistent grid");
    if (!manifest.config())
        fatal(where + " carries no worker config — was this sweep "
                      "started by a multi-process coordinator?");
    for (const std::string &name : fp.policies)
        if (!parsePolicyKind(name))
            fatal(where + " names an unknown policy '" + name + "'");
    if (manifest.kind() == "mix_grid" &&
        manifest.mixes().size() != fp.runs.size())
        fatal(where + " lacks the mix benchmark lists");

    const unsigned max_attempts = defaultRetries() + 1;
    const std::uint64_t ttl = leaseTtlMs();
    const ChaosSpec chaos = chaosSpec();
    const std::int64_t pid = ::getpid();
    {
        // Scoped so the heartbeat thread joins before std::exit —
        // atexit must not race a thread touching the manifest.
        HeartbeatThread heartbeat(manifest, pid, ttl);

        while (!shutdownRequested()) {
            const auto claim =
                manifest.tryClaim(pid, util::monotonicMs(), ttl);
            if (!claim)
                break; // nothing claimable: drain and exit clean
            const std::size_t i = claim->index;
            heartbeat.watch(i, claim->generation);
            if (chaos.enabled && chaos.index == i)
                chaosCrash(chaos.mode);

            const std::uint64_t started = util::monotonicMs();
            CellError err;
            err.index = i;
            err.attempts = static_cast<unsigned>(claim->generation);
            err.leaseGeneration = claim->generation;
            if (auto metrics = runManifestCell(manifest, i, err)) {
                manifest.completeClaimed(i, pid, claim->generation,
                                         std::move(*metrics), started,
                                         util::monotonicMs());
            } else {
                warn("worker cell " + err.run + "/" + err.policy +
                     " failed (attempt " +
                     std::to_string(claim->generation) + "/" +
                     std::to_string(max_attempts) + "): " + err.message);
                manifest.failClaimed(i, err, pid, claim->generation,
                                     max_attempts, started,
                                     util::monotonicMs());
            }
            heartbeat.unwatch();
        }
    }
    std::exit(0);
}

/** "--sdbp-worker <manifest>" scan, shared by maybeWorkerMain. */
std::string
workerManifestArg(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--sdbp-worker") != 0)
            continue;
        if (i + 1 >= argc)
            fatal("--sdbp-worker needs a manifest path");
        return argv[i + 1];
    }
    return {};
}

} // anonymous namespace

void
maybeWorkerMain(int argc, char **argv)
{
    g_worker_capable.store(true, std::memory_order_relaxed);
    const std::string manifest = workerManifestArg(argc, argv);
    if (!manifest.empty())
        workerMain(manifest); // exits; a worker never runs main()
}

namespace
{

/** One live worker subprocess under coordinator supervision. */
struct WorkerProc
{
    pid_t pid = -1;
    unsigned id = 0;
    std::chrono::steady_clock::time_point spawned;
};

bool
isTerminal(CellStatus s)
{
    return s == CellStatus::Completed || s == CellStatus::Failed ||
        s == CellStatus::Skipped;
}

/** Spawn one worker subprocess; -1 on failure.  The child's
 *  environment drops SDBP_WORKERS (workers never spawn workers) and
 *  pins SDBP_RETRIES to the coordinator's budget. */
pid_t
spawnWorker(const std::string &exe, const std::string &manifest_path,
            unsigned id, unsigned retries)
{
    std::vector<std::string> env_strings;
    for (char **e = environ; e && *e; ++e) {
        const std::string s = *e;
        if (s.rfind("SDBP_WORKERS=", 0) == 0 ||
            s.rfind("SDBP_WORKER_ID=", 0) == 0 ||
            s.rfind("SDBP_RETRIES=", 0) == 0)
            continue;
        env_strings.push_back(s);
    }
    env_strings.push_back("SDBP_WORKERS=0");
    env_strings.push_back("SDBP_WORKER_ID=" + std::to_string(id));
    env_strings.push_back("SDBP_RETRIES=" + std::to_string(retries));

    std::vector<char *> envp;
    envp.reserve(env_strings.size() + 1);
    for (std::string &s : env_strings)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    std::string arg_flag = "--sdbp-worker";
    std::string arg_exe = exe;
    std::string arg_manifest = manifest_path;
    char *argv[] = {arg_exe.data(), arg_flag.data(),
                    arg_manifest.data(), nullptr};

    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, exe.c_str(), nullptr, nullptr,
                                 argv, envp.data());
    if (rc != 0) {
        warn("cannot spawn sweep worker: " +
             std::string(std::strerror(rc)));
        return -1;
    }
    return pid;
}

std::string
describeDeath(int status, bool hard_timeout)
{
    if (hard_timeout)
        return "hard timeout: coordinator killed the worker after "
               "the cell exceeded SDBP_CELL_TIMEOUT plus grace";
    if (WIFSIGNALED(status))
        return std::string("worker died with signal ") +
            std::to_string(WTERMSIG(status)) + " (" +
            strsignal(WTERMSIG(status)) + ")";
    if (WIFEXITED(status))
        return "worker exited with code " +
            std::to_string(WEXITSTATUS(status));
    return "worker died";
}

} // anonymous namespace

FabricResult
superviseWorkers(SweepManifest &manifest, unsigned workers,
                 unsigned retries,
                 const std::function<void(bool)> &on_cell_done)
{
    FabricResult out;
    const std::string exe = selfExePath();
    if (exe.empty()) {
        warn("cannot locate own executable; running the sweep "
             "in-process instead of with SDBP_WORKERS");
        out.fallback = true;
        return out;
    }

    const unsigned max_attempts = retries + 1;
    const std::uint64_t timeout_s = env::u64("SDBP_CELL_TIMEOUT", 0);
    // Hard tier: cooperative deadline first, then SIGKILL after a
    // grace period (cells that hang before ever arming the deadline
    // are exactly the ones that need it).
    const std::uint64_t hard_ms = timeout_s > 0
        ? (timeout_s + std::max<std::uint64_t>(2, timeout_s / 4)) *
            1000u
        : 0;

    obs::SpanTracer &tracer = obs::SpanTracer::global();
    std::vector<WorkerProc> alive;
    unsigned next_id = 0;
    const auto spawn = [&]() {
        const pid_t pid =
            spawnWorker(exe, manifest.path(), next_id, retries);
        if (pid < 0)
            return false;
        alive.push_back(
            {pid, next_id,
             std::chrono::steady_clock::now()}); // sdbp-lint: allow(det-wallclock)
        ++next_id;
        return true;
    };

    auto views = manifest.snapshotCells();
    std::size_t nonterminal = 0;
    for (const auto &v : views)
        if (!isTerminal(v.status))
            ++nonterminal;
    const std::size_t want = std::min<std::size_t>(
        workers, std::max<std::size_t>(nonterminal, 1));
    for (std::size_t i = 0; i < want; ++i)
        spawn();
    if (alive.empty()) {
        warn("no sweep worker could be spawned; running in-process");
        out.fallback = true;
        return out;
    }

    // Cells already terminal here (restored by resume) were
    // accounted by the caller; only transitions fire on_cell_done.
    std::vector<CellStatus> last(views.size(), CellStatus::Pending);
    for (std::size_t i = 0; i < views.size(); ++i)
        last[i] = views[i].status;
    std::set<pid_t> killed_for_timeout;
    bool skip_marked = false;

    const auto emitWorkerSpan = [&](const WorkerProc &w) {
        if (!tracer.enabled())
            return;
        obs::SpanRecord rec;
        rec.category = "worker";
        rec.name = "worker-" + std::to_string(w.id);
        rec.workerPid = static_cast<std::uint32_t>(w.pid);
        tracer.emitInterval(
            std::move(rec), w.spawned,
            std::chrono::steady_clock::now()); // sdbp-lint: allow(det-wallclock)
    };

    for (;;) {
        // Reap: a dead worker charges only the cells it had leased.
        for (std::size_t w = 0; w < alive.size();) {
            int status = 0;
            const pid_t p = ::waitpid(alive[w].pid, &status, WNOHANG);
            if (p != alive[w].pid) {
                ++w;
                continue;
            }
            emitWorkerSpan(alive[w]);
            const bool crashed = WIFSIGNALED(status) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0);
            if (crashed) {
                const int sig =
                    WIFSIGNALED(status) ? WTERMSIG(status) : 0;
                const bool hard = killed_for_timeout.count(p) > 0;
                const std::string msg = describeDeath(status, hard);
                views = manifest.snapshotCells();
                for (std::size_t i = 0; i < views.size(); ++i)
                    if (views[i].status == CellStatus::Leased &&
                        views[i].lease.pid == p)
                        manifest.chargeCrash(i, p, msg, sig, hard,
                                             max_attempts,
                                             util::monotonicMs());
            }
            killed_for_timeout.erase(p);
            alive.erase(alive.begin() +
                        static_cast<std::ptrdiff_t>(w));
        }

        if (shutdownRequested() && !skip_marked) {
            manifest.markSkippedPending();
            skip_marked = true;
        }

        views = manifest.snapshotCells();
        std::size_t pending = 0;
        std::size_t leased = 0;
        bool all_terminal = true;
        const std::uint64_t now = util::monotonicMs();
        for (std::size_t i = 0; i < views.size(); ++i) {
            const auto &v = views[i];
            if (isTerminal(v.status)) {
                if (!isTerminal(last[i]))
                    on_cell_done(v.status == CellStatus::Failed);
            } else {
                all_terminal = false;
                if (v.status == CellStatus::Pending)
                    ++pending;
                else if (v.status == CellStatus::Leased)
                    ++leased;
            }
            last[i] = v.status;
            // Safety net: a lease whose owner is no longer one of
            // our children means the reap-time charge was missed
            // (e.g. waitpid errored); charge it now so the cell is
            // re-farmed instead of wedging the sweep.
            if (v.status == CellStatus::Leased) {
                const pid_t owner = static_cast<pid_t>(v.lease.pid);
                const bool owner_alive = std::any_of(
                    alive.begin(), alive.end(),
                    [owner](const WorkerProc &wp) {
                        return wp.pid == owner;
                    });
                if (!owner_alive)
                    manifest.chargeCrash(
                        i, owner,
                        "worker disappeared without reporting", 0,
                        false, max_attempts, now);
            }
            // Hard-timeout tier: SIGKILL the worker whose leased
            // cell outlived the cooperative deadline plus grace.
            if (hard_ms > 0 && v.status == CellStatus::Leased &&
                now > v.lease.claimedMs &&
                now - v.lease.claimedMs > hard_ms) {
                const pid_t owner = static_cast<pid_t>(v.lease.pid);
                const bool ours = std::any_of(
                    alive.begin(), alive.end(),
                    [owner](const WorkerProc &wp) {
                        return wp.pid == owner;
                    });
                if (ours && !killed_for_timeout.count(owner)) {
                    warn("cell " + v.run + "/" + v.policy +
                         " exceeded the hard timeout; killing "
                         "worker pid " + std::to_string(owner));
                    killed_for_timeout.insert(owner);
                    ::kill(owner, SIGKILL);
                }
            }
        }

        if (all_terminal && alive.empty())
            break;

        // Keep enough workers alive for the remaining runnable work
        // (one per pending or leased cell, capped at the requested
        // pool size); a worker that exits cleanly while cells are
        // pending — a crash requeued one after it drained — is
        // replaced.  Surplus workers exit 0 on their own.
        if (!shutdownRequested()) {
            const std::size_t target = std::min<std::size_t>(
                workers, pending + leased);
            while (pending > 0 && alive.size() < target) {
                if (!spawn())
                    break;
                --pending;
            }
        }

        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }

    for (std::size_t i = 0; i < views.size(); ++i) {
        const auto &v = views[i];
        if (v.status == CellStatus::Skipped)
            ++out.skipped;
        if (v.status != CellStatus::Failed)
            continue;
        CellError err;
        err.index = i;
        err.run = v.run;
        err.policy = v.policy;
        err.message = v.error;
        err.attempts = v.attempts;
        err.timedOut = v.timedOut;
        err.crashed = v.crashed;
        err.signal = v.signal;
        err.leaseGeneration = v.generation;
        out.errors.push_back(std::move(err));
    }

    // Mirror worker-executed cells into the span trace, annotated
    // with the executing pid and lease generation.  The lease
    // timestamps share the coordinator's monotonic clock domain, so
    // the intervals line up with the coordinator's own spans.
    if (tracer.enabled()) {
        for (std::size_t i = 0; i < views.size(); ++i) {
            const auto &v = views[i];
            if (v.startedMs == 0 || v.finishedMs < v.startedMs)
                continue;
            obs::SpanRecord rec;
            rec.category = "cell";
            rec.name = v.run + "/" + v.policy;
            rec.attempts = v.attempts;
            rec.failed = v.status == CellStatus::Failed;
            rec.timedOut = v.timedOut;
            rec.workerPid = static_cast<std::uint32_t>(v.workerPid);
            rec.leaseGeneration = v.generation;
            using namespace std::chrono;
            const auto toTp = [](std::uint64_t ms) {
                return steady_clock::time_point(
                    duration_cast<steady_clock::duration>(
                        milliseconds(ms)));
            };
            tracer.emitInterval(std::move(rec), toTp(v.startedMs),
                                toTp(v.finishedMs));
        }
    }
    return out;
}

#else // !unix: the fabric is unavailable; sweeps stay in-process.

void
maybeWorkerMain(int, char **)
{
    g_worker_capable.store(false, std::memory_order_relaxed);
}

FabricResult
superviseWorkers(SweepManifest &, unsigned, unsigned,
                 const std::function<void(bool)> &)
{
    warn("multi-process sweeps are unsupported on this platform; "
         "running in-process");
    FabricResult out;
    out.fallback = true;
    return out;
}

#endif

} // namespace sdbp::sweep
