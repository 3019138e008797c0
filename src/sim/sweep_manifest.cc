#include "sim/sweep_manifest.hh"

#include <optional>

#include "util/file.hh"
#include "util/logging.hh"

namespace sdbp
{

const char *
obs::JsonEnum<sweep::CellStatus>::name(sweep::CellStatus s)
{
    using sweep::CellStatus;
    switch (s) {
    case CellStatus::Pending: return "pending";
    case CellStatus::Leased: return "leased";
    case CellStatus::Completed: return "completed";
    case CellStatus::Failed: return "failed";
    case CellStatus::Skipped: return "skipped";
    }
    return "pending";
}

std::optional<sweep::CellStatus>
obs::JsonEnum<sweep::CellStatus>::parse(const std::string &s)
{
    using sweep::CellStatus;
    for (const CellStatus c :
         {CellStatus::Pending, CellStatus::Leased, CellStatus::Completed,
          CellStatus::Failed, CellStatus::Skipped})
        if (s == name(c))
            return c;
    return std::nullopt;
}

namespace sweep
{

namespace
{

/** Parse a manifest document; nullopt (with @p err) if not JSON. */
std::optional<ManifestFile>
parseManifest(const std::string &text, std::string &err)
{
    const auto doc = obs::JsonValue::parse(text, &err);
    if (!doc)
        return std::nullopt;
    return obs::fromJson<ManifestFile>(*doc);
}

/** Copy the failure fields of @p err into @p c. */
void
recordFailure(CellRecord &c, const CellError &err)
{
    c.error = err.message;
    c.timedOut = err.timedOut;
    c.crashed = err.crashed;
    c.signal = err.signal;
}

/**
 * A claimed cell's attempt failed: requeue it as Pending while lease
 * generations remain, else mark it Failed.  The error stays on a
 * requeued cell as a diagnostic.
 */
void
requeueOrFail(CellRecord &c, const CellError &err, unsigned max_attempts)
{
    c.attempts = static_cast<unsigned>(c.generation);
    c.lease = {};
    c.status = c.generation < max_attempts ? CellStatus::Pending
                                           : CellStatus::Failed;
    recordFailure(c, err);
}

/** Does (pid, generation) still own cell @p c's lease? */
bool
ownsLease(const CellRecord &c, std::int64_t pid, std::uint64_t generation)
{
    return c.status == CellStatus::Leased && c.lease.pid == pid &&
        c.generation == generation;
}

} // anonymous namespace

SweepManifest::SweepManifest(std::string path, std::string kind,
                             std::vector<std::string> runs,
                             std::vector<std::string> policies,
                             InstCount warmup, InstCount measure)
    : path_(std::move(path))
{
    file_.schema = kSchemaVersion;
    file_.kind = std::move(kind);
    file_.fingerprint = {std::move(runs), std::move(policies), warmup,
                         measure};
    const SweepFingerprint &fp = file_.fingerprint;
    for (const std::string &run : fp.runs)
        for (const std::string &policy : fp.policies) {
            CellRecord c;
            c.run = run;
            c.policy = policy;
            file_.cells.push_back(std::move(c));
        }
}

SweepManifest::SweepManifest(std::string path)
    : path_(std::move(path)), shared_(true)
{
    bool ok = false;
    const std::string text = util::readFile(path_, &ok);
    if (!ok)
        fatal("cannot read sweep manifest " + path_);
    std::string err;
    auto file = parseManifest(text, err);
    if (!file)
        fatal("sweep manifest " + path_ + " is not valid JSON (" + err +
              ")");
    file_ = std::move(*file);
}

std::size_t
SweepManifest::loadCompleted()
{
    bool ok = false;
    const std::string text = util::readFile(path_, &ok);
    if (!ok)
        return 0; // no checkpoint yet: fresh start

    std::string err;
    const auto disk = parseManifest(text, err);
    if (!disk)
        fatal("sweep manifest " + path_ + " is not valid JSON (" +
              err + "); delete it to start fresh");
    if (disk->schema != kSchemaVersion)
        fatal("sweep manifest " + path_ +
              " has an unsupported schema version");
    if (disk->kind != file_.kind ||
        !(disk->fingerprint == file_.fingerprint))
        fatal("sweep manifest " + path_ +
              " describes a different sweep (benchmarks, policies or "
              "instruction budget changed); delete it to start fresh");
    if (disk->cells.size() != file_.cells.size())
        fatal("sweep manifest " + path_ + " has the wrong cell count");

    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t restored = 0;
    for (std::size_t i = 0; i < file_.cells.size(); ++i) {
        const CellRecord &c = disk->cells[i];
        if (c.status != CellStatus::Completed || !c.metrics.isObject())
            continue;
        file_.cells[i].status = CellStatus::Completed;
        file_.cells[i].metrics = c.metrics;
        ++restored;
    }
    return restored;
}

bool
SweepManifest::isCompleted(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return file_.cells.at(index).status == CellStatus::Completed;
}

obs::JsonValue
SweepManifest::completedMetrics(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return file_.cells.at(index).metrics;
}

template <typename Fn>
void
SweepManifest::mutate(Fn &&fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::optional<util::FileLock> flk;
    if (shared_) {
        flk.emplace(path_ + ".lock");
        reloadLocked();
    }
    fn(file_.cells);
    flushLocked();
}

void
SweepManifest::markCompleted(std::size_t index, obs::JsonValue metrics)
{
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        c.status = CellStatus::Completed;
        c.metrics = std::move(metrics);
        c.error.clear();
    });
}

void
SweepManifest::markFailed(const CellError &err)
{
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(err.index);
        c.status = CellStatus::Failed;
        c.attempts = err.attempts;
        recordFailure(c, err);
        if (err.leaseGeneration > 0)
            c.generation = err.leaseGeneration;
    });
}

void
SweepManifest::markSkipped(std::size_t index)
{
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        if (c.status == CellStatus::Pending)
            c.status = CellStatus::Skipped;
    });
}

void
SweepManifest::flush()
{
    std::lock_guard<std::mutex> lock(mutex_);
    flushLocked();
}

void
SweepManifest::shareWithWorkers(const RunConfig &cfg,
                                std::vector<MixProfile> mixes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    file_.config = cfg;
    file_.mixes = std::move(mixes);
    flushLocked();
    shared_ = true;
}

std::optional<SweepManifest::Claim>
SweepManifest::tryClaim(std::int64_t pid, std::uint64_t now_ms,
                        std::uint64_t ttl_ms)
{
    std::optional<Claim> claim;
    mutate([&](std::vector<CellRecord> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            CellRecord &c = cells[i];
            const bool stale = c.status == CellStatus::Leased &&
                now_ms > c.lease.heartbeatMs &&
                now_ms - c.lease.heartbeatMs > ttl_ms;
            if (c.status != CellStatus::Pending && !stale)
                continue;
            if (stale)
                warn("reclaiming stale lease on cell " +
                     std::to_string(i) + " (worker pid " +
                     std::to_string(c.lease.pid) +
                     " stopped heartbeating)");
            c.status = CellStatus::Leased;
            c.lease = {pid, now_ms, now_ms};
            ++c.generation;
            claim = Claim{i, c.generation};
            return;
        }
    });
    return claim;
}

void
SweepManifest::heartbeat(std::size_t index, std::int64_t pid,
                         std::uint64_t generation, std::uint64_t now_ms)
{
    // Reclaimed from under the caller: nothing to refresh.
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        if (ownsLease(c, pid, generation))
            c.lease.heartbeatMs = now_ms;
    });
}

void
SweepManifest::completeClaimed(std::size_t index, std::int64_t pid,
                               std::uint64_t generation,
                               obs::JsonValue metrics,
                               std::uint64_t started_ms,
                               std::uint64_t finished_ms)
{
    // Reclaimed: the new owner's result wins.
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        if (!ownsLease(c, pid, generation))
            return;
        c.status = CellStatus::Completed;
        c.metrics = std::move(metrics);
        c.attempts = static_cast<unsigned>(c.generation);
        recordFailure(c, {}); // clears an earlier attempt's failure
        c.lease = {};
        c.startedMs = started_ms;
        c.finishedMs = finished_ms;
        c.workerPid = pid;
    });
}

void
SweepManifest::failClaimed(std::size_t index, const CellError &err,
                           std::int64_t pid, std::uint64_t generation,
                           unsigned max_attempts,
                           std::uint64_t started_ms,
                           std::uint64_t finished_ms)
{
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        if (!ownsLease(c, pid, generation))
            return;
        c.startedMs = started_ms;
        c.finishedMs = finished_ms;
        c.workerPid = pid;
        requeueOrFail(c, err, max_attempts);
    });
}

void
SweepManifest::chargeCrash(std::size_t index, std::int64_t pid,
                           const std::string &message, int sig,
                           bool timed_out, unsigned max_attempts,
                           std::uint64_t now_ms)
{
    mutate([&](std::vector<CellRecord> &cells) {
        CellRecord &c = cells.at(index);
        // Completed/failed in-band, or reclaimed: not ours to charge.
        if (c.status != CellStatus::Leased || c.lease.pid != pid)
            return;
        CellError err;
        err.message = message;
        err.timedOut = timed_out;
        err.crashed = true;
        err.signal = sig;
        c.startedMs = c.lease.claimedMs;
        c.finishedMs = now_ms;
        c.workerPid = pid;
        requeueOrFail(c, err, max_attempts);
    });
}

void
SweepManifest::resetLeases()
{
    // Any lease or failure in the file predates this coordinator;
    // re-run those cells with a fresh budget, as the in-process
    // resume path does.
    mutate([](std::vector<CellRecord> &cells) {
        for (CellRecord &c : cells) {
            if (c.status == CellStatus::Completed)
                continue;
            CellRecord fresh;
            fresh.run = std::move(c.run);
            fresh.policy = std::move(c.policy);
            c = std::move(fresh);
        }
    });
}

void
SweepManifest::markSkippedPending()
{
    mutate([](std::vector<CellRecord> &cells) {
        for (CellRecord &c : cells)
            if (c.status == CellStatus::Pending)
                c.status = CellStatus::Skipped;
    });
}

std::vector<CellRecord>
SweepManifest::snapshotCells()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Read-only: tmp+rename keeps the file consistent without the
    // flock, so polling never contends with the workers.
    if (shared_)
        reloadLocked();
    return file_.cells;
}

void
SweepManifest::reloadLocked()
{
    bool ok = false;
    const std::string text = util::readFile(path_, &ok);
    if (!ok)
        fatal("sweep manifest " + path_ +
              " disappeared mid-sweep; cannot coordinate workers");
    std::string err;
    auto disk = parseManifest(text, err);
    if (!disk)
        fatal("sweep manifest " + path_ +
              " became invalid JSON mid-sweep (" + err + ")");
    if (disk->cells.size() != file_.cells.size())
        fatal("sweep manifest " + path_ +
              " changed cell count mid-sweep");
    // Only cell state changes once shared; the sweep description is
    // fixed, which keeps its unlocked accessors safe (and the cell
    // vector keeps its storage).
    for (std::size_t i = 0; i < file_.cells.size(); ++i)
        file_.cells[i] = std::move(disk->cells[i]);
}

void
SweepManifest::flushLocked() const
{
    if (!util::atomicWriteFile(path_, obs::toJson(file_).dump(2) + "\n"))
        warn("cannot write sweep manifest " + path_);
}

} // namespace sweep
} // namespace sdbp
