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
         {CellStatus::Pending, CellStatus::Completed, CellStatus::Failed,
          CellStatus::Skipped})
        if (s == name(c))
            return c;
    return std::nullopt;
}

namespace sweep
{

namespace
{

/** Fingerprints compare by their compact serialization: the JSON
 *  model has no equality, and both sides are written the same way. */
bool
sameFingerprint(const SweepFingerprint &a, const SweepFingerprint &b)
{
    return obs::toJson(a).dump(0) == obs::toJson(b).dump(0);
}

} // anonymous namespace

SweepManifest::SweepManifest(std::string path, std::string kind,
                             std::vector<std::string> runs,
                             std::vector<std::string> policies,
                             const RunConfig &cfg)
    : path_(std::move(path))
{
    file_.schema = kSchemaVersion;
    file_.kind = std::move(kind);
    file_.fingerprint = {std::move(runs), std::move(policies),
                         obs::toJson(cfg)};
    const SweepFingerprint &fp = file_.fingerprint;
    for (const std::string &run : fp.runs)
        for (const std::string &policy : fp.policies) {
            CellRecord c;
            c.run = run;
            c.policy = policy;
            file_.cells.push_back(std::move(c));
        }
}

std::size_t
SweepManifest::loadCompleted()
{
    bool ok = false;
    const std::string text = util::readFile(path_, &ok);
    if (!ok)
        return 0; // no checkpoint yet: fresh start

    std::string err;
    const auto doc = obs::JsonValue::parse(text, &err);
    if (!doc)
        fatal("sweep manifest " + path_ + " is not valid JSON (" +
              err + "); delete it to start fresh");
    // Check the schema before reading anything else: an older file's
    // fields mean something else, or nothing.
    const obs::JsonValue *schema = doc->find("schema");
    const std::uint64_t found = schema ? schema->asUInt() : 0;
    if (found != kSchemaVersion)
        fatal("sweep manifest " + path_ + " has schema " +
              std::to_string(found) + ", expected " +
              std::to_string(kSchemaVersion) +
              "; delete it to start fresh");
    const auto disk = obs::fromJson<ManifestFile>(*doc);
    if (disk.kind != file_.kind ||
        !sameFingerprint(disk.fingerprint, file_.fingerprint))
        fatal("sweep manifest " + path_ +
              " describes a different sweep (benchmarks, policies or "
              "run configuration changed); delete it to start fresh");
    if (disk.cells.size() != file_.cells.size())
        fatal("sweep manifest " + path_ + " has the wrong cell count");

    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t restored = 0;
    for (std::size_t i = 0; i < file_.cells.size(); ++i) {
        const CellRecord &c = disk.cells[i];
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
        c.error = err.message;
        c.timedOut = err.timedOut;
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
SweepManifest::flushLocked() const
{
    if (!util::atomicWriteFile(path_, obs::toJson(file_).dump(2) + "\n"))
        warn("cannot write sweep manifest " + path_);
}

} // namespace sweep
} // namespace sdbp
