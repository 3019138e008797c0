#include "util/perf_counters.hh"

#include "util/env.hh"

#if defined(__linux__) && __has_include(<linux/perf_event.h>)
#define SDBP_HAVE_PERF_EVENT 1
#include <cstring>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define SDBP_HAVE_PERF_EVENT 0
#endif

namespace sdbp::util
{

#if SDBP_HAVE_PERF_EVENT

namespace
{

long
perfEventOpen(perf_event_attr *attr, pid_t pid, int cpu, int group_fd,
              unsigned long flags)
{
    return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd,
                   flags);
}

/** Open one hardware counter in @p group_fd's group (-1 = leader). */
int
openCounter(std::uint32_t config, int group_fd, std::uint64_t *id)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.type = PERF_TYPE_HARDWARE;
    attr.size = sizeof(attr);
    attr.config = config;
    if (group_fd < 0)
        attr.disabled = 1;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    attr.read_format =
        PERF_FORMAT_GROUP | PERF_FORMAT_ID;
    const int fd = static_cast<int>(
        perfEventOpen(&attr, 0, -1, group_fd, 0));
    if (fd >= 0 && id)
        ioctl(fd, PERF_EVENT_IOC_ID, id);
    return fd;
}

} // anonymous namespace

PerfCounters::PerfCounters()
{
    fd_ = openCounter(PERF_COUNT_HW_CPU_CYCLES, -1, &idCycles_);
    if (fd_ < 0)
        return;
    // Siblings are optional: a PMU with fewer programmable counters
    // (or one that lacks an LLC event) still yields cycles and
    // whatever else fit; missing members read as zero.
    fdInst_ =
        openCounter(PERF_COUNT_HW_INSTRUCTIONS, fd_, &idInst_);
    fdLlc_ = openCounter(PERF_COUNT_HW_CACHE_MISSES, fd_, &idLlc_);
    fdBranch_ =
        openCounter(PERF_COUNT_HW_BRANCH_MISSES, fd_, &idBranch_);
}

PerfCounters::~PerfCounters()
{
    for (const int fd : {fdBranch_, fdLlc_, fdInst_, fd_})
        if (fd >= 0)
            close(fd);
}

void
PerfCounters::start()
{
    if (fd_ < 0)
        return;
    ioctl(fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
    ioctl(fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
}

void
PerfCounters::stop()
{
    if (fd_ < 0)
        return;
    ioctl(fd_, PERF_EVENT_IOC_DISABLE, PERF_IOC_FLAG_GROUP);
}

PerfCounters::Sample
PerfCounters::sample() const
{
    Sample s;
    if (fd_ < 0)
        return s;
    // PERF_FORMAT_GROUP | PERF_FORMAT_ID layout:
    //   u64 nr; { u64 value; u64 id; } values[nr];
    struct
    {
        std::uint64_t nr;
        struct
        {
            std::uint64_t value;
            std::uint64_t id;
        } values[4];
    } buf{};
    const ssize_t n = read(fd_, &buf, sizeof(buf));
    if (n < static_cast<ssize_t>(sizeof(std::uint64_t)))
        return s;
    s.valid = true;
    for (std::uint64_t i = 0; i < buf.nr && i < 4; ++i) {
        const std::uint64_t id = buf.values[i].id;
        const std::uint64_t v = buf.values[i].value;
        if (id == idCycles_)
            s.cycles = v;
        else if (fdInst_ >= 0 && id == idInst_)
            s.instructions = v;
        else if (fdLlc_ >= 0 && id == idLlc_)
            s.llcMisses = v;
        else if (fdBranch_ >= 0 && id == idBranch_)
            s.branchMisses = v;
    }
    return s;
}

#else // !SDBP_HAVE_PERF_EVENT

PerfCounters::PerfCounters() = default;
PerfCounters::~PerfCounters() = default;

void
PerfCounters::start()
{
}

void
PerfCounters::stop()
{
}

PerfCounters::Sample
PerfCounters::sample() const
{
    return {};
}

#endif // SDBP_HAVE_PERF_EVENT

bool
hostCountersEnabled()
{
    static const bool enabled = env::u64("SDBP_PERF", 1, 0, 1) == 1;
    return enabled;
}

} // namespace sdbp::util
