#include "cpu/system.hh"

#include "obs/stat_registry.hh"

namespace sdbp
{

SystemBase::SystemBase(const HierarchyConfig &hcfg,
                       const CoreConfig &ccfg)
    : hcfg_(hcfg), ccfg_(ccfg),
      cores_(hcfg.numCores, CoreModel(ccfg)), batch_(hcfg.numCores)
{
}

void
SystemBase::checkDeadlineSlow(const char *phase)
{
    if (std::chrono::steady_clock::now() >= deadline_)
        throw SimulationTimeout(
            std::string("simulation deadline exceeded during ") +
            phase + " after " + std::to_string(tick_) + " ticks");
}

void
SystemBase::enableHostCounters()
{
    if (hostCounters_ || !util::hostCountersEnabled())
        return;
    hostCounters_ = std::make_unique<util::PerfCounters>();
    // Free-running from here on: each phase differences two readings.
    hostCounters_->start();
}

void
SystemBase::phaseBoundary(const char *next)
{
    const auto now = std::chrono::steady_clock::now();
    const util::PerfCounters::Sample host = hostCounters_
        ? hostCounters_->sample()
        : util::PerfCounters::Sample{};
    if (phaseOpen_) {
        obs::PhaseRecord &p = phases_.back();
        p.end = now;
        p.instructions = tick_ - p.instructions;
        p.host.valid = p.host.valid && host.valid;
        p.host.cycles = host.cycles - p.host.cycles;
        p.host.instructions = host.instructions - p.host.instructions;
        p.host.llcMisses = host.llcMisses - p.host.llcMisses;
        p.host.branchMisses = host.branchMisses - p.host.branchMisses;
    }
    phaseOpen_ = next != nullptr;
    if (phaseOpen_)
        phases_.push_back({next, now, now, tick_, host});
}

void
SystemBase::registerStats(obs::StatRegistry &reg) const
{
    reg.addCounter("sys.instructions", &tick_);
    for (std::uint32_t c = 0; c < hcfg_.numCores; ++c) {
        cores_[c].registerStats(reg,
                                "core" + std::to_string(c));
    }
    hierView_->registerStats(reg);
}

} // namespace sdbp
