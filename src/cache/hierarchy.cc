#include "cache/hierarchy.hh"

#include "obs/stat_registry.hh"
#include "util/logging.hh"

namespace sdbp
{

HierarchyBase::HierarchyBase(const HierarchyConfig &cfg)
    : cfg_(cfg), prefetcher_(cfg.prefetch)
{
    if (cfg_.numCores == 0)
        fatal("hierarchy needs at least one core");
}

void
HierarchyBase::registerStats(obs::StatRegistry &reg) const
{
    for (std::uint32_t c = 0; c < cfg_.numCores; ++c) {
        const std::string core = "core" + std::to_string(c);
        l1View_[c]->registerStats(reg, core + ".l1");
        l2View_[c]->registerStats(reg, core + ".l2");
    }
    llcView_->registerStats(reg, "llc");
    reg.addCounter("mem.reads", &memReads_);
    reg.addCounter("mem.writes", &memWrites_);
}

void
HierarchyBase::recordLlcRef(const LlcRef &ref)
{
    llcTrace_->push_back(ref);
}

void
HierarchyBase::clearStats()
{
    for (CacheBase *c : l1View_)
        c->clearStats();
    for (CacheBase *c : l2View_)
        c->clearStats();
    llcView_->clearStats();
    memReads_ = 0;
    memWrites_ = 0;
    if (llcTrace_)
        llcTraceMark_ = llcTrace_->size();
}

} // namespace sdbp
