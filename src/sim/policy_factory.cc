#include "sim/policy_factory.hh"

#include <algorithm>
#include <cctype>
#include <type_traits>

#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/random_repl.hh"
#include "cache/plru.hh"
#include "cache/rrip.hh"
#include "predictor/counting.hh"
#include "predictor/sampling_counting.hh"
#include "predictor/aip.hh"
#include "predictor/burst_trace.hh"
#include "predictor/reftrace.hh"
#include "predictor/time_based.hh"
#include "sim/engine.hh"
#include "util/logging.hh"

namespace sdbp
{

std::string
policyName(PolicyKind kind)
{
    switch (kind) {
      case PolicyKind::Lru:
        return "LRU";
      case PolicyKind::Random:
        return "Random";
      case PolicyKind::Dip:
        return "DIP";
      case PolicyKind::Tadip:
        return "TADIP";
      case PolicyKind::Rrip:
        return "RRIP";
      case PolicyKind::Sampler:
        return "Sampler";
      case PolicyKind::Tdbp:
        return "TDBP";
      case PolicyKind::Cdbp:
        return "CDBP";
      case PolicyKind::RandomSampler:
        return "Random Sampler";
      case PolicyKind::RandomCdbp:
        return "Random CDBP";
      case PolicyKind::SamplingCounting:
        return "Sampling CDBP";
      case PolicyKind::TreePlru:
        return "Tree-PLRU";
      case PolicyKind::Nru:
        return "NRU";
      case PolicyKind::Lip:
        return "LIP";
      case PolicyKind::Aip:
        return "AIP";
      case PolicyKind::TimeDbp:
        return "TimeDBP";
      case PolicyKind::BurstDbp:
        return "BurstDBP";
    }
    return "?";
}

const std::vector<PolicyKind> &
allPolicyKinds()
{
    static const std::vector<PolicyKind> kinds = {
        PolicyKind::Lru,           PolicyKind::Random,
        PolicyKind::Dip,           PolicyKind::Tadip,
        PolicyKind::Rrip,          PolicyKind::Sampler,
        PolicyKind::Tdbp,          PolicyKind::Cdbp,
        PolicyKind::RandomSampler, PolicyKind::RandomCdbp,
        PolicyKind::SamplingCounting,
        PolicyKind::TreePlru,      PolicyKind::Nru,
        PolicyKind::Lip,           PolicyKind::Aip,
        PolicyKind::TimeDbp,       PolicyKind::BurstDbp,
    };
    return kinds;
}

namespace
{

/** Lower-case with separators (space/dash/underscore) removed. */
std::string
canonicalPolicyName(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        if (c == ' ' || c == '-' || c == '_')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

} // anonymous namespace

std::optional<PolicyKind>
parsePolicyKind(const std::string &name)
{
    const std::string want = canonicalPolicyName(name);
    if (want.empty())
        return std::nullopt;
    for (const PolicyKind kind : allPolicyKinds())
        if (canonicalPolicyName(policyName(kind)) == want)
            return kind;
    return std::nullopt;
}

namespace
{

/** opts.sdbp if set, else the paper default; llcSets pinned either way. */
SdbpConfig
resolveSdbpConfig(std::uint32_t num_sets, const PolicyOptions &opts)
{
    SdbpConfig cfg = opts.sdbp ? *opts.sdbp
                               : SdbpConfig::paperDefault(num_sets);
    cfg.llcSets = num_sets;
    return cfg;
}

/** A predictor configuration at its defaults, sized for the LLC. */
template <class Cfg>
Cfg
forLlc(std::uint32_t num_sets)
{
    Cfg cfg;
    cfg.llcSets = num_sets;
    return cfg;
}

/**
 * DBRB over @p inner and a Pred built for the inner policy's geometry
 * from @p pred_cfg (none: the predictor's defaults).  The predictor
 * is constructed after the inner policy, so their arena lanes sit in
 * walk order (DESIGN.md §15).
 */
template <class Pred, class Inner, class... Cfg>
std::unique_ptr<BasicDeadBlockPolicy<Inner, Pred>>
dbrb(std::unique_ptr<Inner> inner, const PolicyOptions &opts,
     const Cfg &...pred_cfg)
{
    auto pred = std::make_unique<Pred>(inner->numSets(), inner->assoc(),
                                       pred_cfg...);
    return std::make_unique<BasicDeadBlockPolicy<Inner, Pred>>(
        std::move(inner), std::move(pred), opts.dbrb);
}

/**
 * Build the LLC policy of @p kind as its concrete type P and return
 * f(std::unique_ptr<P>).  P is a final policy class, or
 * BasicDeadBlockPolicy<Inner, Pred> over final classes for the DBRB
 * kinds (Table V), so the caller decides from the type alone how to
 * host it.  The only switch over PolicyKind that constructs policies.
 */
template <class F>
auto
visitPolicy(PolicyKind kind, std::uint32_t sets, std::uint32_t assoc,
            const PolicyOptions &opts, F &&f)
{
    const auto lru = [&] {
        return std::make_unique<LruPolicy>(sets, assoc);
    };
    const auto random = [&] {
        return std::make_unique<RandomPolicy>(sets, assoc, opts.seed);
    };
    const auto dip = [&](DipConfig cfg) {
        cfg.seed = opts.seed;
        return std::make_unique<DipPolicy>(sets, assoc, cfg);
    };

    switch (kind) {
      case PolicyKind::Lru:
        return f(lru());
      case PolicyKind::Random:
        return f(random());
      case PolicyKind::Dip:
        return f(dip({}));
      case PolicyKind::Tadip: {
        DipConfig cfg;
        cfg.numThreads = std::max<std::uint32_t>(2, opts.numThreads);
        return f(dip(cfg));
      }
      case PolicyKind::Lip: {
        // LIP: every fill goes to the LRU position.
        DipConfig cfg;
        cfg.staticBip = true;
        cfg.bipEpsilonDenom = 1u << 30; // never insert at MRU
        return f(dip(cfg));
      }
      case PolicyKind::Rrip: {
        RripConfig cfg;
        cfg.numThreads = opts.numThreads;
        cfg.seed = opts.seed;
        return f(std::make_unique<RripPolicy>(sets, assoc, cfg));
      }
      case PolicyKind::TreePlru:
        return f(std::make_unique<TreePlruPolicy>(sets, assoc));
      case PolicyKind::Nru:
        return f(std::make_unique<NruPolicy>(sets, assoc));
      case PolicyKind::Sampler:
        return f(dbrb<SamplingDeadBlockPredictor>(
            lru(), opts, resolveSdbpConfig(sets, opts)));
      case PolicyKind::Tdbp:
        return f(dbrb<RefTracePredictor>(lru(), opts));
      case PolicyKind::Cdbp:
        return f(dbrb<CountingPredictor>(lru(), opts));
      case PolicyKind::RandomSampler:
        return f(dbrb<SamplingDeadBlockPredictor>(
            random(), opts, resolveSdbpConfig(sets, opts)));
      case PolicyKind::RandomCdbp:
        return f(dbrb<CountingPredictor>(random(), opts));
      case PolicyKind::SamplingCounting:
        return f(dbrb<SamplingCountingPredictor>(
            lru(), opts, forLlc<SamplingCountingConfig>(sets)));
      case PolicyKind::Aip:
        return f(dbrb<AipPredictor>(lru(), opts,
                                    forLlc<AipConfig>(sets)));
      case PolicyKind::TimeDbp:
        return f(dbrb<TimeBasedPredictor>(
            lru(), opts, forLlc<TimeBasedConfig>(sets)));
      case PolicyKind::BurstDbp:
        return f(dbrb<BurstTracePredictor>(
            lru(), opts, forLlc<BurstTraceConfig>(sets)));
    }
    fatal("visitPolicy: unknown policy kind");
}

/**
 * The compositions makeEngine seals into BasicSystem<P>: LRU, Random,
 * DIP/TADIP/LIP, RRIP and SDBP-DBRB over LRU or Random (DESIGN.md
 * §12).  Every other policy type runs on the type-erased System.
 */
template <class P>
constexpr bool kSealed =
    std::is_same_v<P, LruPolicy> || std::is_same_v<P, RandomPolicy> ||
    std::is_same_v<P, DipPolicy> || std::is_same_v<P, RripPolicy> ||
    std::is_same_v<P, BasicDeadBlockPolicy<LruPolicy,
                                           SamplingDeadBlockPredictor>> ||
    std::is_same_v<P, BasicDeadBlockPolicy<RandomPolicy,
                                           SamplingDeadBlockPredictor>>;

} // anonymous namespace

std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyOptions &opts)
{
    return visitPolicy(
        kind, num_sets, assoc, opts,
        []<class P>(std::unique_ptr<P> policy)
            -> std::unique_ptr<ReplacementPolicy> { return policy; });
}

Engine
makeEngine(PolicyKind kind, const HierarchyConfig &hcfg,
           const CoreConfig &ccfg, const PolicyOptions &opts)
{
    // Everything below — policy, predictor, caches — is built under
    // this scope, so every storage lane bump-allocates from the
    // engine's own arena, contiguous in construction (= walk) order.
    Engine e;
    e.arena = std::make_unique<Arena>();
    ArenaScope scope(*e.arena);
    e.system = visitPolicy(
        kind, hcfg.llc.numSets, hcfg.llc.assoc, opts,
        [&]<class P>(std::unique_ptr<P> policy)
            -> std::unique_ptr<SystemBase> {
            if constexpr (std::is_base_of_v<DeadBlockPolicyBase, P>) {
                e.dbrb = policy.get();
                e.predictor = &policy->predictor();
                e.faults = policy->faultInjector();
            }
            if constexpr (kSealed<P>)
                return std::make_unique<BasicSystem<P>>(
                    hcfg, ccfg, std::move(policy));
            else
                return std::make_unique<System>(hcfg, ccfg,
                                                std::move(policy));
        });
    return e;
}

const std::vector<PolicyKind> &
lruDefaultPolicies()
{
    static const std::vector<PolicyKind> v = {
        PolicyKind::Tdbp, PolicyKind::Cdbp, PolicyKind::Dip,
        PolicyKind::Rrip, PolicyKind::Sampler,
    };
    return v;
}

const std::vector<PolicyKind> &
randomDefaultPolicies()
{
    static const std::vector<PolicyKind> v = {
        PolicyKind::Random, PolicyKind::RandomCdbp,
        PolicyKind::RandomSampler,
    };
    return v;
}

const std::vector<PolicyKind> &
multicoreLruPolicies()
{
    static const std::vector<PolicyKind> v = {
        PolicyKind::Tdbp, PolicyKind::Cdbp, PolicyKind::Tadip,
        PolicyKind::Rrip, PolicyKind::Sampler,
    };
    return v;
}

} // namespace sdbp
