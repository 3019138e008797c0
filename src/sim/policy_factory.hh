/**
 * @file
 * The LLC policies evaluated in the paper (Table V's legend): their
 * names, the figure line-ups, and construction.  policy_factory.cc
 * holds the one switch over PolicyKind that builds them
 * (visitPolicy), shared by makePolicy and makeEngine.
 */

#ifndef SDBP_SIM_POLICY_FACTORY_HH
#define SDBP_SIM_POLICY_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/dead_block_policy.hh"
#include "cache/policy.hh"
#include "core/sdbp.hh"

namespace sdbp
{

/** The techniques of Table V. */
enum class PolicyKind
{
    Lru,           ///< baseline LRU
    Random,        ///< baseline random
    Dip,           ///< dynamic insertion policy
    Tadip,         ///< thread-aware DIP (multi-core)
    Rrip,          ///< DRRIP (thread-aware when numThreads > 1)
    Sampler,       ///< DBRB w/ sampling predictor, default LRU
    Tdbp,          ///< DBRB w/ reftrace predictor, default LRU
    Cdbp,          ///< DBRB w/ counting predictor, default LRU
    RandomSampler, ///< DBRB w/ sampling predictor, default random
    RandomCdbp,    ///< DBRB w/ counting predictor, default random
    /**
     * Extension (paper Sec. VIII future work): counting predictor
     * trained through a decoupled sampler, default LRU.
     */
    SamplingCounting,
    TreePlru, ///< tree pseudo-LRU (realistic low-cost LRU substitute)
    Nru,      ///< not-recently-used
    Lip,      ///< LRU-insertion policy (DIP's static component)
    Aip,      ///< DBRB w/ access-interval predictor (Sec. II-A4)
    TimeDbp,  ///< DBRB w/ time-based predictor (Sec. II-A2)
    BurstDbp, ///< DBRB w/ cache-bursts reftrace (Sec. II-A3 / VIII)
};

struct PolicyOptions
{
    /** Number of hardware threads sharing the cache. */
    std::uint32_t numThreads = 1;
    /** Override the sampling predictor configuration (ablations). */
    std::optional<SdbpConfig> sdbp;
    /** DBRB wrapper knobs (bypass on/off etc.). */
    DeadBlockPolicyConfig dbrb;
    std::uint64_t seed = 0xbeef;
};

/** Display name used in result tables ("Sampler", "TDBP", ...). */
std::string policyName(PolicyKind kind);

/**
 * Parse a policy name as accepted on tool command lines: the display
 * name, case-insensitive, with spaces/dashes/underscores
 * interchangeable ("sampler", "random-cdbp", "Tree-PLRU").
 */
std::optional<PolicyKind> parsePolicyKind(const std::string &name);

/** Every PolicyKind, in declaration order (CLI help text). */
const std::vector<PolicyKind> &allPolicyKinds();

/**
 * Build an LLC policy instance.  DBRB kinds come back as a typed
 * BasicDeadBlockPolicy<Inner, Pred>; DeadBlockPolicyBase is their
 * common face (stats, predictor, inner policy).
 */
std::unique_ptr<ReplacementPolicy>
makePolicy(PolicyKind kind, std::uint32_t num_sets, std::uint32_t assoc,
           const PolicyOptions &opts = {});

/** Policies compared in Figs. 4/5 (LRU-default single core). */
const std::vector<PolicyKind> &lruDefaultPolicies();
/** Policies compared in Figs. 7/8 (random-default single core) and
 *  Fig. 10(b) (random-default multi-core). */
const std::vector<PolicyKind> &randomDefaultPolicies();
/** Policies compared in Fig. 10(a). */
const std::vector<PolicyKind> &multicoreLruPolicies();

} // namespace sdbp

#endif // SDBP_SIM_POLICY_FACTORY_HH
