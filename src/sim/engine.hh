/**
 * @file
 * The hot-path engine: the System for a PolicyKind, built by the same
 * construction switch as makePolicy (visitPolicy, sim/policy_factory.cc)
 * and hosted according to the policy's concrete type (DESIGN.md §12).
 *
 * Eight kinds run on a sealed, fully devirtualized BasicSystem<P>:
 *
 *   LRU, Random          -> BasicSystem<LruPolicy>, <RandomPolicy>
 *   DIP, TADIP, LIP      -> BasicSystem<DipPolicy>
 *   RRIP                 -> BasicSystem<RripPolicy>
 *   Sampler (DBRB/SDBP)  -> BasicSystem<BasicDeadBlockPolicy<
 *                               LruPolicy, SamplingDeadBlockPredictor>>
 *   Random Sampler       -> same with RandomPolicy inside
 *
 * The other nine run on the type-erased System
 * (BasicSystem<ReplacementPolicy>), the extension point where
 * user-supplied policies and predictors plug in through the virtual
 * interfaces.  Their DBRB wrappers are still typed
 * BasicDeadBlockPolicy<Inner, Pred> over final classes, so inside
 * the wrapper the inner-policy and predictor calls are direct.
 */

#ifndef SDBP_SIM_ENGINE_HH
#define SDBP_SIM_ENGINE_HH

#include <memory>

#include "cpu/system.hh"
#include "sim/policy_factory.hh"
#include "util/arena.hh"

namespace sdbp
{

/**
 * A ready-to-run System plus typed views into its LLC policy stack
 * (non-owning, nullptr when the stack has no such part), so the
 * runner and tools reach DBRB stats, the predictor and fault
 * accounting without a dynamic_cast.
 */
struct Engine
{
    /**
     * The run's bump arena: every fixed-size storage lane of the
     * System below (cache lanes, policy recency lanes, sampler and
     * table storage) lives in this slab.  First member on purpose —
     * members destroy in reverse declaration order, so the arena
     * outlives the System and every lane it backs (DESIGN.md §15).
     */
    std::unique_ptr<Arena> arena;
    std::unique_ptr<SystemBase> system;
    /** The DBRB wrapper, when `kind` is a DBRB technique. */
    DeadBlockPolicyBase *dbrb = nullptr;
    /** The wrapped dead block predictor, when DBRB. */
    DeadBlockPredictor *predictor = nullptr;
    /** The fault injector, when fault injection is configured. */
    const fault::FaultInjector *faults = nullptr;
};

/** Build the System for @p kind. */
Engine makeEngine(PolicyKind kind, const HierarchyConfig &hcfg,
                  const CoreConfig &ccfg,
                  const PolicyOptions &opts = {});

} // namespace sdbp

#endif // SDBP_SIM_ENGINE_HH
