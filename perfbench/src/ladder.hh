/**
 * @file
 * The layer ladder: one cell's host time taken apart outside-in.
 *
 *   trace   generator-only nextBatch over the records the cell consumed
 *   system  the System over those records with no generator behind it
 *           (SystemBase::simulate on one core; SystemBase::run over
 *           replayed batches on several, since simulate drives core 0)
 *   l1l2    the private L1/L2 caches alone, replaying the records and
 *           emitting the LLC stream (demands and dirty writebacks)
 *   llc     the cell's LLC (policy, predictor, DBRB wrapper) alone,
 *           replaying that stream; for DBRB cells also an LRU LLC over
 *           the same stream, so their difference is the DBRB cost
 *
 * trace + system should add up to the untraced cell; what they miss is
 * reported as the residual.  cpu = system - l1l2 - llc.
 */

#ifndef PERFBENCH_LADDER_HH
#define PERFBENCH_LADDER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cells.hh"
#include "spans.hh"

namespace perfbench
{

struct LadderResult
{
    /** Every simulated instruction of the cell. */
    std::uint64_t instructions = 0;

    double traceS = 0;
    double systemS = 0;
    double l1l2S = 0;
    double llcS = 0;
    /** LRU over the DBRB cell's LLC stream (DBRB cells only). */
    double llcInnerS = 0;

    std::uint64_t l1Accesses = 0, l1Hits = 0;
    std::uint64_t l2Accesses = 0, l2Hits = 0;
    /** LLC-only replay counters. */
    std::uint64_t llcDemand = 0, llcMisses = 0, llcWritebacks = 0;
    bool hasDbrb = false;
    sdbp::DbrbStats dbrb;

    /** Rungs whose outcome disagreed with the full simulation. */
    std::vector<std::string> mismatches;

    std::uint64_t llcOps() const { return llcDemand + llcWritebacks; }
};

/**
 * Run the ladder for @p spec.  @p reference is an untraced run of the
 * same cell: the recording run must reproduce its digest.  Rung spans
 * go to @p spans under @p parent.
 */
LadderResult runLadder(const CellSpec &spec,
                       const CellOutcome &reference, SpanLog &spans,
                       std::uint64_t cell, std::uint64_t parent);

} // namespace perfbench

#endif // PERFBENCH_LADDER_HH
