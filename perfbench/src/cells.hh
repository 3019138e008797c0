/**
 * @file
 * One benchmark cell: a fresh engine plus freshly seeded generators,
 * driven through the simulator's public entry points (makeEngine,
 * SyntheticWorkload, SystemBase::run), with its host-time split into
 * setup and run and its simulated outcome condensed into a digest.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/dead_block_policy.hh"
#include "sim/engine.hh"
#include "sim/runner.hh"
#include "spans.hh"
#include "trace/workload.hh"

namespace perfbench
{

/** What one cell simulates. */
struct CellSpec
{
    /** "456.hmmer/Sampler", "mix1/TADIP", ... */
    std::string label;
    /** The label's benchmark or mix part: cells of one group differ
     *  only in policy. */
    std::string group;
    /** One benchmark per core. */
    std::vector<std::string> benchmarks;
    sdbp::PolicyKind kind = sdbp::PolicyKind::Lru;
    /** Geometry and instruction budget (per core). */
    sdbp::RunConfig cfg;
    /** Workload seed; 0 keeps the profile seeds. */
    std::uint64_t seed = 0;

    std::uint32_t cores() const
    {
        return static_cast<std::uint32_t>(benchmarks.size());
    }
};

/** The profile seed of @p base mixed with the workload @p seed. */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed);

/** specProfile(@p bench) with mixSeed applied to its seed. */
sdbp::WorkloadProfile seededProfile(const std::string &bench,
                                    std::uint64_t seed);

/** The engine a cell runs on (geometry and thread count of @p spec). */
sdbp::Engine buildEngine(const CellSpec &spec,
                         sdbp::PolicyKind kind);

/** One freshly seeded generator per core of @p spec. */
std::vector<std::unique_ptr<sdbp::SyntheticWorkload>>
buildGenerators(const CellSpec &spec);

/** Simulated outcome of one cell, plus its host-time split. */
struct CellOutcome
{
    std::vector<sdbp::ThreadRunResult> threads;
    /** Every simulated instruction, warm-up and restarts included. */
    std::uint64_t simulatedInstructions = 0;
    sdbp::CacheStats llc;
    bool hasDbrb = false;
    sdbp::DbrbStats dbrb;
    std::uint64_t digest = 0;

    double engineS = 0;
    double generatorS = 0;
    /** SystemBase::run alone: warm-up plus measure. */
    double runS = 0;

    double setupS() const { return engineS + generatorS; }
    double nsPerInstr() const;
};

/** Digest of the simulated counters (cycles, IPC, LLC, DBRB). */
std::uint64_t digestOf(const CellOutcome &out);

/** The simulated part of a CellOutcome, read off @p eng after run(). */
CellOutcome collectOutcome(const sdbp::Engine &eng,
                           std::vector<sdbp::ThreadRunResult> threads);

/**
 * Build and run one cell; throws on a simulator error.  With @p spans,
 * records cell -> setup (engine, generators) -> run under id @p cell.
 */
CellOutcome runCell(const CellSpec &spec, SpanLog *spans = nullptr,
                    std::uint64_t cell = 0);

/**
 * Failure accounting: every cell execution is one attempt; a cell that
 * throws or fails any check is one failure.  Digests are pinned per
 * cell label on first sight, so every later repetition, traced or
 * not, must reproduce them bit for bit.
 */
class Tally
{
  public:
    /**
     * Check @p out of @p spec; returns true when the cell passed.
     * A non-empty @p failed_checks (from checks made elsewhere) fails
     * the cell too.
     */
    bool record(const CellSpec &spec, const CellOutcome &out,
                const std::string &failed_checks = {});
    /** Count a cell that threw (or failed outside record()). */
    void fail(const std::string &label, const std::string &why);
    /** Count a cell checked outside record() that passed. */
    void pass() { ++attempted_; }
    /** Pin @p digest for @p label; false when it disagrees. */
    bool pinDigest(const std::string &label, std::uint64_t digest);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }
    bool hasDigests() const { return !digests_.empty(); }
    /** Order-independent combination of every pinned digest. */
    std::uint64_t combinedDigest() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::uint64_t> digests_;
};

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
