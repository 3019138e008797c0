/**
 * @file
 * Single- and multi-core simulated system: cores drive their
 * workload generators through the shared hierarchy.  Implements the
 * paper's multi-core methodology (Sec. VI-A2): all programs run
 * simultaneously, and a program that finishes its instruction quota
 * restarts and keeps generating contention until every program has
 * finished; per-thread statistics freeze at first completion.  A
 * single-core run is the one-core case of that method: warm-up and
 * measurement both go through one phase loop (runPhase), and each
 * phase's quota counts from the instructions a core had executed when
 * the phase began, so a second run() on the same system warms up for
 * as long as the first.
 *
 * Split into SystemBase (the type-erased face: one virtual call per
 * run(), not per access) and BasicSystem<LlcP>, which stacks the
 * matching BasicHierarchy so the whole per-instruction loop —
 * generator batch, core timing, L1/L2/LLC walk, policy and predictor
 * hooks — compiles as one devirtualized unit.  `System` is the
 * type-erased alias.
 *
 * Generators are consumed in batches of Batch::kSize (256) records,
 * about 8 KiB, to amortize the virtual nextBatch() dispatch (a
 * generator's sole virtual primitive); after run() returns, a
 * generator's position is whatever the read-ahead left it at
 * (callers that reuse a generator must reset() it).  Batching changes no simulated outcome: records
 * are consumed in exactly the order a record-at-a-time loop would,
 * and pending read-ahead is discarded when a finished program
 * restarts.
 */

#ifndef SDBP_CPU_SYSTEM_HH
#define SDBP_CPU_SYSTEM_HH

#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "cache/hierarchy.hh"
#include "cpu/core_model.hh"
#include "obs/phase.hh"
#include "trace/access.hh"
#include "util/hotpath.hh"
#include "util/logging.hh"
#include "util/perf_counters.hh"
#include "util/stats.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

/**
 * Thrown by System::run when a configured deadline passes.  A
 * runaway cell (pathological configuration, scheduling stall) must
 * not wedge a whole sweep; the check is cooperative, so the System
 * is abandoned in a consistent state and the sweep engine can retry
 * or record the cell as failed.
 */
class SimulationTimeout : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Per-thread outcome of a run. */
struct ThreadRunResult
{
    InstCount instructions = 0;
    Cycle cycles = 0;
    double ipc = 0;
};

/**
 * LLC-policy-type-erased part of the system.  The engine holds a
 * SystemBase and pays one virtual dispatch per run()/simulate()
 * call; everything underneath is bound in the subclass.
 */
class SystemBase
{
  public:
    virtual ~SystemBase() = default;

    SystemBase(const SystemBase &) = delete;
    SystemBase &operator=(const SystemBase &) = delete;

    /**
     * Run every core for @p warmup instructions, clear the
     * statistics, then run every core for @p measure more; both
     * counts are relative to where each core stood when the call
     * began.
     *
     * @param gens one generator per core (not owned)
     */
    virtual std::vector<ThreadRunResult>
    run(const std::vector<AccessGenerator *> &gens, InstCount warmup,
        InstCount measure) = 0;

    /**
     * Drive core 0 through a pre-materialized trace from the current
     * state — the batched entry point for callers that already hold
     * records (replay tools, micro-benchmarks).  No warmup, no stats
     * clear, no generator involved.
     */
    virtual ThreadRunResult simulate(std::span<const Access> trace) = 0;

    HierarchyBase &hierarchy() { return *hierView_; }
    const HierarchyBase &hierarchy() const { return *hierView_; }

    /** Global tick (total instructions executed by all cores). */
    std::uint64_t tick() const { return tick_; }

    /**
     * Register "sys.instructions" (the global tick), every core's
     * counters ("coreN.*") and the whole hierarchy.
     */
    void registerStats(obs::StatRegistry &reg) const;

    /**
     * Fire @p callback every @p interval ticks during the
     * *measurement* phase of run() (the stats clear at the
     * warmup/measure boundary would break counter monotonicity if
     * warmup were included).  The callback also fires at the phase
     * boundaries, giving interval snapshots a baseline and a final
     * sample.  Costs one integer compare per step; interval 0
     * disables.
     */
    void
    setHeartbeat(std::uint64_t interval,
                 std::function<void(std::uint64_t)> callback)
    {
        heartbeatInterval_ = interval;
        heartbeat_ = std::move(callback);
    }

    /**
     * Sample host hardware counters at run()'s phase boundaries: one
     * perf_event group per system, opened here.  Honors the SDBP_PERF
     * gate; on a host without perf_event access every phase's
     * host.valid stays false.
     */
    void enableHostCounters();

    /**
     * The phases of the last run(), in order — "warmup" (when warmup
     * > 0), then "measure" — as run()'s phase clock recorded them.  A
     * phase a SimulationTimeout cut short is closed at the throw.
     */
    const std::vector<obs::PhaseRecord> &phases() const
    {
        return phases_;
    }

    /**
     * Abort run() with SimulationTimeout once wall clock passes
     * @p deadline.  Checked every few thousand steps (cooperative),
     * so the overshoot is bounded by milliseconds.
     */
    void setDeadline(std::chrono::steady_clock::time_point deadline)
    {
        deadline_ = deadline;
        hasDeadline_ = true;
    }

  protected:
    SystemBase(const HierarchyConfig &hcfg, const CoreConfig &ccfg);

    /**
     * run()'s phase clock (DESIGN.md §14).  enter() closes the open
     * phase and opens the next at one clock reading; destruction
     * closes the last phase, also while a SimulationTimeout unwinds.
     */
    class PhaseClock
    {
      public:
        explicit PhaseClock(SystemBase &sys) : sys_(sys)
        {
            sys_.phases_.clear();
        }
        PhaseClock(const PhaseClock &) = delete;
        PhaseClock &operator=(const PhaseClock &) = delete;
        ~PhaseClock() { sys_.phaseBoundary(nullptr); }

        void enter(const char *phase) { sys_.phaseBoundary(phase); }

      private:
        SystemBase &sys_;
    };

    /** Throw SimulationTimeout if the deadline passed (amortized:
     *  only looks at the clock every kDeadlineStride steps). */
    SDBP_HOT_PATH void
    checkDeadline(const char *phase)
    {
        // One branch per step in the common case; the clock is only
        // read every 32Ki steps.
        constexpr std::uint64_t kDeadlineStride = 1u << 15;
        if (!hasDeadline_ || ++deadlineTick_ % kDeadlineStride != 0)
            return;
        checkDeadlineSlow(phase);
    }

    /** Per-core read-ahead over the generator (see file comment).
     *  256 records (~8 KiB) amortizes the virtual nextBatch dispatch
     *  without evicting the simulated cache lanes from the host L1
     *  on every refill (a 1024-record batch alone is 32 KiB). */
    struct Batch
    {
        static constexpr std::size_t kSize = 256;
        std::vector<Access> records;
        std::size_t pos = 0;
        std::size_t fill = 0;
    };

    SDBP_HOT_PATH const Access &
    fetch(std::uint32_t c, AccessGenerator &gen)
    {
        Batch &b = batch_[c];
        if (b.pos == b.fill) {
            if (b.records.size() != Batch::kSize)
                b.records.resize(Batch::kSize);
            gen.nextBatch(std::span<Access>(b.records));
            b.pos = 0;
            b.fill = Batch::kSize;
        }
        // Stamp the issuing core on the record as it is handed out
        // (the hierarchy and every policy hook read the core from
        // it): one store to an already-hot line, instead of a
        // whole-batch stamping pass over cold memory.
        Access &r = b.records[b.pos++];
        r.thread = static_cast<ThreadId>(c);
        return r;
    }

    HierarchyConfig hcfg_;
    CoreConfig ccfg_;
    std::vector<CoreModel> cores_;
    std::vector<Batch> batch_;
    std::uint64_t tick_ = 0;
    /** Cycle at which the shared DRAM channel is next free. */
    Cycle memFree_ = 0;

    std::uint64_t heartbeatInterval_ = 0;
    std::function<void(std::uint64_t)> heartbeat_;

    bool hasDeadline_ = false;
    std::chrono::steady_clock::time_point deadline_;
    std::uint64_t deadlineTick_ = 0;

    /** Type-erased view of the subclass-owned hierarchy. */
    HierarchyBase *hierView_ = nullptr;

  private:
    void checkDeadlineSlow(const char *phase);

    /** Close the open phase (if any) and open @p next (nullptr:
     *  none) — the phase clock's one clock and counter reading. */
    void phaseBoundary(const char *next);

    /** While a phase is open, its record holds the tick and counter
     *  reading at its start; closing turns them into deltas. */
    std::vector<obs::PhaseRecord> phases_;
    std::unique_ptr<util::PerfCounters> hostCounters_;
    bool phaseOpen_ = false;
};

/**
 * The system with the LLC policy type bound at compile time.
 */
template <class LlcP>
class BasicSystem final : public SystemBase
{
  public:
    /**
     * @param hcfg hierarchy geometry (hcfg.numCores cores)
     * @param ccfg core model parameters
     * @param llc_policy replacement policy for the shared LLC
     */
    BasicSystem(const HierarchyConfig &hcfg, const CoreConfig &ccfg,
                std::unique_ptr<LlcP> llc_policy)
        : SystemBase(hcfg, ccfg),
          hierarchy_(hcfg, std::move(llc_policy))
    {
        hierView_ = &hierarchy_;
    }

    /** Typed accessor (shadows the HierarchyBase view). */
    BasicHierarchy<LlcP> &hierarchy() { return hierarchy_; }
    const BasicHierarchy<LlcP> &hierarchy() const
    {
        return hierarchy_;
    }

    /**
     * Batch read-ahead distance of the software prefetcher: while
     * access i simulates, the set lanes of access i+k are requested.
     * k must cover the per-record simulation latency (~20 host ns)
     * against the ~100 ns lane-miss it hides, without running so far
     * ahead that the hints are evicted before use; k = 8 measured
     * best on the bench host (DESIGN.md §15).  Hints never cross a
     * batch boundary, so no record is prefetched that the generator
     * has not already produced.
     */
    static constexpr std::size_t kPrefetchDistance = 8;

    std::vector<ThreadRunResult>
    run(const std::vector<AccessGenerator *> &gens, InstCount warmup,
        InstCount measure) override
    {
        if (gens.size() != hcfg_.numCores)
            fatal("System::run: need one generator per core");
        assert(measure > 0);

        // Fresh read-ahead: records buffered for a previous run()'s
        // generators must not leak into this one.
        batch_.assign(hcfg_.numCores, Batch{});
        PhaseClock phase_clock(*this);
        if (warmup > 0) {
            phase_clock.enter("warmup");
            runPhase(gens, warmup, nullptr);
            hierarchy_.clearStats();
        }
        phase_clock.enter("measure");
        std::vector<ThreadRunResult> results(hcfg_.numCores);
        runPhase(gens, measure, &results);
        return results;
    }

    ThreadRunResult
    simulate(std::span<const Access> trace) override
    {
        const InstCount start_insts = cores_[0].instructions();
        const Cycle start_cycles = cores_[0].cycles();
        for (std::size_t i = 0; i < trace.size(); ++i) {
            if (i + kPrefetchDistance < trace.size()) {
                hierarchy_.prefetchAhead(
                    trace[i + kPrefetchDistance].blockAddr(), 0);
            }
            Access stamped = trace[i];
            stamped.thread = 0;
            step(0, stamped);
            checkDeadline("simulate");
        }
        ThreadRunResult r;
        r.instructions = cores_[0].instructions() - start_insts;
        r.cycles = cores_[0].cycles() - start_cycles;
        r.ipc = ratio(static_cast<double>(r.instructions),
                      static_cast<double>(r.cycles));
        return r;
    }

  private:
    /**
     * Step every core until each has executed @p quota more
     * instructions.  The core with the smallest local clock goes
     * next, so a stalled core naturally issues fewer accesses (a
     * single core skips the scan).  In warm-up (@p measured null) a
     * core that reaches its quota stops.  In the measurement phase it
     * records its result, restarts its program (Sec. VI-A2) and stays
     * eligible, keeping up contention until every core has finished;
     * the heartbeat fires only here, where the counters just cleared
     * stay monotone across snapshots.
     */
    void
    runPhase(const std::vector<AccessGenerator *> &gens,
             InstCount quota, std::vector<ThreadRunResult> *measured)
    {
        const std::uint32_t n = hcfg_.numCores;
        const char *phase = measured ? "measure" : "warmup";
        constexpr InstCount kDone = std::numeric_limits<InstCount>::max();
        std::vector<InstCount> target(n);
        std::vector<Cycle> start_cycles(n);
        for (std::uint32_t c = 0; c < n; ++c) {
            target[c] = cores_[c].instructions() + quota;
            start_cycles[c] = cores_[c].cycles();
        }
        std::vector<bool> eligible(n, true);
        std::uint32_t unfinished = n;

        // The baseline sample anchors interval 0.
        const bool beats =
            measured && heartbeatInterval_ > 0 && heartbeat_;
        std::uint64_t next_beat =
            std::numeric_limits<std::uint64_t>::max();
        if (beats) {
            heartbeat_(tick_);
            next_beat = tick_ + heartbeatInterval_;
        }

        while (unfinished > 0) {
            std::uint32_t c = 0;
            if (n > 1) {
                Cycle best_cycles = std::numeric_limits<Cycle>::max();
                for (std::uint32_t k = 0; k < n; ++k) {
                    if (eligible[k] && cores_[k].cycles() < best_cycles) {
                        c = k;
                        best_cycles = cores_[k].cycles();
                    }
                }
            }
            step(c, fetchAndPrefetch(c, *gens[c]));
            checkDeadline(phase);
            if (tick_ >= next_beat) {
                heartbeat_(tick_);
                next_beat = tick_ + heartbeatInterval_;
            }
            if (cores_[c].instructions() < target[c])
                continue;
            --unfinished;
            if (!measured) {
                eligible[c] = false;
                continue;
            }
            ThreadRunResult &r = (*measured)[c];
            r.instructions = cores_[c].instructions() - (target[c] - quota);
            r.cycles = cores_[c].cycles() - start_cycles[c];
            r.ipc = ratio(static_cast<double>(r.instructions),
                          static_cast<double>(r.cycles));
            // Statistics freeze at first completion.  Drop the
            // read-ahead so the restarted stream begins at its
            // beginning, exactly as a record-at-a-time loop would
            // see it.
            target[c] = kDone;
            gens[c]->reset();
            batch_[c].pos = batch_[c].fill = 0;
        }
        if (beats)
            heartbeat_(tick_); // final partial interval
    }

    /**
     * Fetch the next record and, while its simulation is about to
     * run, request the set lanes record i+k of the same batch will
     * touch.  Issued here rather than in fetch() because the
     * prefetch targets live behind the bound hierarchy type.
     */
    SDBP_HOT_PATH const Access &
    fetchAndPrefetch(std::uint32_t c, AccessGenerator &gen)
    {
        const Access &rec = fetch(c, gen);
        const Batch &b = batch_[c];
        // pos already advanced past the current record in fetch().
        const std::size_t ahead = b.pos - 1 + kPrefetchDistance;
        if (ahead < b.fill)
            hierarchy_.prefetchAhead(b.records[ahead].blockAddr(),
                                     static_cast<ThreadId>(c));
        return rec;
    }

    /** Advance core @p c by one trace record (rec.thread == c). */
    SDBP_HOT_PATH void
    step(std::uint32_t c, const Access &rec)
    {
        cores_[c].executeNonMem(rec.gap);
        HierarchyResult res = hierarchy_.access(rec, tick_);
        if (res.level == ServiceLevel::Memory &&
            hcfg_.memServiceInterval > 0) {
            // Shared DRAM channel: back-to-back misses queue behind
            // the service interval.
            const Cycle request = cores_[c].cycles();
            const Cycle start = std::max(request, memFree_);
            res.latency += start - request;
            memFree_ = start + hcfg_.memServiceInterval;
        }
        cores_[c].executeMem(res.latency, !rec.isWrite,
                             rec.dependsOnPrevLoad);
        tick_ += rec.gap + 1;
    }

    BasicHierarchy<LlcP> hierarchy_;
};

/** The type-erased system: virtual LLC policy dispatch. */
using System = BasicSystem<ReplacementPolicy>;

} // namespace sdbp

#endif // SDBP_CPU_SYSTEM_HH
