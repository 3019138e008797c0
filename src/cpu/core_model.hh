/**
 * @file
 * Approximate out-of-order core timing model in the spirit of
 * CMP$im (Sec. VI-A): 4-wide, 8-stage, 128-entry instruction
 * window.  It is not cycle-accurate; it models the first-order
 * effects that matter for the paper's IPC comparisons:
 *
 *  - dispatch width limits throughput to `width` IPC;
 *  - independent long-latency loads overlap (memory-level
 *    parallelism) until the instruction window fills;
 *  - a full window stalls dispatch until the oldest instruction
 *    completes (in-order retirement backpressure);
 *  - address-dependent loads (pointer chasing) serialize.
 *
 * The per-instruction methods are inline: they run once per
 * simulated instruction, which makes them the hottest code in the
 * simulator after the L1 lookup.
 */

#ifndef SDBP_CPU_CORE_MODEL_HH
#define SDBP_CPU_CORE_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hotpath.hh"
#include "util/types.hh"

namespace sdbp
{

namespace obs
{
class StatRegistry;
} // namespace obs

struct CoreConfig
{
    unsigned width = 4;
    unsigned robSize = 128;
    unsigned pipelineDepth = 8;
};

class CoreModel
{
  public:
    explicit CoreModel(const CoreConfig &cfg = {});

    /** Execute @p n single-cycle non-memory instructions. */
    SDBP_HOT_PATH void
    executeNonMem(unsigned n)
    {
        // Fast path for the common steady state behind a long-latency
        // load: the window has room for all n instructions and the
        // latest completion covers every cycle dispatch can reach
        // during them (dispatch advances at most n cycles), so each
        // step would compute retire = maxCompletion_ and never stall.
        // Fill the ring with n copies in closed form instead of n
        // dispatch() round trips; bit-identical to the loop whenever
        // the (conservative) guard holds, and the loop runs
        // otherwise.
        const std::size_t size = window_.size();
        if (n > 0 && count_ + n <= size &&
            maxCompletion_ > dispatchCycle_ + n) {
            std::size_t tail = head_ + count_;
            if (tail >= size)
                tail -= size;
            for (unsigned i = 0; i < n; ++i) {
                window_[tail] = maxCompletion_;
                if (++tail == size)
                    tail = 0;
            }
            count_ += n;
            instructions_ += n;
            slotInCycle_ += n;
            while (slotInCycle_ >= cfg_.width) {
                slotInCycle_ -= cfg_.width;
                ++dispatchCycle_;
            }
            return;
        }
        for (unsigned i = 0; i < n; ++i)
            dispatch(dispatchCycle_ + 1);
    }

    /**
     * Execute one memory instruction.
     *
     * @param latency the access latency reported by the hierarchy
     * @param is_load stores retire through the write buffer and do
     *        not stall the core
     * @param depends_on_prev_load serialize behind the previous load
     */
    SDBP_HOT_PATH void
    executeMem(Cycle latency, bool is_load, bool depends_on_prev_load)
    {
        if (!is_load) {
            // Stores retire via the write buffer.
            dispatch(dispatchCycle_ + 1);
            return;
        }
        Cycle issue = dispatchCycle_;
        if (depends_on_prev_load)
            issue = std::max(issue, lastLoadComplete_);
        const Cycle completion = issue + latency;
        lastLoadComplete_ = completion;
        dispatch(completion);
    }

    /** Instructions executed so far. */
    InstCount instructions() const { return instructions_; }

    /** Current cycle count, including draining in-flight work. */
    Cycle
    cycles() const
    {
        return std::max(dispatchCycle_, maxCompletion_);
    }

    /** Restart counters (window state is cleared too). */
    void reset();

    /**
     * Register "<prefix>.instructions" (counter) and
     * "<prefix>.cycles" (gauge: cycles() drains in-flight work, so
     * it is computed, not a plain counter).
     */
    void registerStats(obs::StatRegistry &reg,
                       const std::string &prefix) const;

  private:
    SDBP_HOT_PATH void
    dispatch(Cycle completion)
    {
        const std::size_t size = window_.size();
        if (count_ == size) {
            // Window full: dispatch stalls until the oldest
            // instruction retires.
            const Cycle oldest = window_[head_];
            if (oldest > dispatchCycle_) {
                dispatchCycle_ = oldest;
                slotInCycle_ = 0;
            }
            if (++head_ == size)
                head_ = 0;
            --count_;
        }
        std::size_t tail = head_ + count_;
        if (tail >= size)
            tail -= size;
        // Retirement is in order: an instruction cannot leave the
        // window before its predecessors, so clamp to the running
        // maximum.
        const Cycle retire = std::max(completion, maxCompletion_);
        window_[tail] = retire;
        ++count_;
        maxCompletion_ = retire;

        ++instructions_;
        if (++slotInCycle_ >= cfg_.width) {
            slotInCycle_ = 0;
            ++dispatchCycle_;
        }
    }

    CoreConfig cfg_;
    InstCount instructions_ = 0;
    /** Cycle in which the next instruction dispatches. */
    Cycle dispatchCycle_;
    /** Instructions already dispatched in dispatchCycle_. */
    unsigned slotInCycle_ = 0;
    /** Completion time of the most recent load. */
    Cycle lastLoadComplete_ = 0;
    /** Completion of the latest-finishing instruction seen. */
    Cycle maxCompletion_ = 0;
    /** Ring buffer of in-flight completion times (the window). */
    std::vector<Cycle> window_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace sdbp

#endif // SDBP_CPU_CORE_MODEL_HH
