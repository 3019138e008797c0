#include "ladder.hh"

#include <sstream>
#include <stdexcept>

#include "cache/cache.hh"
#include "cache/dip.hh"
#include "cache/lru.hh"
#include "cache/rrip.hh"
#include "core/sdbp.hh"
#include "cpu/system.hh"

namespace perfbench
{

namespace
{

using sdbp::Access;

/** Keeps the generator-only rung's output observable. */
volatile std::uint64_t g_traceSink = 0;

/** Batch size of SystemBase's read-ahead (cpu/system.hh). */
constexpr std::size_t kBatch = 256;
/** BasicSystem's software-prefetch distance; the replays issue the
 *  same host-cache hints the full system does. */
constexpr std::size_t kAhead = 8;

/** Passes a generator through, keeping every record handed out. */
class RecordingGenerator final : public sdbp::AccessGenerator
{
  public:
    RecordingGenerator(sdbp::AccessGenerator &inner,
                       std::vector<Access> &out)
        : inner_(inner), out_(out)
    {
    }
    void nextBatch(std::span<Access> out) override
    {
        inner_.nextBatch(out);
        out_.insert(out_.end(), out.begin(), out.end());
    }
    void reset() override { inner_.reset(); }

  private:
    sdbp::AccessGenerator &inner_;
    std::vector<Access> &out_;
};

/**
 * Hands out a RecordingGenerator's records in the order they were
 * pulled.  reset() is a no-op: a deterministic System pulls the same
 * batches in the same order, and the recording already holds the
 * restarted stream where the original run restarted it.
 */
class ReplayGenerator final : public sdbp::AccessGenerator
{
  public:
    explicit ReplayGenerator(const std::vector<Access> &records)
        : records_(records)
    {
    }
    void nextBatch(std::span<Access> out) override
    {
        if (records_.size() - pos_ < out.size())
            throw std::runtime_error("replay ran past the recording");
        std::copy_n(records_.begin() +
                        static_cast<std::ptrdiff_t>(pos_),
                    out.size(), out.begin());
        pos_ += out.size();
    }
    void reset() override {}

  private:
    const std::vector<Access> &records_;
    std::size_t pos_ = 0;
};

/** Records of @p recs a single core executed for @p instructions. */
std::size_t
executedPrefix(const std::vector<Access> &recs,
               std::uint64_t instructions)
{
    std::uint64_t sum = 0;
    std::size_t n = 0;
    while (n < recs.size() && sum < instructions)
        sum += recs[n++].gap + 1;
    if (sum != instructions)
        throw std::runtime_error("recording does not cover the run");
    return n;
}

using PrivateCache = sdbp::BasicCache<sdbp::LruPolicy>;

/**
 * Append-only LLC stream whose storage is allocated and touched before
 * the timed replay, so the rung does not pay for growing a vector.
 */
class OpSink
{
  public:
    explicit OpSink(std::size_t expected) : ops_(expected) {}
    void push(const Access &a)
    {
        if (n_ < ops_.size())
            ops_[n_] = a;
        else
            ops_.push_back(a);
        ++n_;
    }
    std::vector<Access> take()
    {
        ops_.resize(n_);
        return std::move(ops_);
    }

  private:
    std::vector<Access> ops_;
    std::size_t n_ = 0;
};

/**
 * One access through a core's private L1/L2, in BasicHierarchy::access
 * order, appending what reaches the LLC: the demand (looked up, filled
 * on a miss) and dirty writebacks (looked up, never filled).
 */
void
walkPrivate(PrivateCache &l1, PrivateCache &l2, const Access &acc,
            std::uint64_t now, OpSink &llc_ops)
{
    if (l1.access(acc, now))
        return;
    if (!l2.access(acc, now)) {
        llc_ops.push(acc);
        const sdbp::EvictedBlock ev2 = l2.fill(acc, now);
        if (ev2.valid && ev2.dirty)
            llc_ops.push(Access::writebackOf(ev2.blockAddr, ev2.owner));
    }
    const sdbp::EvictedBlock ev1 = l1.fill(acc, now);
    if (ev1.valid && ev1.dirty) {
        const Access wb = Access::writebackOf(ev1.blockAddr, ev1.owner);
        if (!l2.access(wb, now))
            llc_ops.push(wb);
    }
}

/**
 * Merge per-core LLC streams in the order the full run's LLC saw the
 * demands; each core's writebacks ride behind its preceding demand.
 * Exact on one core, an approximation of the writeback order on
 * several.
 */
std::vector<Access>
interleave(std::vector<std::vector<Access>> per_core,
           const std::vector<sdbp::LlcRef> &demand_order)
{
    if (per_core.size() == 1)
        return std::move(per_core[0]);
    std::vector<Access> out;
    std::vector<std::size_t> pos(per_core.size(), 0);
    const auto drain_writebacks = [&](std::size_t c) {
        while (pos[c] < per_core[c].size() &&
               per_core[c][pos[c]].isWriteback)
            out.push_back(per_core[c][pos[c]++]);
    };
    for (const sdbp::LlcRef &ref : demand_order) {
        const std::size_t c = ref.thread;
        drain_writebacks(c);
        if (pos[c] < per_core[c].size())
            out.push_back(per_core[c][pos[c]++]);
        drain_writebacks(c);
    }
    for (std::size_t c = 0; c < per_core.size(); ++c)
        while (pos[c] < per_core[c].size())
            out.push_back(per_core[c][pos[c]++]);
    return out;
}

struct LlcReplay
{
    Clock::time_point start, end;
    sdbp::CacheStats stats;
    bool hasDbrb = false;
    sdbp::DbrbStats dbrb;
};

template <class P>
void
replayInto(sdbp::BasicCache<P> &llc, const std::vector<Access> &ops,
           LlcReplay &r)
{
    r.start = Clock::now();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i + kAhead < ops.size())
            llc.prefetchFor(ops[i + kAhead].blockAddr());
        const Access &op = ops[i];
        if (!llc.access(op, i) && !op.isWriteback)
            llc.fill(op, i);
    }
    r.end = Clock::now();
    r.stats = llc.stats();
}

template <class P>
bool
tryReplay(sdbp::SystemBase &sys, const std::vector<Access> &ops,
          LlcReplay &out)
{
    auto *typed = dynamic_cast<sdbp::BasicSystem<P> *>(&sys);
    if (!typed)
        return false;
    replayInto(typed->hierarchy().llc(), ops, out);
    return true;
}

/**
 * Replay @p ops into a fresh LLC of policy @p kind.  The cache is the
 * engine's own, reached through its concrete type, so sealed
 * compositions keep their devirtualized hooks.  The list covers every
 * composition makeEngine builds for the policies the workloads run;
 * type-erased kinds (CDBP, TDBP) run on BasicSystem<ReplacementPolicy>.
 */
LlcReplay
replayLlc(const CellSpec &spec, sdbp::PolicyKind kind,
          const std::vector<Access> &ops)
{
    using SamplerLru =
        sdbp::BasicDeadBlockPolicy<sdbp::LruPolicy,
                                   sdbp::SamplingDeadBlockPredictor>;
    LlcReplay r;
    sdbp::Engine eng = buildEngine(spec, kind);
    sdbp::SystemBase &sys = *eng.system;
    if (!(tryReplay<sdbp::LruPolicy>(sys, ops, r) ||
          tryReplay<SamplerLru>(sys, ops, r) ||
          tryReplay<sdbp::ReplacementPolicy>(sys, ops, r) ||
          tryReplay<sdbp::DipPolicy>(sys, ops, r) ||
          tryReplay<sdbp::RripPolicy>(sys, ops, r)))
        throw std::runtime_error(std::string("no LLC replay for policy ") +
                                 sdbp::policyName(kind));
    if (eng.dbrb) {
        r.hasDbrb = true;
        r.dbrb = eng.dbrb->dbrbStats();
    }
    return r;
}

void
compareStats(const char *level, const sdbp::CacheStats &replay,
             const sdbp::CacheStats &full,
             std::vector<std::string> &mismatches)
{
    const auto same = [](const sdbp::CacheStats &a,
                         const sdbp::CacheStats &b) {
        return a.demandAccesses == b.demandAccesses &&
            a.demandHits == b.demandHits &&
            a.demandMisses == b.demandMisses &&
            a.writebackAccesses == b.writebackAccesses &&
            a.writebackHits == b.writebackHits && a.fills == b.fills &&
            a.bypasses == b.bypasses && a.evictions == b.evictions &&
            a.dirtyEvictions == b.dirtyEvictions;
    };
    if (!same(replay, full)) {
        std::ostringstream os;
        os << level << " replay counters differ from the full "
           << "simulation (demand " << replay.demandAccesses << "/"
           << full.demandAccesses << ", misses " << replay.demandMisses
           << "/" << full.demandMisses << ", writebacks "
           << replay.writebackAccesses << "/" << full.writebackAccesses
           << ")";
        mismatches.push_back(os.str());
    }
}

bool
sameDbrb(const sdbp::DbrbStats &a, const sdbp::DbrbStats &b)
{
    return a.predictions == b.predictions && a.positives == b.positives &&
        a.falsePositiveHits == b.falsePositiveHits &&
        a.bypassReuses == b.bypassReuses &&
        a.deadEvictions == b.deadEvictions && a.bypasses == b.bypasses;
}

} // anonymous namespace

LadderResult
runLadder(const CellSpec &spec, const CellOutcome &reference,
          SpanLog &spans, std::uint64_t cell, std::uint64_t parent)
{
    const std::uint32_t cores = spec.cores();
    const bool single = cores == 1;
    LadderResult res;
    res.instructions = reference.simulatedInstructions;
    const auto span = [&](const char *name, Clock::time_point a,
                          Clock::time_point b) {
        spans.add(spans.newId(), parent, cell, name, spec.label, a, b);
    };

    // Recording run: what each core pulled, and (several cores) the
    // order the LLC saw the demands in.
    std::vector<std::vector<Access>> pulled(cores);
    std::vector<sdbp::LlcRef> demand_order;
    {
        const auto t0 = Clock::now();
        sdbp::Engine eng = buildEngine(spec, spec.kind);
        auto gens = buildGenerators(spec);
        std::vector<std::unique_ptr<RecordingGenerator>> recs;
        std::vector<sdbp::AccessGenerator *> ptrs;
        for (std::uint32_t c = 0; c < cores; ++c) {
            recs.push_back(
                std::make_unique<RecordingGenerator>(*gens[c],
                                                     pulled[c]));
            ptrs.push_back(recs.back().get());
        }
        if (!single)
            eng.system->hierarchy().recordLlcTrace(&demand_order);
        const CellOutcome rec = collectOutcome(
            eng, eng.system->run(ptrs, spec.cfg.warmupInstructions,
                                 spec.cfg.measureInstructions));
        if (rec.digest != reference.digest)
            res.mismatches.push_back(
                "recording run digest differs from the untraced run");
        span("record", t0, Clock::now());
    }

    // Rung: generator alone, over as many records as the cell pulled.
    {
        auto gens = buildGenerators(spec);
        std::vector<Access> buf(kBatch);
        std::uint64_t sink = 0;
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < cores; ++c) {
            for (std::size_t n = 0; n < pulled[c].size(); n += kBatch) {
                gens[c]->nextBatch(std::span<Access>(buf));
                sink ^= buf[0].addr;
            }
        }
        const auto t1 = Clock::now();
        res.traceS = secondsBetween(t0, t1);
        span("trace", t0, t1);
        g_traceSink = sink;
    }

    // Rung: the System with no generator behind it.
    sdbp::Engine sim = buildEngine(spec, spec.kind);
    std::vector<std::size_t> executed(cores);
    if (single) {
        executed[0] =
            executedPrefix(pulled[0], reference.simulatedInstructions);
        const auto t0 = Clock::now();
        sim.system->simulate(
            std::span<const Access>(pulled[0].data(), executed[0]));
        const auto t1 = Clock::now();
        res.systemS = secondsBetween(t0, t1);
        span("system", t0, t1);
    } else {
        std::vector<std::unique_ptr<ReplayGenerator>> reps;
        std::vector<sdbp::AccessGenerator *> ptrs;
        for (std::uint32_t c = 0; c < cores; ++c) {
            reps.push_back(std::make_unique<ReplayGenerator>(pulled[c]));
            ptrs.push_back(reps.back().get());
            // Restarts make the executed share of each core's pulls
            // unknowable from outside; the private-cache rung replays
            // them all.
            executed[c] = pulled[c].size();
        }
        const auto t0 = Clock::now();
        auto threads = sim.system->run(ptrs, spec.cfg.warmupInstructions,
                                       spec.cfg.measureInstructions);
        const auto t1 = Clock::now();
        res.systemS = secondsBetween(t0, t1);
        span("system", t0, t1);
        if (collectOutcome(sim, std::move(threads)).digest !=
            reference.digest)
            res.mismatches.push_back(
                "replayed run digest differs from the untraced run");
    }

    // Rung: private L1/L2 alone, emitting the LLC stream.
    std::vector<std::vector<Access>> llc_ops(cores);
    {
        const sdbp::HierarchyConfig &h = spec.cfg.hierarchy;
        std::vector<std::unique_ptr<PrivateCache>> l1, l2;
        std::vector<OpSink> sinks;
        for (std::uint32_t c = 0; c < cores; ++c) {
            // At most about one LLC operation per record on the
            // benchmarks here; the sink grows if a stream has more.
            sinks.emplace_back(executed[c]);
            l1.push_back(std::make_unique<PrivateCache>(
                h.l1, std::make_unique<sdbp::LruPolicy>(h.l1.numSets,
                                                        h.l1.assoc)));
            l2.push_back(std::make_unique<PrivateCache>(
                h.l2, std::make_unique<sdbp::LruPolicy>(h.l2.numSets,
                                                        h.l2.assoc)));
        }
        const auto t0 = Clock::now();
        for (std::uint32_t c = 0; c < cores; ++c) {
            const std::vector<Access> &recs = pulled[c];
            std::uint64_t now = 0;
            for (std::size_t i = 0; i < executed[c]; ++i) {
                if (i + kAhead < executed[c])
                    l2[c]->prefetchFor(recs[i + kAhead].blockAddr());
                Access a = recs[i];
                a.thread = c;
                walkPrivate(*l1[c], *l2[c], a, now, sinks[c]);
                now += a.gap + 1;
            }
        }
        const auto t1 = Clock::now();
        res.l1l2S = secondsBetween(t0, t1);
        span("l1l2", t0, t1);
        for (std::uint32_t c = 0; c < cores; ++c) {
            llc_ops[c] = sinks[c].take();
            res.l1Accesses += l1[c]->stats().demandAccesses;
            res.l1Hits += l1[c]->stats().demandHits;
            res.l2Accesses += l2[c]->stats().demandAccesses;
            res.l2Hits += l2[c]->stats().demandHits;
        }
        if (single) {
            compareStats("L1", l1[0]->stats(),
                         sim.system->hierarchy().l1(0).stats(),
                         res.mismatches);
            compareStats("L2", l2[0]->stats(),
                         sim.system->hierarchy().l2(0).stats(),
                         res.mismatches);
        }
    }
    pulled.clear();
    pulled.shrink_to_fit();

    // Rung: the LLC alone (and its inner LRU, for DBRB cells).
    const std::vector<Access> ops =
        interleave(std::move(llc_ops), demand_order);
    {
        const LlcReplay r = replayLlc(spec, spec.kind, ops);
        res.llcS = secondsBetween(r.start, r.end);
        span("llc", r.start, r.end);
        res.llcDemand = r.stats.demandAccesses;
        res.llcMisses = r.stats.demandMisses;
        res.llcWritebacks = r.stats.writebackAccesses;
        res.hasDbrb = r.hasDbrb;
        res.dbrb = r.dbrb;
        if (single) {
            compareStats("LLC", r.stats,
                         sim.system->hierarchy().llc().stats(),
                         res.mismatches);
            if (r.hasDbrb && !sameDbrb(r.dbrb, sim.dbrb->dbrbStats()))
                res.mismatches.push_back(
                    "DBRB replay counters differ from the full "
                    "simulation");
        }
    }
    if (res.hasDbrb) {
        const LlcReplay r = replayLlc(spec, sdbp::PolicyKind::Lru, ops);
        res.llcInnerS = secondsBetween(r.start, r.end);
        span("llc_inner_lru", r.start, r.end);
    }
    return res;
}

} // namespace perfbench
