#include "cells.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "trace/spec_profiles.hh"

namespace perfbench
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** FNV-1a over 64-bit words. */
class Fnv
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

} // anonymous namespace

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return seed == 0 ? base : splitmix64(base ^ splitmix64(seed));
}

sdbp::WorkloadProfile
seededProfile(const std::string &bench, std::uint64_t seed)
{
    sdbp::WorkloadProfile p = sdbp::specProfile(bench);
    p.seed = mixSeed(p.seed, seed);
    return p;
}

sdbp::Engine
buildEngine(const CellSpec &spec, sdbp::PolicyKind kind)
{
    // The same geometry adjustments runSingleCore/runMulticore make.
    sdbp::HierarchyConfig h = spec.cfg.hierarchy;
    h.numCores = spec.cores();
    h.llc.trackEfficiency = false;
    sdbp::PolicyOptions opts = spec.cfg.policy;
    opts.numThreads = spec.cores();
    return sdbp::makeEngine(kind, h, spec.cfg.core, opts);
}

std::vector<std::unique_ptr<sdbp::SyntheticWorkload>>
buildGenerators(const CellSpec &spec)
{
    std::vector<std::unique_ptr<sdbp::SyntheticWorkload>> gens;
    for (std::uint32_t c = 0; c < spec.cores(); ++c)
        gens.push_back(std::make_unique<sdbp::SyntheticWorkload>(
            seededProfile(spec.benchmarks[c], spec.seed), c));
    return gens;
}

double
CellOutcome::nsPerInstr() const
{
    return simulatedInstructions > 0
        ? runS * 1e9 / static_cast<double>(simulatedInstructions)
        : 0;
}

std::uint64_t
digestOf(const CellOutcome &out)
{
    Fnv f;
    f.add(out.simulatedInstructions);
    for (const auto &t : out.threads) {
        f.add(t.instructions);
        f.add(t.cycles);
        f.add(t.ipc);
    }
    const sdbp::CacheStats &s = out.llc;
    for (std::uint64_t v : {s.demandAccesses, s.demandHits,
                            s.demandMisses, s.writebackAccesses,
                            s.writebackHits, s.fills, s.bypasses,
                            s.evictions, s.dirtyEvictions})
        f.add(v);
    f.add(s.liveTime);
    f.add(s.totalTime);
    if (out.hasDbrb) {
        const sdbp::DbrbStats &d = out.dbrb;
        for (std::uint64_t v : {d.predictions, d.positives,
                                d.falsePositiveHits, d.bypassReuses,
                                d.deadEvictions, d.bypasses})
            f.add(v);
    }
    return f.value();
}

CellOutcome
collectOutcome(const sdbp::Engine &eng,
               std::vector<sdbp::ThreadRunResult> threads)
{
    CellOutcome out;
    out.threads = std::move(threads);
    out.simulatedInstructions = eng.system->tick();
    out.llc = eng.system->hierarchy().llc().stats();
    if (eng.dbrb) {
        out.hasDbrb = true;
        out.dbrb = eng.dbrb->dbrbStats();
        // Aborts the process on a broken invariant; compiled out
        // (a no-op) unless the library is built with SDBP_DCHECK.
        eng.predictor->auditInvariants();
    }
    out.digest = digestOf(out);
    return out;
}

CellOutcome
runCell(const CellSpec &spec, SpanLog *spans, std::uint64_t cell)
{
    const auto t0 = Clock::now();
    sdbp::Engine eng = buildEngine(spec, spec.kind);
    const auto t1 = Clock::now();
    auto gens = buildGenerators(spec);
    const auto t2 = Clock::now();

    std::vector<sdbp::AccessGenerator *> ptrs;
    for (auto &g : gens)
        ptrs.push_back(g.get());
    auto threads = eng.system->run(ptrs, spec.cfg.warmupInstructions,
                                   spec.cfg.measureInstructions);
    const auto t3 = Clock::now();

    CellOutcome out = collectOutcome(eng, std::move(threads));
    out.engineS = secondsBetween(t0, t1);
    out.generatorS = secondsBetween(t1, t2);
    out.runS = secondsBetween(t2, t3);
    if (spans) {
        const std::uint64_t setup = spans->newId();
        spans->add(spans->newId(), setup, cell, "engine", spec.label, t0,
                   t1);
        spans->add(spans->newId(), setup, cell, "generators", spec.label,
                   t1, t2);
        spans->add(setup, cell, cell, "setup", spec.label, t0, t2);
        spans->add(spans->newId(), cell, cell, "run", spec.label, t2, t3);
        spans->add(cell, 0, cell, "cell", spec.label, t0, t3);
    }
    return out;
}

bool
Tally::pinDigest(const std::string &label, std::uint64_t digest)
{
    const auto [it, fresh] = digests_.emplace(label, digest);
    return fresh || it->second == digest;
}

bool
Tally::record(const CellSpec &spec, const CellOutcome &out,
              const std::string &failed_checks)
{
    std::ostringstream why;
    why << failed_checks;
    if (out.threads.size() != spec.cores())
        why << "ran " << out.threads.size() << " threads; ";
    for (std::size_t c = 0; c < out.threads.size(); ++c) {
        // A core stops after the record that reaches its budget, and
        // one record carries at most 2 * meanGap non-memory
        // instructions ahead of its access.
        const std::uint64_t budget = spec.cfg.measureInstructions;
        const std::uint64_t slack =
            2 * sdbp::specProfile(spec.benchmarks[c]).meanGap;
        const std::uint64_t got = out.threads[c].instructions;
        if (got < budget || got > budget + slack)
            why << "thread " << c << " measured " << got
                << " instructions, budget " << budget << "; ";
    }
    if (!pinDigest(spec.label, out.digest))
        why << "digest differs from an earlier repetition; ";
    if (why.str().empty()) {
        ++attempted_;
        return true;
    }
    fail(spec.label, why.str());
    return false;
}

void
Tally::fail(const std::string &label, const std::string &why)
{
    ++attempted_;
    ++failed_;
    failures_.push_back(label + ": " + why);
}

std::uint64_t
Tally::combinedDigest() const
{
    Fnv f;
    for (const auto &[label, digest] : digests_) {
        for (char ch : label)
            f.add(static_cast<std::uint64_t>(
                static_cast<unsigned char>(ch)));
        f.add(digest);
    }
    return f.value();
}

} // namespace perfbench
