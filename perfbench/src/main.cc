/**
 * @file
 * perfbench: the repository benchmark (see perfbench/README.md).
 *
 *   perfbench --workload panel|mix4|sweep --seed N --seconds S
 *             --trace 0|1 [--out-dir DIR]
 *   perfbench_check --audit --workload panel|mix4|sweep --seed N
 *   perfbench_check --self-test
 *
 * Untraced (--trace 0) runs print the end-to-end metrics; traced runs
 * (--trace 1) print the per-layer metrics and write their spans to
 * DIR/spans.<workload>.json.  --audit runs the traced run's DBRB cells
 * in the DCHECK build (perfbench_check) and counts the ones whose
 * invariant audits fail.  Each mode's last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cells.hh"
#include "ladder.hh"
#include "obs/span_tracer.hh"
#include "sim/sweep.hh"
#include "spans.hh"
#include "trace/spec_profiles.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace perfbench
{

namespace
{

using sdbp::PolicyKind;

// ---------------------------------------------------------------------
// Workloads

/** North-star panel: the figures' per-cell budget (2M + 8M). */
const std::vector<std::string> kPanelBenchmarks = {
    "456.hmmer", "429.mcf", "462.libquantum"};
const std::vector<PolicyKind> kPanelPolicies = {
    PolicyKind::Lru, PolicyKind::Sampler, PolicyKind::Cdbp};

/**
 * Two Table IV mixes on the 8 MB shared LLC at 1M + 1M per thread, a
 * third of Fig. 10's 2M + 4M so that several rounds fit in one run.
 * Every LLC frame is valid after 0.25M instructions per thread, and
 * LRU's LLC MPKI is within 1% of the Fig. 10 budget's (see
 * perfbench/README.md).
 */
const std::vector<std::string> kMixNames = {"mix1", "mix2"};
const std::vector<PolicyKind> kMixPolicies = {
    PolicyKind::Lru, PolicyKind::Tadip, PolicyKind::Sampler};
constexpr sdbp::InstCount kMixWarmup = 1'000'000;
constexpr sdbp::InstCount kMixMeasure = 1'000'000;

/** Fig. 5 grid at a fifth of the figure budget (0.4M + 1.6M). */
constexpr sdbp::InstCount kSweepWarmup = 400'000;
constexpr sdbp::InstCount kSweepMeasure = 1'600'000;
/** Sweep rows the traced run takes apart with the ladder. */
const std::vector<std::string> kSweepLadderRows = {"429.mcf",
                                                   "470.lbm"};

std::vector<CellSpec>
gridSpecs(const std::vector<std::string> &groups,
          const std::vector<PolicyKind> &policies,
          const sdbp::RunConfig &cfg, std::uint64_t seed,
          const std::function<std::vector<std::string>(
              const std::string &)> &benchmarks_of)
{
    std::vector<CellSpec> specs;
    for (const auto &g : groups) {
        for (const PolicyKind k : policies) {
            CellSpec s;
            s.group = g;
            s.label = g + "/" + sdbp::policyName(k);
            s.benchmarks = benchmarks_of(g);
            s.kind = k;
            s.cfg = cfg;
            s.seed = seed;
            specs.push_back(std::move(s));
        }
    }
    return specs;
}

std::vector<std::string>
single(const std::string &bench)
{
    return {bench};
}

std::vector<std::string>
mixBenchmarks(const std::string &mix)
{
    for (const auto &m : sdbp::multicoreMixes())
        if (m.name == mix)
            return m.benchmarks;
    throw std::runtime_error("unknown mix " + mix);
}

std::vector<CellSpec>
panelSpecs(std::uint64_t seed)
{
    return gridSpecs(kPanelBenchmarks, kPanelPolicies,
                     sdbp::RunConfig::singleCore(), seed, single);
}

sdbp::RunConfig
mixConfig()
{
    sdbp::RunConfig cfg = sdbp::RunConfig::quadCore();
    cfg.warmupInstructions = kMixWarmup;
    cfg.measureInstructions = kMixMeasure;
    return cfg;
}

std::vector<CellSpec>
mix4Specs(std::uint64_t seed)
{
    return gridSpecs(kMixNames, kMixPolicies, mixConfig(), seed,
                     mixBenchmarks);
}

sdbp::RunConfig
sweepConfig()
{
    sdbp::RunConfig cfg = sdbp::RunConfig::singleCore();
    cfg.warmupInstructions = kSweepWarmup;
    cfg.measureInstructions = kSweepMeasure;
    return cfg;
}

std::vector<PolicyKind>
sweepPolicies()
{
    std::vector<PolicyKind> p = {PolicyKind::Lru};
    const auto &rest = sdbp::lruDefaultPolicies();
    p.insert(p.end(), rest.begin(), rest.end());
    return p;
}

/**
 * runGrid takes benchmark names, not seeds, so the sweep's cells keep
 * their profile seeds as the figure binaries run them.  The workload
 * seed permutes the row order instead, which moves cells between pool
 * slots and changes which cells form the tail.
 */
std::vector<std::string>
sweepRows(std::uint64_t seed)
{
    std::vector<std::string> rows = sdbp::memoryIntensiveSubset();
    if (seed == 0)
        return rows;
    for (std::size_t i = rows.size() - 1; i > 0; --i)
        std::swap(rows[i], rows[mixSeed(i, seed) % (i + 1)]);
    return rows;
}

unsigned
sweepJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

// ---------------------------------------------------------------------
// Statistics

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double
perKilo(std::uint64_t count, std::uint64_t instructions)
{
    return sdbp::ratio(1000.0 * static_cast<double>(count),
                       static_cast<double>(instructions));
}

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

// ---------------------------------------------------------------------
// Simulated figures of merit

struct SimFigures
{
    double ipcSpeedup = 0;
    double mpkiReduction = 0;
};

double
llcMpki(const CellOutcome &o)
{
    std::uint64_t instr = 0;
    for (const auto &t : o.threads)
        instr += t.instructions;
    return sdbp::mpki(o.llc.demandMisses, instr);
}

/**
 * Geomean of IPC(Sampler)/IPC(LRU) over threads and of
 * MPKI(LRU)/MPKI(Sampler) over groups, from cells of one round.  A
 * cell that threw has no threads; its group is left out.
 */
SimFigures
simFigures(const std::vector<CellSpec> &specs,
           const std::vector<CellOutcome> &outs)
{
    std::map<std::string, const CellOutcome *> lru, sampler;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (outs[i].threads.size() != specs[i].cores())
            continue;
        if (specs[i].kind == PolicyKind::Lru)
            lru[specs[i].group] = &outs[i];
        else if (specs[i].kind == PolicyKind::Sampler)
            sampler[specs[i].group] = &outs[i];
    }
    std::vector<double> speedups, reductions;
    for (const auto &[group, base] : lru) {
        const auto it = sampler.find(group);
        if (it == sampler.end())
            continue;
        const CellOutcome &s = *it->second;
        for (std::size_t t = 0; t < base->threads.size(); ++t)
            speedups.push_back(
                sdbp::ratio(s.threads[t].ipc, base->threads[t].ipc));
        reductions.push_back(sdbp::ratio(llcMpki(*base), llcMpki(s)));
    }
    return {sdbp::gmean(speedups), sdbp::gmean(reductions)};
}

/** RunResult (sweep cell) as a CellOutcome: what runGrid reports. */
CellOutcome
fromRunResult(const sdbp::RunResult &r)
{
    CellOutcome o;
    o.threads = {{r.instructions, r.cycles, r.ipc}};
    o.llc.demandAccesses = r.llcAccesses;
    o.llc.demandMisses = r.llcMisses;
    o.llc.bypasses = r.llcBypasses;
    o.hasDbrb = r.hasDbrb;
    o.dbrb = r.dbrb;
    o.digest = digestOf(o);
    return o;
}

// ---------------------------------------------------------------------
// Setup samples

double
fastest(const std::vector<double> &xs)
{
    return xs.empty() ? 0 : *std::min_element(xs.begin(), xs.end());
}

/**
 * Setup seconds of every cell, one sample per build.  Like run time
 * (see Rounds), a cell's setup is its fastest sample, and the
 * workload's setup is the sum over cells.
 */
struct SetupTimes
{
    /** [cell][sample] */
    std::vector<std::vector<double>> engineS, generatorS, totalS;

    void add(std::size_t c, double engine_s, double generator_s)
    {
        if (totalS.size() <= c) {
            engineS.resize(c + 1);
            generatorS.resize(c + 1);
            totalS.resize(c + 1);
        }
        engineS[c].push_back(engine_s);
        generatorS[c].push_back(generator_s);
        totalS[c].push_back(engine_s + generator_s);
    }
    double cell(std::size_t c) const { return fastest(totalS[c]); }
    double total() const { return sumFastest(totalS); }
    double engine() const { return sumFastest(engineS); }
    double generator() const { return sumFastest(generatorS); }
    std::size_t samples() const
    {
        return totalS.empty() ? 0 : totalS[0].size();
    }

  private:
    static double sumFastest(const std::vector<std::vector<double>> &v)
    {
        double s = 0;
        for (const auto &c : v)
            s += fastest(c);
        return s;
    }
};

/**
 * Setup-only passes (build and drop every cell's engine and
 * generators) for about @p budget_s seconds, 5 to 200 passes.
 *
 * Each build starts from trimmed heap, so it page-faults its memory in
 * afresh as a cell in a new process does.  Otherwise whether it reused
 * freed heap depended on glibc's mmap threshold, which rises only once
 * a large block has been freed: sweep's setup_s read 0.008 s in some
 * runs and 0.07 s in others.
 */
SetupTimes
setupSamples(const std::vector<CellSpec> &specs, double budget_s)
{
    SetupTimes st;
    const auto start = Clock::now();
    for (std::size_t pass = 0;
         pass < 5 || (pass < 200 &&
                      secondsBetween(start, Clock::now()) < budget_s);
         ++pass) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
            malloc_trim(0);
            const auto t0 = Clock::now();
            sdbp::Engine eng = buildEngine(specs[i], specs[i].kind);
            const auto t1 = Clock::now();
            auto gens = buildGenerators(specs[i]);
            const auto t2 = Clock::now();
            st.add(i, secondsBetween(t0, t1), secondsBetween(t1, t2));
        }
    }
    return st;
}

// ---------------------------------------------------------------------
// Untraced: end-to-end metrics

/** Seconds spent in setup-only passes per run. */
constexpr double kSetupBudgetS = 1.0;

/**
 * Every round runs every cell once.  On a shared host, co-tenants slow
 * the simulator in bursts of seconds and never speed it up, so a
 * cell's host time is the fastest of its rounds (taken before cells
 * are summed): over ten runs that halves the run-to-run spread of the
 * per-round median.
 */
struct Rounds
{
    /** [cell][round] run seconds (setup excluded). */
    std::vector<std::vector<double>> runS;
    /** [cell][round] run plus setup seconds. */
    std::vector<std::vector<double>> cellS;
    /** Simulated instructions per cell (identical every round). */
    std::vector<std::uint64_t> instructions;
    /** Whole-round wall clocks (the sweep's figure wall). */
    std::vector<double> roundWallS;
    SetupTimes setup;
    SimFigures sim;
    /** Report the figure wall (round wall) rather than Σ cells. */
    bool parallel = false;

    void addCell(std::size_t c, double run_s, double cell_s,
                 std::uint64_t instr)
    {
        if (runS.size() <= c) {
            runS.resize(c + 1);
            cellS.resize(c + 1);
            instructions.resize(c + 1);
        }
        runS[c].push_back(run_s);
        cellS[c].push_back(cell_s);
        instructions[c] = instr;
    }
};

/** Keep starting rounds while the next one fits in @p seconds. */
bool
anotherRound(Clock::time_point start, std::size_t done, double seconds)
{
    if (done == 0)
        return true;
    const double elapsed = secondsBetween(start, Clock::now());
    return elapsed + elapsed / static_cast<double>(done) <= seconds;
}

using CellRunner = std::function<CellOutcome(const CellSpec &)>;

CellOutcome
runUntraced(const CellSpec &spec)
{
    return runCell(spec);
}

CellOutcome
runChecked(const CellSpec &spec, const CellRunner &run, Tally &tally,
           bool &ok)
{
    try {
        CellOutcome out = run(spec);
        ok = tally.record(spec, out);
        return out;
    } catch (const std::exception &e) {
        tally.fail(spec.label, e.what());
        ok = false;
        return {};
    }
}

/**
 * panel / mix4: fresh engine per cell, cells one at a time.  After the
 * first round, a cell starts only if its last time still fits in
 * @p seconds, so the last round may stop part way and every second
 * adds samples.  @p run runs one cell (the self-test passes one that
 * throws).
 */
Rounds
measureSerial(const std::vector<CellSpec> &specs, double seconds,
              Tally &tally, const CellRunner &run = runUntraced)
{
    Rounds r;
    r.setup = setupSamples(specs, kSetupBudgetS);

    const auto start = Clock::now();
    std::vector<double> last_s(specs.size(), 0.0);
    bool fits = true;
    for (std::size_t round = 0; fits; ++round) {
        std::vector<CellOutcome> outs;
        bool all_ok = true;
        const auto t0 = Clock::now();
        for (std::size_t c = 0; c < specs.size(); ++c) {
            if (round > 0 &&
                secondsBetween(start, Clock::now()) + last_s[c] > seconds) {
                fits = false;
                break;
            }
            bool ok = false;
            outs.push_back(runChecked(specs[c], run, tally, ok));
            all_ok = all_ok && ok;
            if (!ok)
                continue;
            const CellOutcome &o = outs.back();
            r.addCell(c, o.runS, o.setupS() + o.runS,
                      o.simulatedInstructions);
            last_s[c] = o.setupS() + o.runS;
        }
        r.roundWallS.push_back(secondsBetween(t0, Clock::now()));
        std::fprintf(stderr, "round %zu: wall %.3f s, ns/instr", round,
                     r.roundWallS.back());
        for (const CellOutcome &o : outs)
            std::fprintf(stderr, " %.1f", o.nsPerInstr());
        std::fprintf(stderr, "\n");
        if (round == 0) {
            r.sim = simFigures(specs, outs);
            for (std::size_t i = 0; i < specs.size(); ++i)
                std::printf("  %-28s ipc %.3f  mpki %.3f\n",
                            specs[i].label.c_str(),
                            outs[i].threads.empty()
                                ? 0.0
                                : outs[i].threads[0].ipc,
                            llcMpki(outs[i]));
        }
        if (!all_ok)
            break;
    }
    return r;
}

struct SweepSetup
{
    std::vector<CellSpec> specs;
    std::vector<std::string> rows;
    std::vector<PolicyKind> policies;
    sdbp::RunConfig cfg;
    sdbp::sweep::SweepOptions opts;
};

SweepSetup
sweepSetup(std::uint64_t seed, const std::string &out_dir)
{
    SweepSetup s;
    s.rows = sweepRows(seed);
    s.policies = sweepPolicies();
    s.cfg = sweepConfig();
    // runGrid builds its generators from the profile seeds.
    s.specs = gridSpecs(s.rows, s.policies, s.cfg, 0, single);
    s.opts.jobs = sweepJobs();
    s.opts.retries = 0;
    s.opts.manifestPath = out_dir + "/sweep.manifest.json";
    return s;
}

/**
 * The sweep rows the traced run takes apart, cell by cell; labelled
 * apart from the grid cells, whose digests cover fewer counters.
 */
std::vector<CellSpec>
sweepSample(const SweepSetup &s)
{
    std::vector<CellSpec> sample =
        gridSpecs(kSweepLadderRows, s.policies, s.cfg, 0, single);
    for (CellSpec &spec : sample)
        spec.label = "ladder/" + spec.label;
    return sample;
}

/** Check a grid's cells; returns its per-cell outcomes. */
std::vector<CellOutcome>
checkGrid(const SweepSetup &s, const sdbp::sweep::Grid &grid,
          Tally &tally, bool &all_ok)
{
    std::vector<bool> errored(grid.cells.size(), false);
    for (const auto &e : grid.errors) {
        errored[e.index] = true;
        tally.fail(s.specs[e.index].label, e.message);
        all_ok = false;
    }
    std::vector<CellOutcome> outs;
    for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        outs.push_back(fromRunResult(grid.cells[i]));
        if (!errored[i] && !tally.record(s.specs[i], outs.back()))
            all_ok = false;
    }
    if (grid.skipped) {
        tally.fail("sweep", std::to_string(grid.skipped) +
                                " cells skipped");
        all_ok = false;
    }
    return outs;
}

/** sweep: runGrid on the in-process pool, manifest checkpointing on. */
Rounds
measureSweep(const SweepSetup &s, double seconds, Tally &tally)
{
    Rounds r;
    r.parallel = true;
    r.setup = setupSamples(s.specs, kSetupBudgetS);

    const auto start = Clock::now();
    for (std::size_t round = 0; anotherRound(start, round, seconds);
         ++round) {
        const sdbp::sweep::Grid grid =
            sdbp::sweep::runGrid(s.rows, s.policies, s.cfg, s.opts);
        bool all_ok = true;
        const auto outs = checkGrid(s, grid, tally, all_ok);
        // A cell's wall clock includes its setup; subtract the
        // setup-pass estimate so ns/instr keeps one definition.
        for (std::size_t c = 0; c < grid.cells.size(); ++c) {
            const double wall = grid.cells[c].wallSeconds;
            r.addCell(c, std::max(0.0, wall - r.setup.cell(c)), wall,
                      s.cfg.warmupInstructions +
                          grid.cells[c].instructions);
        }
        r.roundWallS.push_back(grid.wallSeconds);
        std::fprintf(stderr, "round %zu: wall %.3f s\n", round,
                     r.roundWallS.back());
        if (round == 0)
            r.sim = simFigures(s.specs, outs);
        if (!all_ok)
            break;
    }
    return r;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<Metric>
endToEnd(const Rounds &r)
{
    double run_s = 0, cells_s = 0, worst = 0;
    std::uint64_t instr = 0;
    for (std::size_t c = 0; c < r.runS.size(); ++c) {
        const double cell_run = fastest(r.runS[c]);
        run_s += cell_run;
        cells_s += fastest(r.cellS[c]);
        instr += r.instructions[c];
        if (r.instructions[c] > 0)
            worst = std::max(worst,
                             cell_run * 1e9 /
                                 static_cast<double>(r.instructions[c]));
    }
    std::printf("  rounds %zu, setup samples per cell %zu\n",
                r.roundWallS.size(), r.setup.samples());
    return {
        {"ns_per_instr", "ns/instr",
         instr ? run_s * 1e9 / static_cast<double>(instr) : 0},
        {"worst_cell_ns_per_instr", "ns/instr", worst},
        {"wall_s", "s", r.parallel ? fastest(r.roundWallS) : cells_s},
        {"setup_s", "s", r.setup.total()},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_ipc_speedup", "ratio", r.sim.ipcSpeedup},
        {"sim_mpki_reduction", "ratio", r.sim.mpkiReduction},
    };
}

// ---------------------------------------------------------------------
// Traced: per-layer metrics

struct LayerTotals
{
    std::uint64_t instructions = 0;
    double runS = 0, traceS = 0, systemS = 0, l1l2S = 0, llcS = 0;
    std::uint64_t l1Acc = 0, l1Hit = 0, l2Acc = 0, l2Hit = 0;
    std::uint64_t llcDemand = 0, llcMisses = 0, llcWritebacks = 0;
    // DBRB cells only.
    double dbrbS = 0, dbrbInnerS = 0;
    std::uint64_t dbrbOps = 0, dbrbMisses = 0;
    sdbp::DbrbStats dbrb;
    // Untraced vs. traced repetitions of the same work.
    double untracedS = 0, tracedS = 0;
    // Serial-pass cell times (setup + run), for the sweep.* metrics.
    std::vector<double> cellS;
    double passWallS = 0;
    unsigned jobs = 1;
    // Telemetry disarmed vs. armed.
    double disarmedS = 0, armedS = 0;

    void add(const LadderResult &l, double run_s)
    {
        instructions += l.instructions;
        runS += run_s;
        traceS += l.traceS;
        systemS += l.systemS;
        l1l2S += l.l1l2S;
        llcS += l.llcS;
        l1Acc += l.l1Accesses;
        l1Hit += l.l1Hits;
        l2Acc += l.l2Accesses;
        l2Hit += l.l2Hits;
        llcDemand += l.llcDemand;
        llcMisses += l.llcMisses;
        llcWritebacks += l.llcWritebacks;
        if (l.hasDbrb) {
            dbrbS += l.llcS;
            dbrbInnerS += l.llcInnerS;
            dbrbOps += l.llcOps();
            dbrbMisses += l.llcMisses;
            dbrb.predictions += l.dbrb.predictions;
            dbrb.positives += l.dbrb.positives;
            dbrb.falsePositiveHits += l.dbrb.falsePositiveHits;
            dbrb.bypassReuses += l.dbrb.bypassReuses;
            dbrb.bypasses += l.dbrb.bypasses;
        }
    }
};

/**
 * One cell of the traced run: an untraced repetition, a traced one
 * (cell -> setup -> run spans), and the ladder.  Counted once.  With
 * @p serial_pass, the untraced repetition also feeds the sweep.*
 * metrics as one cell of a one-job pass.
 */
void
traceCell(const CellSpec &spec, SpanLog &spans, Tally &tally,
          LayerTotals &tot, bool serial_pass)
{
    try {
        const auto u0 = Clock::now();
        const CellOutcome plain = runCell(spec);
        const auto u1 = Clock::now();

        const std::uint64_t cell = spans.newId();
        const auto t0 = Clock::now();
        const CellOutcome traced = runCell(spec, &spans, cell);
        const auto t1 = Clock::now();

        const std::uint64_t ladder = spans.newId();
        const auto l0 = Clock::now();
        const LadderResult l = runLadder(spec, plain, spans, cell, ladder);
        spans.add(ladder, 0, cell, "ladder", spec.label, l0, Clock::now());

        const double per = l.instructions
            ? 1e9 / static_cast<double>(l.instructions)
            : 0;
        std::printf("  %-28s ns/instr: run %.1f = trace %.1f + system "
                    "%.1f (l1l2 %.1f, llc %.1f)\n",
                    spec.label.c_str(), plain.runS * per, l.traceS * per,
                    l.systemS * per, l.l1l2S * per, l.llcS * per);
        tot.add(l, plain.runS);
        tot.untracedS += secondsBetween(u0, u1);
        tot.tracedS += secondsBetween(t0, t1);
        if (serial_pass) {
            tot.cellS.push_back(plain.setupS() + plain.runS);
            tot.passWallS += secondsBetween(u0, u1);
        }

        std::string why;
        // The traced repetition must reproduce the untraced digest.
        if (traced.digest != plain.digest)
            why += "traced digest differs; ";
        for (const auto &m : l.mismatches)
            why += m + "; ";
        tally.record(spec, plain, why);
    } catch (const std::exception &e) {
        tally.fail(spec.label, e.what());
    }
}

/**
 * Telemetry cost: the same cells through the runner with ObsOptions
 * collection and process-wide spans (what SDBP_SPANS=1 turns on)
 * armed, and disarmed; A/B order alternates per cell.
 */
void
measureTelemetry(
    std::size_t n,
    const std::function<double(std::size_t, bool)> &run_cell,
    LayerTotals &tot)
{
    sdbp::obs::SpanTracer &tracer = sdbp::obs::SpanTracer::global();
    for (std::size_t i = 0; i < n; ++i) {
        for (int leg = 0; leg < 2; ++leg) {
            const bool armed = (leg == 0) == (i % 2 == 0);
            tracer.setEnabled(armed);
            const double s = run_cell(i, armed);
            tracer.setEnabled(false);
            tracer.clear();
            (armed ? tot.armedS : tot.disarmedS) += s;
        }
    }
}

std::vector<Metric>
perLayer(const LayerTotals &t, const SetupTimes &setup,
         const SpanLog &spans)
{
    const double instr = static_cast<double>(t.instructions);
    const auto ns_per = [](double s, double n) {
        return n > 0 ? s * 1e9 / n : 0;
    };
    const double llc_ops =
        static_cast<double>(t.llcDemand + t.llcWritebacks);
    const double rungs = t.traceS + t.systemS;
    const double cell_sum =
        std::accumulate(t.cellS.begin(), t.cellS.end(), 0.0);

    std::printf("  ladder: run %.3f s = trace %.3f + system %.3f "
                "(l1l2 %.3f, llc %.3f) + residual\n",
                t.runS, t.traceS, t.systemS, t.l1l2S, t.llcS);
    std::printf("  span self time:");
    for (const auto &[name, s] : spans.selfSecondsByName())
        std::printf(" %s %.3f s;", name.c_str(), s);
    std::printf("\n");

    return {
        {"trace.ns_per_instr", "ns/instr", ns_per(t.traceS, instr)},
        {"cpu.ns_per_instr", "ns/instr",
         ns_per(t.systemS - t.l1l2S - t.llcS, instr)},
        {"l1.hit_rate", "frac",
         sdbp::ratio(static_cast<double>(t.l1Hit), static_cast<double>(t.l1Acc))},
        {"l2.hit_rate", "frac",
         sdbp::ratio(static_cast<double>(t.l2Hit), static_cast<double>(t.l2Acc))},
        {"l1l2.ns_per_instr", "ns/instr", ns_per(t.l1l2S, instr)},
        {"llc.apki", "1/kinstr", perKilo(t.llcDemand, t.instructions)},
        {"llc.mpki", "1/kinstr", perKilo(t.llcMisses, t.instructions)},
        {"llc.writeback_pki", "1/kinstr",
         perKilo(t.llcWritebacks, t.instructions)},
        {"llc.ns_per_access", "ns/access", ns_per(t.llcS, llc_ops)},
        {"dbrb.ns_per_llc_access", "ns/access",
         ns_per(t.dbrbS - t.dbrbInnerS,
                static_cast<double>(t.dbrbOps))},
        {"dbrb.bypass_rate", "frac",
         sdbp::ratio(static_cast<double>(t.dbrb.bypasses),
              static_cast<double>(t.dbrbMisses))},
        {"predictor.coverage", "frac", t.dbrb.coverage()},
        {"predictor.false_positive_rate", "frac",
         t.dbrb.falsePositiveRate()},
        {"setup.engine_s", "s", setup.engine()},
        {"setup.generator_s", "s", setup.generator()},
        {"sweep.cell_s_p50", "s", median(t.cellS)},
        {"sweep.cell_s_max", "s",
         t.cellS.empty()
             ? 0.0
             : *std::max_element(t.cellS.begin(), t.cellS.end())},
        {"sweep.parallel_efficiency", "frac",
         sdbp::ratio(cell_sum, t.passWallS * t.jobs)},
        {"obs.armed_overhead_frac", "frac",
         sdbp::ratio(t.armedS - t.disarmedS, t.disarmedS)},
        {"ladder.residual_frac", "frac", sdbp::ratio(t.runS - rungs, t.runS)},
        {"trace_overhead_frac", "frac",
         sdbp::ratio(t.tracedS - t.untracedS, t.untracedS)},
    };
}

/** Traced run of panel or mix4. */
std::vector<Metric>
traceSerial(const std::vector<CellSpec> &specs, bool multicore,
            SpanLog &spans, Tally &tally)
{
    LayerTotals tot;
    const auto setup = setupSamples(specs, kSetupBudgetS);
    // Serial cells: the "pass" is the untraced repetitions back to
    // back, on one job.
    for (const CellSpec &spec : specs)
        traceCell(spec, spans, tally, tot, true);

    measureTelemetry(
        specs.size(),
        [&](std::size_t i, bool armed) {
            sdbp::RunConfig cfg = specs[i].cfg;
            cfg.obs.collect = armed;
            if (!multicore)
                return sdbp::runSingleCore(specs[i].benchmarks[0],
                                           specs[i].kind, cfg)
                    .wallSeconds;
            return sdbp::runMulticore(
                       {specs[i].group, specs[i].benchmarks},
                       specs[i].kind, cfg)
                .wallSeconds;
        },
        tot);
    return perLayer(tot, setup, spans);
}

/** Traced run of the sweep. */
std::vector<Metric>
traceSweep(const SweepSetup &s, SpanLog &spans, Tally &tally)
{
    LayerTotals tot;
    const auto setup = setupSamples(s.specs, kSetupBudgetS);

    // The grid, untraced and then inside a span; its cells give the
    // sweep.* metrics.
    const sdbp::sweep::Grid plain =
        sdbp::sweep::runGrid(s.rows, s.policies, s.cfg, s.opts);
    const auto g0 = Clock::now();
    const sdbp::sweep::Grid traced =
        sdbp::sweep::runGrid(s.rows, s.policies, s.cfg, s.opts);
    const auto g1 = Clock::now();
    const std::uint64_t grid_id = spans.newId();
    spans.add(grid_id, 0, grid_id, "grid", "sweep", g0, g1);
    bool all_ok = true;
    checkGrid(s, plain, tally, all_ok);
    checkGrid(s, traced, tally, all_ok);
    for (const auto &c : plain.cells)
        tot.cellS.push_back(c.wallSeconds);
    tot.passWallS = plain.wallSeconds;
    tot.jobs = plain.jobs;
    tot.untracedS += plain.wallSeconds;
    tot.tracedS += secondsBetween(g0, g1);

    // Ladder and telemetry cost on a sample of rows.
    const std::vector<CellSpec> sample = sweepSample(s);
    for (const CellSpec &spec : sample)
        traceCell(spec, spans, tally, tot, false);

    measureTelemetry(
        sample.size(),
        [&](std::size_t i, bool armed) {
            sdbp::RunConfig cfg = sample[i].cfg;
            cfg.obs.collect = armed;
            return sdbp::runSingleCore(sample[i].benchmarks[0],
                                       sample[i].kind, cfg)
                .wallSeconds;
        },
        tot);
    return perLayer(tot, setup, spans);
}

// ---------------------------------------------------------------------
// Invariant audit (perfbench_check only)

using CellCheck = std::function<void(const CellSpec &)>;

/** Run @p spec and apply the Tally checks; exits 1 when one fails. */
void
auditBody(const CellSpec &spec)
{
    Tally t;
    if (!t.record(spec, runCell(spec))) {
        std::fprintf(stderr, "%s\n", t.failures().front().c_str());
        std::fflush(stderr);
        _exit(1);
    }
}

/**
 * Run @p check on each of @p specs in a child process and count the
 * children that do not exit cleanly.  With DCHECKs compiled in, a
 * broken invariant aborts: predictor->auditInvariants() at the end of
 * each DBRB cell (collectOutcome) and the periodic cache and sampler
 * audits during the run.  The parent waits for every child.
 */
void
auditCells(const std::vector<CellSpec> &specs, Tally &tally,
           const CellCheck &check)
{
    for (const CellSpec &spec : specs) {
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            // An aborting audit must not leave a core file behind.
            struct rlimit no_core{};
            setrlimit(RLIMIT_CORE, &no_core);
            int code = 0;
            try {
                check(spec);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s: %s\n", spec.label.c_str(),
                             e.what());
                code = 1;
            }
            std::fflush(stdout);
            std::fflush(stderr);
            _exit(code);
        }
        int status = 0;
        while (waitpid(pid, &status, 0) < 0)
            if (errno != EINTR)
                throw std::runtime_error("waitpid failed");
        const std::string label = "audit/" + spec.label;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            tally.pass();
            std::printf("  %-34s ok\n", label.c_str());
        } else if (WIFSIGNALED(status)) {
            tally.fail(label, "audit aborted (signal " +
                                  std::to_string(WTERMSIG(status)) + ")");
        } else {
            tally.fail(label, "audit exited with " +
                                  std::to_string(WEXITSTATUS(status)));
        }
    }
}

/** The DBRB cells of the traced run of @p workload. */
std::vector<CellSpec>
auditSpecs(const std::string &workload, std::uint64_t seed,
           const std::string &out_dir)
{
    std::vector<CellSpec> all;
    if (workload == "panel")
        all = panelSpecs(seed);
    else if (workload == "mix4")
        all = mix4Specs(seed);
    else
        all = sweepSample(sweepSetup(seed, out_dir));
    std::vector<CellSpec> dbrb;
    for (const CellSpec &spec : all)
        if (buildEngine(spec, spec.kind).dbrb)
            dbrb.push_back(spec);
    return dbrb;
}

// ---------------------------------------------------------------------
// Output

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
report(const std::string &workload, const std::vector<Metric> &metrics,
       const Tally &tally, bool finite)
{
    for (const auto &f : tally.failures())
        std::printf("  FAILED %s\n", f.c_str());
    std::printf("workload %s: cells_failed %llu of cells_attempted %llu",
                workload.c_str(),
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()));
    if (tally.hasDigests())
        std::printf("; digest %016llx",
                    static_cast<unsigned long long>(tally.combinedDigest()));
    std::printf("\n");
    for (const auto &m : metrics)
        std::printf("  %-30s %14.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::ostringstream js;
    js << "{\"correct\": "
       << (tally.failed() == 0 && finite ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1,
                                                         tally.attempted())
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        js << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << number(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    js << "}}";
    std::fflush(stdout);
    std::cout << js.str() << std::endl;
}

// ---------------------------------------------------------------------
// Self-test

int
selfTest()
{
    int errors = 0;
    const auto expect = [&errors](bool cond, const char *what) {
        std::printf("  %-58s %s\n", what, cond ? "ok" : "FAILED");
        if (!cond)
            ++errors;
    };
    sdbp::RunConfig tiny = sdbp::RunConfig::singleCore();
    tiny.warmupInstructions = 20'000;
    tiny.measureInstructions = 80'000;
    std::vector<CellSpec> specs = gridSpecs(
        {"456.hmmer"}, {PolicyKind::Lru, PolicyKind::Sampler}, tiny, 0,
        single);

    Tally tally;
    std::vector<CellOutcome> first;
    for (int rep = 0; rep < 2; ++rep)
        for (const CellSpec &spec : specs) {
            const CellOutcome o = runCell(spec);
            tally.record(spec, o);
            if (rep == 0)
                first.push_back(o);
        }
    for (const auto &f : tally.failures())
        std::printf("    %s\n", f.c_str());
    expect(tally.attempted() == 4 && tally.failed() == 0,
           "repetitions reproduce their digests");

    CellOutcome perturbed = first[1];
    perturbed.threads[0].cycles += 1;
    perturbed.digest = digestOf(perturbed);
    tally.record(specs[1], perturbed);
    expect(tally.failed() == 1, "a perturbed digest counts as failed");

    CellSpec short_budget = specs[0];
    short_budget.label = "456.hmmer/LRU-budget";
    short_budget.cfg.measureInstructions += 1000;
    tally.record(short_budget, first[0]);
    expect(tally.failed() == 2,
           "an instruction count off the budget counts as failed");

    // A cell that throws inside the measuring loop: counted, and its
    // group left out of the simulated figures.
    Tally loop;
    const CellRunner throwing = [](const CellSpec &spec) {
        if (spec.kind == PolicyKind::Sampler)
            throw std::runtime_error("injected simulator error");
        return runCell(spec);
    };
    const std::vector<Metric> e2e =
        endToEnd(measureSerial(specs, 1e-3, loop, throwing));
    expect(loop.attempted() == 2 && loop.failed() == 1,
           "a cell that throws in the measuring loop counts as failed");
    expect(e2e.size() == 7, "the end-to-end metrics survive the throw");

#if SDBP_DCHECK_ENABLED
    expect(true, "invariant audits are compiled in");
#else
    expect(false, "invariant audits are compiled in (perfbench_check)");
#endif
    Tally audits;
    auditCells({specs[1]}, audits, auditBody);
    expect(audits.attempted() == 1 && audits.failed() == 0,
           "a DBRB cell passes its invariant audit");
    auditCells({specs[1]}, audits, [](const CellSpec &) {
        sdbp::panic("injected broken invariant");
    });
    expect(audits.attempted() == 2 && audits.failed() == 1,
           "an aborting audit counts as failed");

    CellSpec reseeded = specs[0];
    reseeded.seed = 12345;
    expect(runCell(reseeded).digest != first[0].digest,
           "the workload seed changes the simulated outcome");

    SpanLog spans(true);
    for (const CellSpec &spec : specs) {
        const LadderResult l =
            runLadder(spec, first[&spec - specs.data()], spans, 1, 0);
        for (const auto &m : l.mismatches)
            std::printf("    %s\n", m.c_str());
        expect(l.mismatches.empty(),
               ("ladder replays match the full simulation: " +
                spec.label).c_str());
    }
    sdbp::RunConfig quad = mixConfig();
    quad.warmupInstructions = 20'000;
    quad.measureInstructions = 40'000;
    const std::vector<CellSpec> mix =
        gridSpecs({"mix1"}, {PolicyKind::Sampler}, quad, 0,
                  mixBenchmarks);
    const LadderResult ml = runLadder(mix[0], runCell(mix[0]), spans, 2, 0);
    expect(ml.mismatches.empty(),
           "quad-core replayed run reproduces its digest");

    std::printf("self-test: %s\n", errors ? "FAILED" : "ok");
    return errors ? 1 : 0;
}

// ---------------------------------------------------------------------
// Command line

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    bool selfTest = false;
    bool audit = false;
    std::string outDir = ".bench_build/out";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "panel|mix4|sweep [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR]\n"
                 "       perfbench_check --audit --workload W [--seed N]\n"
                 "       perfbench_check --self-test\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--self-test" || flag == "--audit") {
            (flag == "--audit" ? a.audit : a.selfTest) = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        try {
            if (flag == "--workload")
                a.workload = v;
            else if (flag == "--seed")
                a.seed = std::stoull(v);
            else if (flag == "--seconds")
                a.seconds = std::stod(v);
            else if (flag == "--trace")
                a.trace = std::stoi(v) != 0;
            else if (flag == "--out-dir")
                a.outDir = v;
            else
                usage("unknown flag " + flag);
        } catch (const std::logic_error &) {
            usage("bad value for " + flag + ": " + v);
        }
    }
    if (!a.selfTest && a.workload != "panel" && a.workload != "mix4" &&
        a.workload != "sweep")
        usage("unknown workload '" + a.workload + "'");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    if (a.audit && !SDBP_DCHECK_ENABLED)
        usage("--audit needs the checked build (perfbench_check)");
    return a;
}

} // anonymous namespace

int
run(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    if (args.selfTest)
        return selfTest();
    std::filesystem::create_directories(args.outDir);
    if (args.audit) {
        Tally tally;
        auditCells(auditSpecs(args.workload, args.seed, args.outDir),
                   tally, auditBody);
        report("audit/" + args.workload, {}, tally, true);
        return 0;
    }

    std::printf("perfbench %s seed %llu seconds %g trace %d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Tally tally;
    SpanLog spans(args.trace);
    std::vector<Metric> metrics;
    if (args.workload == "sweep") {
        const SweepSetup s = sweepSetup(args.seed, args.outDir);
        metrics = args.trace ? traceSweep(s, spans, tally)
                             : endToEnd(measureSweep(s, args.seconds,
                                                     tally));
    } else {
        const bool multicore = args.workload == "mix4";
        const auto specs =
            multicore ? mix4Specs(args.seed) : panelSpecs(args.seed);
        metrics = args.trace
            ? traceSerial(specs, multicore, spans, tally)
            : endToEnd(measureSerial(specs, args.seconds, tally));
    }
    if (args.trace) {
        const std::string path =
            args.outDir + "/spans." + args.workload + ".json";
        if (!spans.write(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }
    bool finite = true;
    for (const auto &m : metrics)
        finite = finite && std::isfinite(m.value);
    report(args.workload, metrics, tally, finite);
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
