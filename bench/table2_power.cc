/**
 * @file
 * Table II: leakage and dynamic power of the predictor components,
 * via the analytical CACTI-substitute model (DESIGN.md §3).
 */

#include "bench/common.hh"
#include "core/sdbp.hh"
#include "power/model.hh"
#include "predictor/counting.hh"
#include "predictor/reftrace.hh"

using namespace sdbp;

int
main()
{
    bench::banner("Table II: predictor leakage and dynamic power",
                  "Table II and Sec. IV-D");

    constexpr std::uint64_t llc_blocks = 32768;

    bench::JsonReport report("table2_power",
                             "Table II and Sec. IV-D");

    PowerModel model;
    const auto llc = model.estimate(PowerModel::baselineLlcGeometry());

    // Sized for the 2 MB LLC: 2048 sets x 16 ways.
    RefTracePredictor reftrace(2048, 16);
    CountingPredictor counting(2048, 16);
    SamplingDeadBlockPredictor sampler(2048, 16);

    struct Component
    {
        std::string predictor;
        SramGeometry structures;
        SramGeometry metadata;
    };

    auto component = [&](const DeadBlockPredictor &p,
                         std::uint64_t access_bits,
                         double update_activity) {
        Component c;
        c.predictor = p.name();
        c.structures = SramGeometry{
            .name = p.name() + " structures",
            .totalBits = p.storageBits(),
            .accessBits = access_bits,
            .activity = update_activity,
        };
        c.metadata = PowerModel::metadataGeometry(
            p.name() + " metadata", p.metadataBitsPerBlock(),
            llc_blocks);
        return c;
    };

    // reftrace: 2-bit read + 15-bit signature RMW on every access.
    // counting: 5-bit entry RMW.
    // sampler: three 2-bit counters read per prediction; sampler
    // tags written on 1.6% of accesses (32/2048 sets).
    const std::vector<Component> components = {
        component(reftrace, 2 + 2 * 15, 1.0),
        component(counting, 2 * 5, 1.0),
        component(sampler, 3 * 2, 32.0 / 2048.0),
    };

    TextTable t({"Component", "Leakage (W)", "Peak dynamic (W)",
                 "Effective dynamic (W)", "Leak % of LLC",
                 "Peak dyn % of LLC"});
    for (const auto &c : components) {
        const auto s = model.estimate(c.structures);
        const auto m = model.estimate(c.metadata);
        const double leak = s.leakageW + m.leakageW;
        const double peak = s.peakDynamicW + m.peakDynamicW;
        const double eff = s.effectiveDynamicW + m.effectiveDynamicW;
        t.row()
            .cell(c.predictor)
            .cell(leak, 4)
            .cell(peak, 4)
            .cell(eff, 4)
            .cell(formatPercent(leak / llc.leakageW, 1))
            .cell(formatPercent(peak / llc.peakDynamicW, 1));
    }
    t.print(std::cout);

    std::cout << "\nBaseline LLC: " << formatDouble(llc.peakDynamicW, 2)
              << " W dynamic, " << formatDouble(llc.leakageW, 3)
              << " W leakage (calibration anchors).\n"
              << "Paper reference points (Sec. IV-D): sampler uses "
                 "3.1% of LLC dynamic and 1.2% of leakage; counting "
                 "11% and 4.7%; reftrace 2.9% leakage.\n"
              << "The model reproduces the ordering sampler < "
                 "reftrace < counting on both axes.\n";

    report.addTable("predictor leakage and dynamic power", t);
    report.note("Paper: sampler 3.1% of LLC dynamic / 1.2% leakage; "
                "counting 11% / 4.7%; reftrace 2.9% leakage");
    return bench::finish(report);
}
