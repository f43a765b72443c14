/**
 * @file
 * Reproduces Figure 7: circuit area versus (1) target clock frequency
 * (500-1500 MHz), (2) baseline vs extended functionality, and
 * (3) unified vs disjoint functional-unit pools, decomposed into the
 * sequential / inverter / buffer / logic categories of the Genus report.
 *
 * Prints the per-configuration area series and the headline ratio
 * summary quoted in Section VII-A.
 *
 * An optional argument names a JSON output file in the
 * google-benchmark shape ({"benchmarks": [{"name", <counters>}]});
 * ctest checks it against bench/baselines/bench_fig7_area.json:
 *
 *     bench_fig7_area area.json
 */
#include <cstdio>

#include "synth/area.hh"

using namespace rayflex::synth;
using namespace rayflex::core;

int
main(int argc, char **argv)
{
    const AreaModel model;
    const DatapathConfig configs[] = {kBaselineUnified, kBaselineDisjoint,
                                      kExtendedUnified,
                                      kExtendedDisjoint};
    const double freqs_mhz[] = {500, 700, 900, 1000, 1100, 1300, 1500};

    printf("=== Figure 7: circuit area vs target clock frequency ===\n");
    printf("(um^2; categories as in the Genus area report)\n\n");
    printf("%-20s %7s %12s %12s %10s %10s %12s\n", "config", "MHz",
           "sequential", "logic", "buffer", "inverter", "total");
    FILE *json = argc > 1 ? fopen(argv[1], "w") : nullptr;
    if (argc > 1 && !json) {
        fprintf(stderr, "cannot open %s for writing\n", argv[1]);
        return 1;
    }
    if (json)
        fprintf(json, "{\n  \"benchmarks\": [\n");
    bool first = true;
    for (const auto &cfg : configs) {
        for (double mhz : freqs_mhz) {
            Netlist n = Netlist::build(cfg);
            AreaReport a = model.estimate(n, mhz / 1000.0);
            printf("%-20s %7.0f %12.0f %12.0f %10.0f %10.0f %12.0f\n",
                   cfg.name().c_str(), mhz, a.sequential, a.logic,
                   a.buffer, a.inverter, a.total());
            if (json) {
                fprintf(json,
                        "%s    {\"name\": \"Fig7Area/%s/mhz:%.0f\", "
                        "\"area_total_um2\": %.17g, "
                        "\"area_sequential_um2\": %.17g, "
                        "\"area_logic_um2\": %.17g}",
                        first ? "" : ",\n", cfg.name().c_str(), mhz,
                        a.total(), a.sequential, a.logic);
                first = false;
            }
        }
        printf("\n");
    }
    if (json) {
        fprintf(json, "\n  ]\n}\n");
        fclose(json);
    }

    // Headline ratios at the paper's 1 GHz report point.
    auto total = [&](const DatapathConfig &c) {
        return model.estimate(Netlist::build(c), 1.0).total();
    };
    auto part = [&](const DatapathConfig &c) {
        return model.estimate(Netlist::build(c), 1.0);
    };
    double bu = total(kBaselineUnified);
    double bd = total(kBaselineDisjoint);
    double eu = total(kExtendedUnified);
    double ed = total(kExtendedDisjoint);

    printf("=== Section VII-A headline ratios (at 1 GHz) ===\n");
    printf("%-46s %9s %9s\n", "comparison", "paper", "measured");
    printf("%-46s %8s%% %+8.0f%%\n",
           "disjoint overhead (bd/bu - 1)", "+13", (bd / bu - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n",
           "extended overhead (eu/bu - 1)", "+36", (eu / bu - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n",
           "both overheads (ed/bu - 1)", "+92", (ed / bu - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n",
           "ext-disjoint vs base-disjoint (ed/bd - 1)", "+70",
           (ed / bd - 1) * 100);

    AreaReport rbu = part(kBaselineUnified);
    AreaReport rbd = part(kBaselineDisjoint);
    AreaReport reu = part(kExtendedUnified);
    AreaReport red = part(kExtendedDisjoint);
    printf("%-46s %8s%% %+8.0f%%\n", "logic, unified->disjoint (base)",
           "+18", (rbd.logic / rbu.logic - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n", "logic, unified->disjoint (ext)",
           "+74", (red.logic / reu.logic - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n", "logic, baseline->extended (unif)",
           "+17", (reu.logic / rbu.logic - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n", "logic, baseline->extended (disj)",
           "+72", (red.logic / rbd.logic - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n",
           "sequential, baseline->extended (unif)", "+64",
           (reu.sequential / rbu.sequential - 1) * 100);
    printf("%-46s %8s%% %+8.0f%%\n",
           "sequential, baseline->extended (disj)", "+64",
           (red.sequential / rbd.sequential - 1) * 100);
    printf("%-46s %8s%% %+8.1f%%\n",
           "sequential, unified->disjoint (either)", "+0",
           (rbd.sequential / rbu.sequential - 1) * 100);
    return 0;
}
