/**
 * @file
 * Reproduces Figure 8: power consumption when executing each operating
 * mode at full throughput, for the four design configurations at 1 GHz.
 *
 * Methodology mirrors the paper (Section VI): each mode's stimulus is a
 * testbench of 100 random test cases run through the *pipelined*
 * cycle-accurate model; the recorded activity trace (the VCD analogue)
 * drives the power model.
 *
 * An optional argument names a JSON output file in the
 * google-benchmark shape; ctest checks it against
 * bench/baselines/bench_fig8_power.json:
 *
 *     bench_fig8_power power.json
 */
#include <cstdio>

#include "core/datapath.hh"
#include "core/workloads.hh"
#include "synth/power.hh"

using namespace rayflex::core;
using namespace rayflex::synth;

namespace
{

/** Power for `op` on `cfg` from a 100-case pipelined testbench. */
PowerReport
measure(const DatapathConfig &cfg, Opcode op)
{
    RayFlexDatapath dp(cfg);
    WorkloadGen gen(0xF18u ^ unsigned(op));
    std::vector<DatapathInput> stimulus = gen.batch(op, 100);
    dp.resetActivity();
    runBatch(dp, stimulus);

    // Full-throughput accounting: the paper reports power at one beat
    // per cycle, so scale the trace to the beats actually processed.
    ActivityTrace trace = dp.activity();
    trace.cycles = trace.totalBeats();
    return PowerModel().estimate(Netlist::build(cfg), trace, 1.0);
}

} // namespace

int
main(int argc, char **argv)
{
    const DatapathConfig configs[] = {kBaselineUnified, kBaselineDisjoint,
                                      kExtendedUnified,
                                      kExtendedDisjoint};
    const char *op_names[] = {"ray_box", "ray_triangle", "euclidean",
                              "cosine"};

    printf("=== Figure 8: power at full throughput, 1 GHz (mW) ===\n");
    printf("(stimulus: 100 random test cases per mode through the "
           "pipelined model)\n\n");
    printf("%-20s %10s %12s %11s %9s\n", "config", "ray-box",
           "ray-triangle", "euclidean", "cosine");
    FILE *json = argc > 1 ? fopen(argv[1], "w") : nullptr;
    if (argc > 1 && !json) {
        fprintf(stderr, "cannot open %s for writing\n", argv[1]);
        return 1;
    }
    if (json)
        fprintf(json, "{\n  \"benchmarks\": [\n");
    bool first = true;
    double p[4][4] = {};
    for (int c = 0; c < 4; ++c) {
        const DatapathConfig &cfg = configs[c];
        printf("%-20s", cfg.name().c_str());
        for (int o = 0; o < 4; ++o) {
            Opcode op = static_cast<Opcode>(o);
            if (!cfg.extended &&
                (op == Opcode::Euclidean || op == Opcode::Cosine)) {
                printf(" %*s", o == 1 ? 12 : o == 2 ? 11 : o == 3 ? 9
                                                                  : 10,
                       "-");
                continue;
            }
            p[c][o] = measure(cfg, op).total() * 1e3;
            printf(" %*.1f", o == 1 ? 12 : o == 2 ? 11 : o == 3 ? 9 : 10,
                   p[c][o]);
            if (json) {
                fprintf(json,
                        "%s    {\"name\": \"Fig8Power/%s/%s\", "
                        "\"power_total_mw\": %.17g}",
                        first ? "" : ",\n", cfg.name().c_str(),
                        op_names[o], p[c][o]);
                first = false;
            }
        }
        printf("\n");
    }
    if (json) {
        fprintf(json, "\n  ]\n}\n");
        fclose(json);
    }

    printf("\n=== Section VII-B headline comparisons ===\n");
    printf("%-52s %8s %9s\n", "comparison", "paper", "measured");
    printf("%-52s %7s%% %+8.0f%%\n",
           "extended vs baseline, ray-box (unified)", "+18",
           (p[2][0] / p[0][0] - 1) * 100);
    printf("%-52s %7s%% %+8.0f%%\n",
           "extended vs baseline, ray-triangle (unified)", "+20",
           (p[2][1] / p[0][1] - 1) * 100);
    printf("%-52s %7s%% %+8.1f%%\n",
           "disjoint vs unified, ray-box (baseline)", "+/-2.5",
           (p[1][0] / p[0][0] - 1) * 100);
    printf("%-52s %7s%% %+8.1f%%\n",
           "disjoint vs unified, ray-triangle (baseline)", "+/-2.5",
           (p[1][1] / p[0][1] - 1) * 100);
    printf("%-52s %7s%% %+8.1f%%\n",
           "disjoint vs unified, euclidean (squarers)", "-9",
           (p[3][2] / p[2][2] - 1) * 100);
    printf("%-52s %7s%% %+8.1f%%\n",
           "disjoint vs unified, cosine (squarers)", "-3",
           (p[3][3] / p[2][3] - 1) * 100);

    double lo = 1e9, hi = 0;
    for (int c = 0; c < 4; ++c) {
        for (int o = 0; o < 4; ++o) {
            if (p[c][o] == 0)
                continue;
            lo = std::min(lo, p[c][o]);
            hi = std::max(hi, p[c][o]);
        }
    }
    printf("%-52s %8s  %4.0f-%2.0f\n", "power range across all cases (mW)",
           "60-85", lo, hi);
    return 0;
}
