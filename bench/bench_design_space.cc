/**
 * @file
 * Design-space Pareto explorer: the paper's cost/benefit question
 * ("what is worth building", Figs. 7-9) asked of every subsystem this
 * repo grew past the seed datapath.
 *
 * Sweeps the cycle-accurate engine across the knob grid
 * (packet.width x issue_width x mshrs x L1 geometry x chip units/L2),
 * joins each point's simulated throughput (rays/kcycle) with the
 * component cost model's area (mm^2) and power (W) for the same
 * EngineConfig (synth::ChipCostModel), and computes the non-dominated
 * Pareto front over (throughput max, area min, power min) — the
 * configurations for which no other swept point is at least as good
 * on every axis and better on one.
 *
 * Every number is simulated and bit-deterministic: the engine's hit
 * records and merged counters are identical at every worker count, and
 * the cost model is a pure function of (config, merged stats), so this
 * sweep is reproducible to the bit across machines.
 *
 * Output: a human table on stdout plus BENCH_design_space.json (path
 * overridable as argv[1]) in the schema scripts/check_pareto.py
 * validates — dimensions, per-point knobs/metrics, and the pareto
 * flag.
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_scene.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "sim/engine.hh"
#include "synth/chip_cost.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;
using namespace rayflex::bench;

namespace
{

struct Point
{
    unsigned packet_width = 1;
    unsigned issue_width = 1;
    unsigned mshrs = 0;
    unsigned l1_kib = 4;
    std::string chip; ///< "1u" or "4u_sharedL2"

    double rays_per_kcycle = 0;
    double area_mm2 = 0;
    double power_w = 0;
    bool pareto = false;
};

/** a dominates b: at least as good on every axis, better on one.
 *  Throughput is maximized; area and power are minimized. */
bool
dominates(const Point &a, const Point &b)
{
    if (a.rays_per_kcycle < b.rays_per_kcycle || a.area_mm2 > b.area_mm2 ||
        a.power_w > b.power_w)
        return false;
    return a.rays_per_kcycle > b.rays_per_kcycle ||
           a.area_mm2 < b.area_mm2 || a.power_w < b.power_w;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path =
        argc > 1 ? argv[1] : "BENCH_design_space.json";

    const unsigned packet_widths[] = {1, 8};
    const unsigned issue_widths[] = {1, 2, 4};
    const unsigned mshr_counts[] = {0, 8};
    const unsigned l1_kibs[] = {4, 16};
    const char *chips[] = {"1u", "4u_sharedL2"};

    const Bvh4 &bvh = benchScene();
    const auto rays = benchRays(24);
    const double clock_ghz = 1.0;
    const synth::ChipCostModel cost;

    std::vector<Point> pts;
    for (unsigned pw : packet_widths)
        for (unsigned iw : issue_widths)
            for (unsigned ms : mshr_counts)
                for (unsigned kib : l1_kibs)
                    for (const char *chip : chips) {
                        sim::EngineConfig cfg;
                        cfg.threads = 2;
                        cfg.batch_size = 0; // one batch: one chip run
                        cfg.rt.ray_buffer_entries = 32 * 8;
                        cfg.rt.packet.width = pw;
                        cfg.rt.issue_width = iw;
                        cfg.rt.mshrs = ms;
                        cfg.rt.mem_backend = MemBackend::NodeCache;
                        cfg.rt.cache = kProbeCache4KiB;
                        cfg.rt.cache.sets = 16 * (kib / 4);
                        if (std::string(chip) == "4u_sharedL2") {
                            cfg.chip.units = 4;
                            cfg.chip.l2 = sim::L2Mode::Shared;
                            cfg.chip.l2cfg = kProbeL2_128KiB;
                        }

                        auto rep = sim::Engine(cfg).run(bvh, rays);
                        const uint64_t wall = rep.unit.chip_cycles
                                                  ? rep.unit.chip_cycles
                                                  : rep.unit.cycles;

                        Point p;
                        p.packet_width = pw;
                        p.issue_width = iw;
                        p.mshrs = ms;
                        p.l1_kib = kib;
                        p.chip = chip;
                        p.rays_per_kcycle =
                            wall ? 1000.0 * double(rays.size()) /
                                       double(wall)
                                 : 0.0;
                        p.area_mm2 =
                            cost.area(cfg, clock_ghz).total_mm2();
                        p.power_w =
                            cost.power(cfg, rep.unit, clock_ghz)
                                .total_w();
                        pts.push_back(std::move(p));
                    }

    for (Point &p : pts) {
        p.pareto = std::none_of(
            pts.begin(), pts.end(),
            [&](const Point &q) { return dominates(q, p); });
    }

    printf("=== Design space: rays/kcycle vs area vs power (1 GHz) "
           "===\n");
    printf("(%zu coherent primary rays on the shared bench scene; "
           "every number simulated)\n\n",
           rays.size());
    printf("%6s %5s %5s %6s %12s %12s %9s %9s %10s %7s\n", "packet",
           "issue", "mshrs", "l1KiB", "chip", "rays/kcycle", "mm^2",
           "W", "perf/W", "pareto");
    for (const Point &p : pts)
        printf("%6u %5u %5u %6u %12s %12.1f %9.3f %9.3f %10.0f %7s\n",
               p.packet_width, p.issue_width, p.mshrs, p.l1_kib,
               p.chip.c_str(), p.rays_per_kcycle, p.area_mm2, p.power_w,
               p.power_w > 0 ? p.rays_per_kcycle / p.power_w : 0.0,
               p.pareto ? "*" : "");

    size_t front = size_t(
        std::count_if(pts.begin(), pts.end(),
                      [](const Point &p) { return p.pareto; }));
    printf("\nPareto front: %zu of %zu swept points\n", front,
           pts.size());

    FILE *json = fopen(out_path, "w");
    if (!json) {
        fprintf(stderr, "cannot open %s for writing\n", out_path);
        return 1;
    }
    fprintf(json, "{\n");
    fprintf(json,
            "  \"workload\": {\"scene\": \"terrain32+sphere\", "
            "\"rays\": %zu, \"kind\": \"coherent_primaries\"},\n",
            rays.size());
    fprintf(json, "  \"clock_ghz\": %g,\n", clock_ghz);
    fprintf(json, "  \"dimensions\": {\n");
    fprintf(json, "    \"packet_width\": [1, 8],\n");
    fprintf(json, "    \"issue_width\": [1, 2, 4],\n");
    fprintf(json, "    \"mshrs\": [0, 8],\n");
    fprintf(json, "    \"l1_kib\": [4, 16],\n");
    fprintf(json,
            "    \"chip\": [\"1u\", \"4u_sharedL2\"]\n  },\n");
    fprintf(json, "  \"points\": [\n");
    for (size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        fprintf(json,
                "    {\"packet_width\": %u, \"issue_width\": %u, "
                "\"mshrs\": %u, \"l1_kib\": %u, \"chip\": \"%s\", "
                "\"rays_per_kcycle\": %.10g, \"area_mm2\": %.10g, "
                "\"power_w\": %.10g, \"perf_per_mm2\": %.10g, "
                "\"perf_per_watt\": %.10g, \"pareto\": %s}%s\n",
                p.packet_width, p.issue_width, p.mshrs, p.l1_kib,
                p.chip.c_str(), p.rays_per_kcycle, p.area_mm2,
                p.power_w,
                p.area_mm2 > 0 ? p.rays_per_kcycle / p.area_mm2 : 0.0,
                p.power_w > 0 ? p.rays_per_kcycle / p.power_w : 0.0,
                p.pareto ? "true" : "false",
                i + 1 < pts.size() ? "," : "");
    }
    fprintf(json, "  ]\n}\n");
    fclose(json);
    printf("wrote %s\n", out_path);
    return 0;
}
