/**
 * @file
 * Usage: render_scene [key=value ...], the keys as in parseArgs.
 * Renders a procedural scene through the RayFlex datapath into a PPM,
 * bit-identical for every `threads`. Any run key then adds ONE
 * cycle-accurate run of the primary batch on the configuration the keys
 * describe, and its report; a comparison is two invocations.
 */
#include <algorithm>
#include <charconv>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "obs/perfetto.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"
#include "synth/chip_cost.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

std::vector<SceneTriangle>
buildScene(const std::string &name)
{
    if (name == "sphere")
        return makeSphere({0, 0, 0}, 2.5f, 32, 48);
    if (name == "torus")
        return makeTorus({0, 0, 0}, 2.5f, 0.9f, 48, 32);
    if (name == "terrain")
        return makeTerrain(12.0f, 64, 0.7f, 3);
    // mixed: a sphere resting on a terrain patch with a torus around it
    auto tris = makeTerrain(14.0f, 48, 0.35f, 3);
    uint32_t id = uint32_t(tris.size());
    auto sphere = makeSphere({0, 2.0f, 0}, 1.6f, 24, 32, id);
    tris.insert(tris.end(), sphere.begin(), sphere.end());
    id = uint32_t(tris.size());
    auto torus = makeTorus({0, 2.0f, 0}, 3.2f, 0.45f, 40, 20, id);
    tris.insert(tris.end(), torus.begin(), torus.end());
    return tris;
}

/** The command line. issue and chip are 0 when not given. */
struct Options
{
    unsigned width = 160, height = 120, threads = 0, ao = 0;
    std::string scene = "mixed", out = "render.ppm", trace;
    unsigned cache = 0, packet = 1, issue = 0, chip = 0, stream = 0;
    bool run = false; ///< any run key was given
};

/** The Options that key=value arguments describe. */
Options
parseArgs(int argc, char **argv)
{
    const auto badInput = [](const std::string &msg) {
        fprintf(stderr, "render_scene: %s\n", msg.c_str());
        std::exit(2);
    };
    Options o;
    // A key sets a number in [lo, hi], or a text.
    struct Key
    {
        const char *name;
        unsigned *num;
        std::string *text;
        unsigned lo, hi;
        bool run;
    };
    const Key keys[] = {
        {"width", &o.width, nullptr, 1, UINT_MAX, false},
        {"height", &o.height, nullptr, 1, UINT_MAX, false},
        {"scene", nullptr, &o.scene, 0, 0, false}, // sphere|torus|terrain
        {"out", nullptr, &o.out, 0, 0, false},     // the PPM
        {"threads", &o.threads, nullptr, 0, UINT_MAX, false}, // 0: all
        {"ao", &o.ao, nullptr, 0, UINT_MAX, false}, // rays per hit pixel
        {"cache", &o.cache, nullptr, 0, 1, true},
        {"packet", &o.packet, nullptr, 1, kMaxPacketWidth, true},
        {"issue", &o.issue, nullptr, 1, kMaxIssueWidth, true},
        {"chip", &o.chip, nullptr, 1, sim::kMaxChipUnits, true},
        {"stream", &o.stream, nullptr, 0, 1, true},
        {"trace", nullptr, &o.trace, 0, 0, true}, // Chrome JSON path
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const Key *k =
            std::find_if(std::begin(keys), std::end(keys),
                         [&](const Key &c) { return key == c.name; });
        if (eq == std::string::npos || k == std::end(keys))
            badInput("unknown key '" + key + "' (expected key=value)");
        const std::string val = arg.substr(eq + 1);
        const char *end = val.data() + val.size();
        unsigned v = 0;
        const auto [p, ec] = std::from_chars(val.data(), end, v);
        if (k->text)
            *k->text = val;
        else if (ec != std::errc() || p != end || v < k->lo || v > k->hi)
            badInput(key + " must be an integer in " +
                     std::to_string(k->lo) + ".." + std::to_string(k->hi) +
                     ", got '" + val + "'");
        else
            *k->num = v;
        o.run |= k->run;
    }
    return o;
}

/** Run `primary` on the configuration the run keys describe, layered
 *  on the render's engine configuration `cfg`, and print the report. */
void
runAndReport(const Options &o, sim::EngineConfig cfg, const Bvh4 &bvh,
             const std::vector<Ray> &primary)
{
    cfg.model = sim::ExecutionModel::CycleAccurate;
    cfg.trace = !o.trace.empty();
    if (o.cache) { // else the flat 20-cycle fetch
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
    }
    cfg.rt.packet.width = o.packet; // a W-wide slot holds W rays
    cfg.rt.ray_buffer_entries *= o.packet;
    if (o.issue) {
        cfg.rt.issue_width = o.issue;
        cfg.rt.mshrs = 8;
    }
    if (o.chip) { // one batch, so one chip serves the whole frame
        cfg.threads = 1;
        cfg.batch_size = 0;
        cfg.chip.units = o.chip;
        cfg.chip.l2 = sim::L2Mode::Shared;
        cfg.chip.l2cfg = kProbeL2_128KiB;
    }
    const sim::Engine engine(cfg);
    sim::StreamReport stream; // filled with stream=1
    sim::EngineReport batch;  // filled without it
    if (o.stream) {
        // A frame job racing four probes: its first 64 rays, staggered.
        std::vector<Ray> small = primary;
        small.resize(std::min<size_t>(64, small.size()));
        std::vector<sim::RenderJob> jobs{{0, 0, false, primary}};
        for (unsigned c = 1; c <= 4; ++c)
            jobs.push_back({c, 400ull * c, false, small});
        stream = sim::StreamingService::run(engine, bvh, std::move(jobs),
                                            {.batch_size = 256});
    } else {
        batch = engine.run(bvh, primary);
    }
    const RtUnitStats &u = o.stream ? stream.unit : batch.unit;
    const double n =
        o.stream ? double(stream.total_rays) : double(primary.size());
    printf("cycle-accurate %s: %.2f cycles/ray, %.2f mem-stall "
           "slots/ray, %.2f requests/ray\n",
           o.stream ? "stream (frame + 4 probe jobs)" : "primary batch",
           double(u.cycles) / n, double(u.slots.memoryStallSlots()) / n,
           double(u.mem_requests) / n);
    if (o.cache)
        printf("  cache: %.1f%% hit rate (%llu hits / %llu misses / "
               "%llu evictions)\n",
               100.0 * u.mem.hitRate(), (unsigned long long)u.mem.hits,
               (unsigned long long)u.mem.misses,
               (unsigned long long)u.mem.evictions);
    if (o.packet > 1)
        printf("  packet: %.2f fetches/ray shared, %llu packets, avg "
               "occupancy %.2f/%u per node visit\n",
               double(u.packet.fetches_shared) / n,
               (unsigned long long)u.packet.packets_formed,
               u.packet.avgOccupancy(), o.packet);
    if (o.issue)
        printf("  issue: %.2f beats/cycle, %llu MSHR merges, %llu "
               "stalls-full\n",
               u.utilization(), (unsigned long long)u.mshr.merges,
               (unsigned long long)u.mshr.stalls_full);
    const L2Stats l2 = u.l2Total(); // all-zero off a chip
    if (o.chip)
        printf("  chip: %.1f rays/kcycle, %.1f%% L2 hit rate, %.2f "
               "cross-unit merges/ray, %.2f bank-queue stalls/ray\n",
               1000.0 * n / double(u.chip_cycles), 100.0 * l2.hitRate(),
               double(l2.cross_unit_merges) / n,
               double(l2.queue_stalls) / n);
    if (o.stream) {
        std::vector<unsigned long long> lat; // the probe jobs' latencies
        for (const sim::JobReport &j : stream.jobs)
            if (j.id != 0)
                lat.push_back(j.latency);
        std::sort(lat.begin(), lat.end());
        printf("  stream: probe p50/p99 %llu/%llu cycles, %.1f%% "
               "cross-job shared fetches, fairness %.2f\n",
               lat[(lat.size() - 1) / 2], lat.back(),
               100.0 * stream.crossJobShareRate(), stream.fairness);
    }
    if (cfg.trace) { // for ui.perfetto.dev or chrome://tracing
        std::ofstream tf(o.trace);
        obs::writeChromeTrace(tf, o.stream ? stream.trace : batch.trace);
    }
    const double slots = double(u.slots.total());
    printf("  issue slots:");
    for (size_t s = 0; s < obs::kSlotBuckets; ++s)
        printf(" %s %.1f%%", obs::slotName(obs::Slot(s)),
               100.0 * double(u.slots.buckets[s]) / slots);
    printf("\n");
    // Area from the config, power from this run's counters, at 1 GHz.
    const synth::ChipCostModel cost;
    const synth::ChipAreaReport area = cost.area(cfg, 1.0);
    const synth::ChipPowerReport power = cost.power(cfg, u, 1.0);
    const double kcycles =
        double(u.chip_cycles ? u.chip_cycles : u.cycles) / 1000.0;
    printf("  cost at 1 GHz: %.3f mm^2, %.3f W, %.0f rays/kcycle/W;",
           area.total_mm2(), power.total_w(), n / kcycles / power.total_w());
    for (size_t i = 0; i < power.components.size(); ++i) {
        const synth::ComponentCost &c = power.components[i];
        printf("%s %s %.3f mm^2 / %.1f mW", i ? "," : "", c.name.c_str(),
               area.components[i].area_um2 * 1e-6,
               (c.dynamic_w + c.leakage_w) * 1e3);
    }
    printf("\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);

    Bvh4 bvh = buildBvh4(buildScene(o.scene));
    printf("scene '%s': %zu triangles, %zu wide nodes, depth %u\n",
           o.scene.c_str(), bvh.tris.size(), bvh.nodes.size(),
           bvh.depth());

    Vec3 c = bvh.root_bounds.centre();
    Vec3 ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    Vec3 eye = c + Vec3{0.8f * ext.x, 0.7f * ext.y, 1.1f * ext.z};

    sim::PassConfig pcfg;
    pcfg.camera.eye = {eye.x, eye.y, eye.z};
    pcfg.camera.look_at = {c.x, c.y, c.z};
    pcfg.camera.width = o.width;
    pcfg.camera.height = o.height;
    pcfg.t_max = 1000.0f;
    pcfg.light_dir = {0.5f, 1.0f, 0.3f};
    pcfg.ao_samples = o.ao;
    pcfg.ao_radius = 0.25f * length(ext);

    sim::EngineConfig ecfg;
    ecfg.threads = o.threads;
    ecfg.batch_size = 2048;
    ecfg.model = sim::ExecutionModel::Functional;

    // Primary closest-hit, shadow any-hit and optional AO passes.
    sim::PassesReport passes =
        sim::renderPasses(sim::Engine(ecfg), bvh, pcfg);

    // ---- resolve to the image ----
    std::ofstream f(o.out, std::ios::binary);
    f << "P6\n" << o.width << " " << o.height << "\n255\n";
    size_t shaded = 0;
    for (unsigned y = 0; y < o.height; ++y) {
        for (unsigned x = 0; x < o.width; ++x) {
            size_t i = size_t(y) * o.width + x;
            const HitRecord &hit = passes.primary.hits[i];
            float rgb[3];
            if (!hit.hit) {
                // Sky gradient.
                float t = float(y) / float(o.height);
                rgb[0] = 0.45f + 0.25f * t;
                rgb[1] = 0.60f + 0.20f * t;
                rgb[2] = 0.90f;
            } else {
                ++shaded;
                float shade =
                    0.15f * passes.ao_open[i] +
                    (passes.lit[i] ? 0.85f * passes.diffuse[i] : 0.0f);
                // Stable per-triangle albedo from the id.
                uint32_t h = hit.triangle_id * 2654435761u;
                for (unsigned k = 0; k < 3; ++k) {
                    const float byte = float((h >> 8 * k) & 0xFF);
                    rgb[k] = shade * (0.4f + 0.6f * byte / 255);
                }
            }
            for (unsigned k = 0; k < 3; ++k)
                f.put(char(static_cast<unsigned char>(
                    255.0f * std::min(1.0f, rgb[k]))));
        }
    }
    f.close();

    const TraversalStats &st = passes.traversal;
    const unsigned long long rays = passes.total_rays;
    double wall = passes.elapsed_seconds;
    printf("wrote %s (%ux%u), %zu/%u pixels shaded\n", o.out.c_str(),
           o.width, o.height, shaded, o.width * o.height);
    printf("engine: %u worker(s), %zu + %zu + %zu batches, %llu rays in "
           "%.3f s (%.0f rays/s host-side)\n",
           passes.primary.threads_used, passes.primary.batches,
           passes.shadow.batches, passes.ao.batches, rays, wall,
           wall > 0 ? double(rays) / wall : 0.0);
    printf("datapath work: %llu ray-box beats, %llu ray-triangle beats "
           "over %llu rays\n  %.1f box + %.1f triangle beats per ray; at "
           "1 op/cycle and 1455 MHz one datapath\n  sustains %.1f Mray/s "
           "on this scene\n",
           (unsigned long long)st.box_ops, (unsigned long long)st.tri_ops,
           rays, double(st.box_ops) / double(rays),
           double(st.tri_ops) / double(rays),
           1455.0 / (double(st.box_ops + st.tri_ops) / double(rays)));

    if (o.run)
        runAndReport(o, ecfg, bvh,
                     RayGen::primaryRays(pcfg.camera, pcfg.t_max));
    return 0;
}
