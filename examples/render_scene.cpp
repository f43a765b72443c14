/**
 * @file
 * Usage: render_scene [key=value ...], the keys as in parseArgs.
 * Renders a procedural scene through the RayFlex datapath into a PPM,
 * bit-identical for every `threads`. Any run key then adds ONE
 * cycle-accurate run of the primary batch on the configuration the keys
 * describe, and its report; a comparison is two invocations.
 */
#include <algorithm>
#include <array>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "obs/perfetto.hh"
#include "sim/config.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"
#include "synth/chip_cost.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

/** The scenes buildScene knows, as the `scene` key spells them. */
constexpr std::array<const char *, 4> kScenes{"sphere", "torus", "terrain",
                                              "mixed"};

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

/** A preset: a run key naming a layer of EngineConfig settings, its
 *  value in [lo, hi]. */
struct Preset
{
    const char *name;
    unsigned lo, hi;
    void (*apply)(sim::EngineConfig &, unsigned);
};

/** The presets, in the order their layers apply; a table key
 *  (sim/config.hh) given by name applies after them all. */
const Preset kPresets[] = {
    {"cache", 0, 1,
     [](sim::EngineConfig &c, unsigned on) {
         if (on) { // else the flat 20-cycle fetch
             c.rt.mem_backend = MemBackend::NodeCache;
             c.rt.cache = kProbeCache4KiB;
         }
     }},
    {"packet", 1, kMaxPacketWidth,
     [](sim::EngineConfig &c, unsigned w) {
         c.rt.packet.width = w; // a W-wide slot holds W rays
         c.rt.ray_buffer_entries *= w;
     }},
    {"issue", 1, kMaxIssueWidth,
     [](sim::EngineConfig &c, unsigned n) {
         c.rt.issue_width = n;
         c.rt.mshrs = 8;
     }},
    {"chip", 1, sim::kMaxChipUnits,
     [](sim::EngineConfig &c, unsigned n) {
         c.threads = 1; // one batch, so one chip serves the whole frame
         c.batch_size = 0;
         c.chip.units = n;
         c.chip.l2 = sim::L2Mode::Shared;
         c.chip.l2cfg = kProbeL2_128KiB;
     }},
};

/** The command line. */
struct Options
{
    unsigned width = 160, height = 120, ao = 0;
    std::string scene = "mixed", out = "render.ppm", trace;
    bool stream = false;
    sim::EngineConfig render; ///< the functional engine of the image
    sim::EngineConfig run;    ///< the configured cycle-accurate run's
    bool configured = false;  ///< any run key was given
};

/** The Options that key=value arguments describe: the render keys
 *  width, height, scene (sphere|torus|terrain|mixed), out (the PPM),
 *  threads (0: all) and ao (rays per hit pixel), then the run keys:
 *  the presets, stream, trace (a Chrome JSON path) and any table key. */
Options
parseArgs(int argc, char **argv)
{
    Options o;
    o.render.batch_size = 2048;
    o.render.model = sim::ExecutionModel::Functional;
    std::optional<unsigned> preset[std::size(kPresets)];
    std::vector<std::string> keys; // table keys, in argument order
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const size_t eq = arg.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument("expected key=value, got '" +
                                            arg + "'");
            const std::string key = arg.substr(0, eq);
            const std::string val = arg.substr(eq + 1);
            const auto number = [&](unsigned lo, unsigned hi) {
                return unsigned(sim::parseNumber(key, val, lo, hi));
            };
            if (key == "width") {
                o.width = number(1, UINT_MAX);
            } else if (key == "height") {
                o.height = number(1, UINT_MAX);
            } else if (key == "threads") {
                o.render.threads = number(0, UINT_MAX);
            } else if (key == "ao") {
                o.ao = number(0, UINT_MAX);
            } else if (key == "scene") {
                if (std::find(kScenes.begin(), kScenes.end(), val) ==
                    kScenes.end()) {
                    std::string msg = "scene must be one of ";
                    for (const char *n : kScenes)
                        msg += std::string(n) +
                               (n == kScenes.back() ? "; " : ", ");
                    throw std::invalid_argument(msg + "got '" + val + "'");
                }
                o.scene = val;
            } else if (key == "out") {
                o.out = val;
            } else {
                o.configured = true;
                const Preset *p = std::find_if(
                    std::begin(kPresets), std::end(kPresets),
                    [&](const Preset &q) { return key == q.name; });
                if (key == "stream")
                    o.stream = number(0, 1);
                else if (key == "trace")
                    o.trace = val;
                else if (p != std::end(kPresets))
                    preset[p - kPresets] = number(p->lo, p->hi);
                else
                    keys.push_back(arg);
            }
        }
        o.run = o.render;
        o.run.model = sim::ExecutionModel::CycleAccurate;
        o.run.trace = !o.trace.empty();
        for (size_t i = 0; i < std::size(kPresets); ++i)
            if (preset[i])
                kPresets[i].apply(o.run, *preset[i]);
        for (const std::string &k : keys)
            sim::setConfigKey(o.run, k);
    } catch (const std::invalid_argument &e) {
        fprintf(stderr, "render_scene: %s\n", e.what());
        std::exit(2);
    }
    return o;
}

/** Run `primary` on the configured run's engine and print the
 *  report. */
void
runAndReport(const Options &o, const Bvh4 &bvh,
             const std::vector<Ray> &primary)
{
    const sim::EngineConfig &cfg = o.run;
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
    if (cfg.rt.mem_backend == MemBackend::NodeCache)
        printf("  cache: %.1f%% hit rate (%llu hits / %llu misses / "
               "%llu evictions)\n",
               100.0 * u.mem.hitRate(), (unsigned long long)u.mem.hits,
               (unsigned long long)u.mem.misses,
               (unsigned long long)u.mem.evictions);
    if (cfg.rt.packet.width > 1)
        printf("  packet: %.2f fetches/ray shared, %llu packets, avg "
               "occupancy %.2f/%u per node visit\n",
               double(u.packet.fetches_shared) / n,
               (unsigned long long)u.packet.packets_formed,
               u.packet.avgOccupancy(), cfg.rt.packet.width);
    if (cfg.rt.issue_width > 1 || cfg.rt.mshrs > 0)
        printf("  issue: %.2f beats/cycle, %llu MSHR merges, %llu "
               "stalls-full\n",
               u.utilization(), (unsigned long long)u.mshr.merges,
               (unsigned long long)u.mshr.stalls_full);
    const L2Stats l2 = u.l2Total(); // all-zero off a chip
    if (cfg.chip.active())
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

    // Primary closest-hit, shadow any-hit and optional AO passes.
    sim::PassesReport passes =
        sim::renderPasses(sim::Engine(o.render), bvh, pcfg);

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

    if (o.configured)
        runAndReport(o, bvh,
                     RayGen::primaryRays(pcfg.camera, pcfg.t_max));
    return 0;
}
