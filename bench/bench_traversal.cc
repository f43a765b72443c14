/**
 * @file
 * End-to-end traversal bench: the RT-unit wrapper driving the pipelined
 * datapath over procedural scenes (the workload class that motivates
 * the paper's Fig. 2 / Fig. 3 structure), now run through the sharded
 * batch simulation engine. Reports datapath beats per ray, utilization,
 * and sensitivity to ray-buffer size and node-fetch latency. Every
 * number is modeled, so the output is deterministic; worker scaling is
 * measured by bench_sim_engine's BM_EngineCycleAccurate.
 */
#include <cstdio>

#include <random>

#include "bvh/scene.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

std::vector<Ray>
cameraRays(const Bvh4 &bvh, unsigned n_side)
{
    Camera cam;
    Vec3 c = bvh.root_bounds.centre();
    Vec3 ext = bvh.root_bounds.hi - bvh.root_bounds.lo;
    cam.look_at = c;
    cam.eye = c + Vec3{0.4f * ext.x, 0.3f * ext.y, 1.4f * ext.z};
    cam.width = n_side;
    cam.height = n_side;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < n_side; ++y)
        for (unsigned x = 0; x < n_side; ++x)
            rays.push_back(cam.primaryRay(x, y, 1000.0f));
    return rays;
}

void
runScene(const char *name, std::vector<SceneTriangle> tris)
{
    Bvh4 bvh = buildBvh4(std::move(tris));
    std::vector<Ray> rays = cameraRays(bvh, 24);

    // One batch per scene: the engine reproduces the unsharded
    // single-unit run exactly, so the per-ray cycle numbers stay
    // comparable with the seed's.
    sim::EngineConfig cfg;
    cfg.batch_size = 0;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    const RtUnitStats &st = rep.unit;

    size_t hits = 0;
    for (const auto &r : rep.hits)
        hits += r.hit ? 1 : 0;

    printf("%-14s %8zu %7zu %6.1f%% %10.1f %10.1f %8.1f%% %9.1f\n", name,
           bvh.tris.size(), rays.size(),
           100.0 * double(hits) / double(rays.size()),
           double(st.datapath_beats) / double(rays.size()),
           double(st.cycles) / double(rays.size()),
           100.0 * st.utilization(),
           1455e6 / (double(st.cycles) / double(rays.size())) / 1e6);
}

} // namespace

int
main()
{
    printf("=== RT-unit traversal over procedural scenes ===\n");
    printf("(engine, one RT unit per scene: one datapath, 32-entry ray "
           "buffer, 20-cycle node fetch)\n\n");
    printf("%-14s %8s %7s %7s %10s %10s %9s %9s\n", "scene", "tris",
           "rays", "hit%", "beats/ray", "cyc/ray", "util", "Mray/s*");
    runScene("sphere", makeSphere({0, 0, 0}, 3.0f, 24, 32));
    runScene("torus", makeTorus({0, 0, 0}, 3.0f, 1.0f, 32, 24));
    runScene("terrain", makeTerrain(30.0f, 48, 0.6f, 11));
    runScene("soup-10k", makeSoup(10000, 20.0f, 0.8f, 5));
    printf("(* single datapath at the Quadro RTX 6000 clock of "
           "1455 MHz)\n\n");

    // Sensitivity: ray-buffer entries x memory latency on one scene.
    // One worker, one batch: exactly the unsharded RT unit.
    printf("=== Utilization sensitivity (terrain scene) ===\n");
    Bvh4 bvh = buildBvh4(makeTerrain(30.0f, 48, 0.6f, 11));
    std::vector<Ray> rays = cameraRays(bvh, 20);
    printf("%-10s %-10s %12s %12s\n", "entries", "mem-lat",
           "cycles/ray", "utilization");
    for (unsigned entries : {1u, 4u, 16u, 64u}) {
        for (unsigned lat : {5u, 20u, 80u}) {
            sim::EngineConfig cfg;
            cfg.threads = 1;
            cfg.batch_size = 0; // whole workload in one batch
            cfg.rt.ray_buffer_entries = entries;
            cfg.rt.mem_latency = lat;
            sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
            printf("%-10u %-10u %12.1f %11.1f%%\n", entries, lat,
                   double(rep.unit.cycles) / double(rays.size()),
                   100.0 * rep.unit.utilization());
        }
    }

    printf("\nTakeaway: a single 11-stage II=1 datapath needs tens of "
           "rays in flight to stay\nbusy under realistic node-fetch "
           "latency - consistent with the paper's estimate\nthat a full "
           "RT unit wraps ~7.6 RayFlex-equivalents with warp-level "
           "parallelism.\n");
    return 0;
}
