/**
 * @file
 * The bench scene shared by bench_sim_engine and bench_design_space:
 * rolling terrain with an embedded sphere (~2.4k triangles), and a
 * square camera framed on it.
 */
#ifndef RAYFLEX_BENCH_BENCH_SCENE_HH
#define RAYFLEX_BENCH_BENCH_SCENE_HH

#include <vector>

#include "bvh/builder.hh"
#include "bvh/scene.hh"

namespace rayflex::bench
{

inline const bvh::Bvh4 &
benchScene()
{
    static const bvh::Bvh4 scene = [] {
        auto tris = bvh::makeTerrain(20.0f, 32, 0.5f, 11);
        uint32_t id = uint32_t(tris.size());
        auto sphere = bvh::makeSphere({0, 2.0f, 0}, 2.0f, 16, 24, id);
        tris.insert(tris.end(), sphere.begin(), sphere.end());
        return bvh::buildBvh4(std::move(tris));
    }();
    return scene;
}

/** The side x side primary rays of a camera framed on benchScene(). */
inline std::vector<core::Ray>
benchRays(unsigned side)
{
    const bvh::Bvh4 &scene = benchScene();
    bvh::Camera cam;
    bvh::Vec3 c = scene.root_bounds.centre();
    bvh::Vec3 ext = scene.root_bounds.hi - scene.root_bounds.lo;
    cam.look_at = c;
    cam.eye = c + bvh::Vec3{0.4f * ext.x, 0.5f * ext.y, 1.3f * ext.z};
    cam.width = side;
    cam.height = side;
    std::vector<core::Ray> rays;
    for (unsigned y = 0; y < side; ++y)
        for (unsigned x = 0; x < side; ++x)
            rays.push_back(cam.primaryRay(x, y, 1000.0f));
    return rays;
}

} // namespace rayflex::bench

#endif // RAYFLEX_BENCH_BENCH_SCENE_HH
