/**
 * @file
 * Tests of the BVH substrate: builder invariants, datapath-driven
 * traversal against the brute-force oracle, and the cycle-level RT-unit
 * wrapper.
 */
#include <gtest/gtest.h>

#include <random>

#include "bvh/builder.hh"
#include "bvh/knn.hh"
#include "bvh/rt_unit.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"

using namespace rayflex::bvh;
using namespace rayflex::core;

namespace
{

std::vector<SceneTriangle>
smallScene(uint64_t seed)
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 8, 12);
    auto soup = makeSoup(60, 6.0f, 1.0f, seed,
                         uint32_t(tris.size()));
    tris.insert(tris.end(), soup.begin(), soup.end());
    return tris;
}

rayflex::core::Ray
randomRay(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<float> p(-8.0f, 8.0f);
    std::uniform_real_distribution<float> d(-1.0f, 1.0f);
    float dx = d(rng), dy = d(rng), dz = d(rng);
    if (dx == 0 && dy == 0 && dz == 0)
        dx = 1;
    return makeRay(p(rng), p(rng), p(rng), dx, dy, dz, 0.0f, 100.0f);
}

/** FNV-1a over every node's child kinds, indices, counts and bound
 *  bits, then the final triangle order (ids and vertex bits). */
uint64_t
treeDigest(const Bvh4 &bvh)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&](uint32_t w) {
        for (int i = 0; i < 4; ++i) {
            h ^= (w >> (8 * i)) & 0xFFu;
            h *= 1099511628211ull;
        }
    };
    auto mixVec = [&](Vec3 v) {
        mix(rayflex::fp::toBits(v.x));
        mix(rayflex::fp::toBits(v.y));
        mix(rayflex::fp::toBits(v.z));
    };
    for (const WideNode &n : bvh.nodes)
        for (const WideNode::Child &c : n.child) {
            mix(uint32_t(c.kind));
            mix(c.index);
            mix(c.count);
            mixVec(c.bounds.lo);
            mixVec(c.bounds.hi);
        }
    for (const SceneTriangle &t : bvh.tris) {
        mix(t.id);
        mixVec(t.v0);
        mixVec(t.v1);
        mixVec(t.v2);
    }
    return h;
}

} // namespace

TEST(BvhBuilder, ValidatesOnGeneratedScenes)
{
    for (uint64_t seed : {1ull, 2ull, 3ull}) {
        Bvh4 bvh = buildBvh4(smallScene(seed));
        EXPECT_EQ(validateBvh4(bvh), "") << "seed " << seed;
        EXPECT_EQ(bvh.tris.size(), smallScene(seed).size());
    }
}

TEST(BvhBuilder, HandlesEmptyAndTiny)
{
    Bvh4 empty = buildBvh4({});
    EXPECT_EQ(empty.tris.size(), 0u);

    Bvh4 one = buildBvh4({{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 7}});
    EXPECT_EQ(validateBvh4(one), "");
    ASSERT_EQ(one.tris.size(), 1u);
    EXPECT_EQ(one.tris[0].id, 7u);
}

TEST(BvhBuilder, DepthIsLogarithmicish)
{
    auto tris = makeSoup(4000, 20.0f, 0.5f, 42, 0);
    Bvh4 bvh = buildBvh4(tris);
    EXPECT_EQ(validateBvh4(bvh), "");
    // 4-wide tree over 4000 triangles: depth should be far below the
    // linear worst case.
    EXPECT_LE(bvh.depth(), 16u);
}

TEST(BvhBuilder, DuplicatePositionsDoNotBreakBuild)
{
    // All triangles at the same location: centroid spread is zero on
    // every axis, forcing the median-split fallback.
    std::vector<SceneTriangle> tris;
    for (uint32_t i = 0; i < 37; ++i)
        tris.push_back({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, i});
    Bvh4 bvh = buildBvh4(tris);
    EXPECT_EQ(validateBvh4(bvh), "");
}

TEST(BvhBuilder, TreeIsPinned)
{
    // The exact tree, node by node and triangle by triangle, as the
    // binned-SAH build produced it when these constants were recorded.
    // Every timing pin depends on it; this names a changed tree directly.
    auto scene = makeTerrain(20.0f, 32, 0.5f, 11);
    auto sphere =
        makeSphere({0, 2.0f, 0}, 2.0f, 16, 24, uint32_t(scene.size()));
    scene.insert(scene.end(), sphere.begin(), sphere.end());
    EXPECT_EQ(treeDigest(buildBvh4(std::move(scene))), 0xf59e9b0750f48254ull);

    KnnIndex knn = buildKnnIndex(makePointCloud(1000, 16, 8, 42));
    EXPECT_EQ(treeDigest(knn.bvh), 0xaa8fc055b3c5ee93ull);

    std::vector<SceneTriangle> dup;
    for (uint32_t i = 0; i < 37; ++i)
        dup.push_back({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, i});
    EXPECT_EQ(treeDigest(buildBvh4(std::move(dup))), 0x44604c93cb846e26ull);
}

TEST(BvhBuilder, SahBeatsWorstCaseChildCount)
{
    auto tris = makeTerrain(40.0f, 32, 0.5f, 9, 0);
    Bvh4 bvh = buildBvh4(tris);
    EXPECT_EQ(validateBvh4(bvh), "");
    // Every wide node should hold more than one child on average.
    EXPECT_GT(double(bvh.childCount()) / double(bvh.nodes.size()), 2.0);
}

TEST(Traversal, MatchesBruteForceOnRandomRays)
{
    Bvh4 bvh = buildBvh4(smallScene(11));
    Traverser trav(bvh);
    std::mt19937_64 rng(123);
    int hits = 0;
    for (int i = 0; i < 400; ++i) {
        rayflex::core::Ray ray = randomRay(rng);
        HitRecord a = trav.closestHit(ray);
        HitRecord b = trav.bruteForceClosest(ray);
        ASSERT_EQ(a.hit, b.hit) << "ray " << i;
        if (a.hit) {
            ++hits;
            ASSERT_EQ(a.triangle_id, b.triangle_id) << "ray " << i;
            ASSERT_FLOAT_EQ(a.t, b.t) << "ray " << i;
        }
    }
    EXPECT_GT(hits, 10); // scene is dense enough to hit often
}

TEST(Traversal, AnyHitConsistentWithClosestHit)
{
    Bvh4 bvh = buildBvh4(smallScene(13));
    Traverser trav(bvh);
    std::mt19937_64 rng(321);
    for (int i = 0; i < 300; ++i) {
        rayflex::core::Ray ray = randomRay(rng);
        HitRecord c = trav.closestHit(ray);
        EXPECT_EQ(trav.anyHit(ray), c.hit) << "ray " << i;
    }
}

TEST(Traversal, VisitsFarFewerTrianglesThanBruteForce)
{
    auto tris = makeSoup(3000, 30.0f, 0.4f, 5, 0);
    Bvh4 bvh = buildBvh4(tris);
    Traverser trav(bvh);
    std::mt19937_64 rng(55);
    for (int i = 0; i < 100; ++i)
        trav.closestHit(randomRay(rng));
    // The BVH should test only a small fraction of the 3000 triangles
    // per ray on average.
    double tris_per_ray = double(trav.stats().tri_ops) / 100.0;
    EXPECT_LT(tris_per_ray, 300.0);
    EXPECT_GT(trav.stats().box_ops, 0u);
}

TEST(Traversal, RespectsRayExtent)
{
    // A triangle at z=5; a ray whose extent ends at z=3 must miss.
    Bvh4 bvh =
        buildBvh4({{{0, 0, 5}, {0, 2, 5}, {2, 0, 5}, 0}});
    Traverser trav(bvh);
    rayflex::core::Ray short_ray = makeRay(0.5f, 0.5f, 0, 0, 0, 1, 0, 3.0f);
    rayflex::core::Ray long_ray = makeRay(0.5f, 0.5f, 0, 0, 0, 1, 0, 10.0f);
    HitRecord s = trav.closestHit(short_ray);
    HitRecord l = trav.closestHit(long_ray);
    EXPECT_FALSE(s.hit);
    ASSERT_TRUE(l.hit);
    EXPECT_NEAR(l.t, 5.0f, 1e-4f);
}

TEST(RtUnit, MatchesFunctionalTraversal)
{
    Bvh4 bvh = buildBvh4(smallScene(17));
    RayFlexDatapath dp(kBaselineUnified);
    RtUnit unit(bvh, dp);

    std::mt19937_64 rng(77);
    std::vector<rayflex::core::Ray> rays;
    for (uint32_t i = 0; i < 64; ++i) {
        rays.push_back(randomRay(rng));
        unit.submit(rays.back(), i);
    }
    RtUnitStats stats = unit.run();
    EXPECT_EQ(stats.rays_completed, 64u);
    // The unit's lanes only read dp's configuration; dp is never ticked.
    EXPECT_EQ(dp.activity().totalBeats(), 0u);
    EXPECT_EQ(dp.stages().front()->stats().cycles, 0u);

    Traverser ref(bvh);
    for (uint32_t i = 0; i < 64; ++i) {
        HitRecord want = ref.closestHit(rays[i]);
        const HitRecord &got = unit.results()[i];
        ASSERT_EQ(got.hit, want.hit) << "ray " << i;
        if (want.hit) {
            ASSERT_EQ(got.triangle_id, want.triangle_id) << "ray " << i;
            ASSERT_FLOAT_EQ(got.t, want.t) << "ray " << i;
        }
    }
}

TEST(RtUnit, UtilizationImprovesWithMoreRaysInFlight)
{
    Bvh4 bvh = buildBvh4(makeSoup(2000, 20.0f, 0.6f, 3, 0));
    std::mt19937_64 rng(99);
    std::vector<rayflex::core::Ray> rays;
    for (int i = 0; i < 128; ++i)
        rays.push_back(randomRay(rng));

    auto run_with = [&](unsigned entries) {
        RayFlexDatapath dp(kBaselineUnified);
        RtUnitConfig cfg;
        cfg.ray_buffer_entries = entries;
        RtUnit unit(bvh, dp, cfg);
        for (uint32_t i = 0; i < rays.size(); ++i)
            unit.submit(rays[i], i);
        return unit.run();
    };

    RtUnitStats one = run_with(1);
    RtUnitStats many = run_with(32);
    EXPECT_GT(many.utilization(), one.utilization());
    EXPECT_LT(many.cycles, one.cycles);
}

TEST(RtUnit, MemoryLatencyCostsCycles)
{
    Bvh4 bvh = buildBvh4(makeSoup(500, 15.0f, 0.6f, 4, 0));
    std::mt19937_64 rng(111);
    std::vector<rayflex::core::Ray> rays;
    for (int i = 0; i < 32; ++i)
        rays.push_back(randomRay(rng));

    auto run_with = [&](unsigned latency) {
        RayFlexDatapath dp(kBaselineUnified);
        RtUnitConfig cfg;
        cfg.mem_latency = latency;
        RtUnit unit(bvh, dp, cfg);
        for (uint32_t i = 0; i < rays.size(); ++i)
            unit.submit(rays[i], i);
        return unit.run();
    };

    RtUnitStats fast = run_with(2);
    RtUnitStats slow = run_with(100);
    EXPECT_LT(fast.cycles, slow.cycles);
    // Results must not depend on memory latency.
    EXPECT_EQ(fast.rays_completed, slow.rays_completed);
}

TEST(Scene, GeneratorsProduceFiniteGeometry)
{
    for (const auto &tris :
         {makeSphere({1, 2, 3}, 2.0f, 6, 8), makeTorus({0, 0, 0}, 3.0f,
                                                       1.0f, 8, 8),
          makeTerrain(10.0f, 8, 0.4f, 1), makeSoup(50, 5.0f, 1.0f, 2)}) {
        EXPECT_FALSE(tris.empty());
        for (const auto &t : tris) {
            for (const Vec3 &v : {t.v0, t.v1, t.v2}) {
                EXPECT_TRUE(std::isfinite(v.x));
                EXPECT_TRUE(std::isfinite(v.y));
                EXPECT_TRUE(std::isfinite(v.z));
            }
        }
    }
}

TEST(Scene, CameraRaysCoverTheFrustum)
{
    Camera cam;
    cam.width = 8;
    cam.height = 8;
    rayflex::core::Ray centre = cam.primaryRay(4, 4, 100.0f);
    rayflex::core::Ray corner = cam.primaryRay(0, 0, 100.0f);
    // Both normalized directions, distinct.
    EXPECT_NE(centre.dir, corner.dir);
}

TEST(Scene, PointCloudShape)
{
    auto pts = makePointCloud(100, 24, 4, 9);
    ASSERT_EQ(pts.size(), 100u);
    for (const auto &p : pts) {
        EXPECT_EQ(p.coords.size(), 24u);
        for (float c : p.coords)
            EXPECT_TRUE(std::isfinite(c));
    }
}
