/**
 * @file
 * Tests of the sharded batch simulation engine: the determinism
 * contract (bit-identical per-ray hits and merged statistics at every
 * thread count), agreement with the unsharded single-unit path, and
 * the batch-slicing edge cases.
 */
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/stages.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::core;
using namespace rayflex::bvh;
using rayflex::fp::fromBits;
using rayflex::fp::toBits;

namespace
{

/** Bit-level equality of two hit records (float == would also accept
 *  -0.0f vs 0.0f; the contract is stronger). */
::testing::AssertionResult
bitIdentical(const HitRecord &a, const HitRecord &b)
{
    if (a.hit != b.hit || a.triangle_id != b.triangle_id ||
        toBits(a.t) != toBits(b.t) || toBits(a.u) != toBits(b.u) ||
        toBits(a.v) != toBits(b.v) || toBits(a.w) != toBits(b.w))
        return ::testing::AssertionFailure()
               << "hit records differ: {" << a.hit << ", " << a.t << ", "
               << a.triangle_id << "} vs {" << b.hit << ", " << b.t
               << ", " << b.triangle_id << "}";
    return ::testing::AssertionSuccess();
}

/** A small mixed scene with both hits and misses well represented. */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

/** Camera rays plus random rays (some aimed away from the scene). */
std::vector<Ray>
testRays(const Bvh4 &bvh, size_t n_random)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = 16;
    cam.height = 16;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    WorkloadGen gen(99);
    for (size_t i = 0; i < n_random; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

} // namespace

TEST(SliceBatches, CoversEveryIndexExactlyOnce)
{
    for (size_t total : {0ul, 1ul, 7ul, 64ul, 65ul}) {
        for (size_t bs : {0ul, 1ul, 3ul, 64ul, 1000ul}) {
            auto batches = sliceBatches(total, bs);
            size_t covered = 0;
            for (size_t i = 0; i < batches.size(); ++i) {
                ASSERT_LT(batches[i].begin, batches[i].end);
                ASSERT_EQ(batches[i].begin, covered);
                if (bs) {
                    ASSERT_LE(batches[i].size(), bs);
                }
                covered = batches[i].end;
            }
            ASSERT_EQ(covered, total);
            if (total == 0) {
                ASSERT_TRUE(batches.empty());
            }
        }
    }
}

TEST(SliceBatches, WorkloadSlicesPreserveOrder)
{
    WorkloadGen gen(3);
    auto beats = gen.batch(Opcode::RayBox, 10);
    auto slices = sliceWorkload(beats, 4);
    ASSERT_EQ(slices.size(), 3u);
    ASSERT_EQ(slices[0].size(), 4u);
    ASSERT_EQ(slices[2].size(), 2u);
    size_t k = 0;
    for (const auto &s : slices)
        for (const auto &beat : s)
            ASSERT_EQ(beat.tag, beats[k++].tag);
}

TEST(SimEngine, DeterministicAcrossThreadCounts)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.batch_size = 48; // several batches, last one short
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(ref.hits.size(), rays.size());
    ASSERT_EQ(ref.unit.rays_completed, rays.size());
    ASSERT_GT(ref.unit.datapath_beats, 0u);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_EQ(rep.hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at " << threads << " threads";
        // Merged statistics are order-independent sums: identical too.
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
        EXPECT_EQ(rep.batches, ref.batches);
    }
}

TEST(SimEngine, ConcurrentRunsOnOneEngineAreIdentical)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.batch_size = 48;
    cfg.threads = 4;
    sim::Engine engine(cfg);
    sim::EngineReport ref = engine.run(bvh, rays);

    // run() is a const entry point that spawns its own workers: two
    // client threads racing on ONE engine must each get the solo
    // answer, bit for bit.
    sim::EngineReport a, b;
    std::thread ta([&] { a = engine.run(bvh, rays); });
    std::thread tb([&] { b = engine.run(bvh, rays); });
    ta.join();
    tb.join();
    for (const sim::EngineReport *rep : {&a, &b}) {
        ASSERT_EQ(rep->hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep->hits[i], ref.hits[i])) << i;
        EXPECT_EQ(rep->unit, ref.unit);
        EXPECT_EQ(rep->batches, ref.batches);
    }
}

TEST(SimEngine, FunctionalModelDeterministicAndAgrees)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::Functional;
    cfg.batch_size = 30;
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_GT(ref.traversal.box_ops, 0u);

    cfg.threads = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.traversal, ref.traversal);

    // Both execution models take every intersection decision with the
    // same datapath arithmetic, so their hits agree bit-for-bit.
    sim::EngineConfig ca;
    ca.batch_size = 30;
    ca.threads = 2;
    sim::EngineReport cycle = sim::Engine(ca).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(cycle.hits[i], ref.hits[i])) << i;
}

TEST(SimEngine, HitsMatchUnshardedSingleUnit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 16);

    // The unsharded reference: every ray through one RtUnit instance.
    core::RayFlexDatapath dp(kBaselineUnified);
    RtUnit unit(bvh, dp);
    for (uint32_t i = 0; i < rays.size(); ++i)
        unit.submit(rays[i], i);
    RtUnitStats st = unit.run();

    sim::EngineConfig cfg;
    cfg.threads = 4;
    cfg.batch_size = 37;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], unit.results()[i])) << i;
    // Work counters that do not depend on batch interleaving also
    // agree; cycle counts legitimately differ with the batch layout.
    EXPECT_EQ(rep.unit.rays_completed, st.rays_completed);
    EXPECT_EQ(rep.unit.datapath_beats, st.datapath_beats);
}

TEST(SimEngine, BatchLayoutDoesNotChangeHits)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 8);

    sim::EngineConfig cfg;
    cfg.threads = 2;
    cfg.batch_size = 1; // one ray per batch
    sim::EngineReport one = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(one.batches, rays.size());

    cfg.batch_size = 0; // the whole workload in a single batch
    sim::EngineReport all = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(all.batches, 1u);
    ASSERT_EQ(all.threads_used, 1u); // never more workers than batches

    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(one.hits[i], all.hits[i])) << i;
}

TEST(SimEngine, EmptyWorkload)
{
    Bvh4 bvh = testScene();
    sim::EngineReport rep = sim::Engine().run(bvh, {});
    EXPECT_TRUE(rep.hits.empty());
    EXPECT_EQ(rep.batches, 0u);
    EXPECT_EQ(rep.threads_used, 0u);
    EXPECT_EQ(rep.unit, RtUnitStats{});
    EXPECT_EQ(rep.raysPerSecond(), 0.0);
}

TEST(SimEngine, BatchSizeLargerThanWorkload)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);

    sim::EngineConfig cfg;
    cfg.batch_size = 1u << 20; // far larger than the ray count
    cfg.threads = 8;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(rep.batches, 1u);
    ASSERT_EQ(rep.threads_used, 1u);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());

    Traverser ref(bvh);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.closestHit(rays[i])))
            << i;
}

TEST(SimEngine, AnyHitMode)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::Functional;
    cfg.batch_size = 40;
    cfg.threads = 1;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays, true);

    // A hit exists inside the extent iff closest-hit finds one. (Beat
    // counts are not compared: any-hit usually issues fewer, but with
    // no best-hit pruning that is scene-dependent, not an invariant.)
    sim::EngineReport full = sim::Engine(cfg).run(bvh, rays);
    size_t n_hit = 0;
    for (size_t i = 0; i < rays.size(); ++i) {
        EXPECT_EQ(ref.hits[i].hit, full.hits[i].hit) << i;
        n_hit += ref.hits[i].hit;
    }
    ASSERT_GT(n_hit, 0u);

    // Determinism holds in any-hit mode too.
    cfg.threads = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays, true);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.traversal, ref.traversal);

    // Shadow batches report stack depth too: anyHit records the
    // max_stack high-water mark exactly like closestHit.
    ASSERT_GT(ref.traversal.max_stack, 0u);

    // The cycle-level RT unit models any-hit traversal as well
    // (TraversalMode::Any): occlusion flags and the reduced records
    // (only the hit flag set) agree with the functional model
    // bit-for-bit.
    sim::EngineConfig ca;
    ca.batch_size = 40;
    ca.threads = 2;
    sim::EngineReport cyc = sim::Engine(ca).run(bvh, rays, true);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(cyc.hits[i], ref.hits[i])) << i;
    EXPECT_GT(cyc.unit.cycles, 0u);
}

TEST(SimEngine, MaxCyclesExceptionPropagatesFromWorkerThreads)
{
    // A cycle budget no batch can meet: the std::runtime_error thrown
    // inside a worker thread must surface from Engine::run, not crash
    // or deadlock. (The functional/invalid-argument path used
    // to be the only exception test; this covers the multi-threaded
    // cycle-accurate one.)
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.threads = 4;
    cfg.batch_size = 8; // 4 batches for 32 rays: all 4 workers draft
    cfg.max_cycles_per_batch = 10;
    sim::Engine engine(cfg);
    EXPECT_THROW(engine.run(bvh, rays), std::runtime_error);
    // A failed run leaves the engine usable: the next run fails the
    // same way.
    EXPECT_THROW(engine.run(bvh, rays), std::runtime_error);
}

TEST(SimEngine, MaxCyclesMessageNamesTheStuckUnitAndSlot)
{
    // The watchdog says which unit hung, how much work it still held
    // and where its first busy slot sits.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.max_cycles_per_batch = 5;
    try {
        sim::Engine(cfg).run(bvh, rays);
        FAIL() << "a 5-cycle budget cannot trace the batch";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("max_cycles_per_batch (5)"), std::string::npos)
            << msg;
        const std::string where = "unit 0: " +
                                  std::to_string(rays.size()) +
                                  " rays outstanding, slot 0 ";
        EXPECT_NE(msg.find(where), std::string::npos) << msg;
        bool names_state = false;
        for (const char *state : {"NeedFetch", "Fetching", "ReadyBox",
                                  "ReadyTri", "InFlight"})
            names_state = names_state || msg.find(state) != msg.npos;
        EXPECT_TRUE(names_state) << msg;
    }
}

TEST(SimEngine, ConfigsThatCannotProgressAreRejectedAtConstruction)
{
    // Zero ray-buffer entries can never retire a ray: the config is
    // rejected when the engine or the unit is built, naming the knob,
    // instead of spinning to the cycle budget. The small budget keeps a regression from hanging.
    // So is a box width other than the BVH's arity: a narrower op never
    // tests the last children (wrong hits), and a wider one tests
    // boxes past the node's four.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 8);

    const auto expectRejected = [&](const sim::EngineConfig &cfg,
                                    const std::string &knob) {
        try {
            sim::Engine engine(cfg);
            engine.run(bvh, rays);
            ADD_FAILURE() << knob << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
                << e.what();
        } catch (const std::exception &e) {
            ADD_FAILURE() << knob << " threw the wrong error: " << e.what();
        }
        core::RayFlexDatapath dp(cfg.dp);
        try {
            RtUnit unit(bvh, dp, cfg.rt);
            ADD_FAILURE() << "RtUnit accepted " << knob;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(knob), std::string::npos)
                << e.what();
        }
    };

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.max_cycles_per_batch = 5000;

    sim::EngineConfig no_entries = cfg;
    no_entries.rt.ray_buffer_entries = 0;
    expectRejected(no_entries, "ray_buffer_entries");

    for (unsigned w : {1u, 2u, 6u, 8u}) {
        SCOPED_TRACE("box_width " + std::to_string(w));
        sim::EngineConfig wide = cfg;
        wide.dp.box_width = w;
        expectRejected(wide, "box_width");
    }
}

TEST(SimEngine, CycleAccurateAnyHitMatchesFunctionalOn10kShadowRays)
{
    // Acceptance sweep: >= 10k random shadow-style rays (epsilon lower
    // bound, finite upper bound); the cycle-accurate and functional
    // any-hit paths must report identical occlusion flags.
    Bvh4 bvh = testScene();
    WorkloadGen gen(123);
    std::vector<Ray> rays;
    rays.reserve(10000);
    for (size_t i = 0; i < 10000; ++i) {
        Ray r = gen.ray(8.0f);
        rays.push_back(makeRay(
            fromBits(r.origin[0]), fromBits(r.origin[1]),
            fromBits(r.origin[2]), fromBits(r.dir[0]),
            fromBits(r.dir[1]), fromBits(r.dir[2]), 1e-3f, 30.0f));
    }

    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 0; // all cores
    fcfg.batch_size = 512;
    sim::EngineReport fun = sim::Engine(fcfg).run(bvh, rays, true);

    sim::EngineConfig ccfg;
    ccfg.model = sim::ExecutionModel::CycleAccurate;
    ccfg.threads = 0;
    ccfg.batch_size = 512;
    sim::EngineReport cyc = sim::Engine(ccfg).run(bvh, rays, true);

    size_t occluded = 0;
    for (size_t i = 0; i < rays.size(); ++i) {
        ASSERT_EQ(cyc.hits[i].hit, fun.hits[i].hit) << "ray " << i;
        occluded += fun.hits[i].hit;
    }
    // The sweep exercises both outcomes.
    EXPECT_GT(occluded, 100u);
    EXPECT_GT(rays.size() - occluded, 100u);
    EXPECT_EQ(cyc.unit.rays_completed, rays.size());
}

TEST(SimEngine, OddRaysMatchFunctionalOnEveryScheduler)
{
    // Rays no camera makes, end to end through the cycle-accurate unit:
    // NaN and infinite origins; directions with zero components (an
    // infinite inverse), all zero, NaN, infinite or subnormal; and
    // extents of 0, 100 and +inf. Every ray must complete, with the
    // Functional engine's hits, whatever its inverse direction and
    // shear came out as (NaN quotients included). Several rays hit
    // many triangles at one t (an origin on the sphere's pole vertex,
    // an infinite shear); the lowest id must win in every schedule.
    const float inf = std::numeric_limits<float>::infinity();
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float sub = 1e-40f;
    const Vec3 origins[] = {
        {0.5f, 1.0f, 9.0f}, {0, 0, 0},      {-7.0f, 0.3f, 0.2f},
        {nan, 1.0f, 9.0f},  {0, nan, nan},  {inf, 0, 9.0f},
        {0, 2.0f, 0},       {-inf, 0, 0},   {6.0f, 6.0f, 6.0f},
    };
    const Vec3 dirs[] = {
        {0, 0, -1},      {0, 0, 0},         {1, 0, 0},
        {0, -1, 0},      {-0.3f, 0.2f, -1}, {nan, 0, -1},
        {inf, 0, -1},    {-inf, 1, 0},      {sub, -sub, -1},
        {sub, 0, 0},     {-1, -1, -1},
    };
    const float t_maxes[] = {0.0f, 100.0f, inf};
    std::vector<Ray> rays;
    for (const Vec3 &o : origins)
        for (const Vec3 &d : dirs)
            for (float t : t_maxes)
                rays.push_back(
                    makeRay(o.x, o.y, o.z, d.x, d.y, d.z, 0.0f, t));
    const Bvh4 bvh = testScene();

    for (bool any_hit : {false, true}) {
        sim::EngineConfig fcfg;
        fcfg.model = sim::ExecutionModel::Functional;
        fcfg.threads = 1;
        const sim::EngineReport ref = sim::Engine(fcfg).run(bvh, rays, any_hit);
        size_t n_hit = 0;
        for (const HitRecord &h : ref.hits)
            n_hit += h.hit;
        ASSERT_GT(n_hit, 20u) << "any_hit " << any_hit;
        ASSERT_LT(n_hit, rays.size() / 2) << "any_hit " << any_hit;

        for (unsigned width : {1u, 8u})
            for (unsigned units : {1u, 4u}) {
                sim::EngineConfig cfg;
                cfg.threads = 2;
                cfg.batch_size = 64;
                cfg.rt.packet.width = width;
                if (units > 1) {
                    cfg.rt.mem_backend = MemBackend::NodeCache;
                    cfg.rt.cache = kProbeCache4KiB;
                    cfg.chip.units = units;
                    cfg.chip.l2 = sim::L2Mode::Shared;
                    cfg.chip.l2cfg = kProbeL2_128KiB;
                }
                const sim::EngineReport rep =
                    sim::Engine(cfg).run(bvh, rays, any_hit);
                SCOPED_TRACE(::testing::Message()
                             << "width " << width << " units " << units
                             << " any_hit " << any_hit);
                EXPECT_EQ(rep.unit.rays_completed, rays.size());
                for (size_t i = 0; i < rays.size(); ++i)
                    ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                        << "ray " << i;
            }
    }
}

TEST(SimEngine, EmptySceneMissesEverything)
{
    Bvh4 empty = buildBvh4({});
    std::vector<Ray> rays;
    WorkloadGen gen(5);
    for (int i = 0; i < 20; ++i)
        rays.push_back(gen.ray());
    sim::EngineConfig cfg;
    cfg.threads = 2;
    cfg.batch_size = 4;
    sim::EngineReport rep = sim::Engine(cfg).run(empty, rays);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());
    for (const HitRecord &h : rep.hits)
        EXPECT_FALSE(h.hit);
}
