/**
 * @file
 * Tests of packet/wavefront traversal (bvh/packet.hh + the packet
 * scheduler in bvh::RtUnit): the headline hits-never-change contract
 * (packetized runs produce bit-identical hit records to scalar
 * traversal, in closest- and any-hit modes), the width == 1 scalar
 * pin (timing and all, against fixed counters), divergence edge cases (fully diverged packet,
 * single-ray packet, packet of misses, empty scene), the engine-level
 * 1/2/8-worker determinism sweep in packet mode, the PacketStats merge
 * contract, and the memory-sharing property the subsystem exists for:
 * on a coherent camera batch, mem_requests falls monotonically as the
 * packet width grows while fetches_shared rises.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <string>

#include "bvh/packet.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "sim/passes.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;
using rayflex::fp::toBits;

namespace
{

/** Bit-level equality of two hit records (same helper contract as
 *  test_sim_engine: float == would accept -0.0f vs 0.0f). */
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

/** A mixed scene with both hits and misses well represented. */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

/** Coherent camera rays plus random rays (some aimed away). */
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

/** Engine config for a packetized cycle-accurate run. */
sim::EngineConfig
packetConfig(unsigned width, unsigned threads = 1,
             size_t batch_size = 64)
{
    sim::EngineConfig cfg;
    cfg.threads = threads;
    cfg.batch_size = batch_size;
    cfg.rt.packet.width = width;
    return cfg;
}

} // namespace

TEST(PacketStats, MergeIsCommutativeSum)
{
    PacketStats a{2, 10, 60, 50, 4, 3, 16, 100, 2, 5};
    PacketStats b{1, 7, 14, 7, 2, 5, 8, 24, 1, 3};
    PacketStats ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.packets_formed, 3u);
    EXPECT_EQ(ab.node_visits, 17u);
    EXPECT_EQ(ab.active_ray_visits, 74u);
    EXPECT_EQ(ab.fetches_shared, 57u);
    EXPECT_EQ(ab.cross_job_fetches_shared, 6u);
    EXPECT_EQ(ab.divergence_splits, 8u);
    EXPECT_EQ(ab.rays_retired, 24u);
    EXPECT_EQ(ab.occupancy_at_retire, 124u);
    EXPECT_EQ(ab.compactions, 3u);
    EXPECT_EQ(ab.lanes_repacked, 8u);
    EXPECT_DOUBLE_EQ(a.avgOccupancy(), 6.0);
    EXPECT_DOUBLE_EQ(a.avgOccupancyAtRetire(), 6.25);
    EXPECT_EQ(PacketStats{}.avgOccupancy(), 0.0);
    EXPECT_EQ(PacketStats{}.avgOccupancyAtRetire(), 0.0);
}

TEST(PacketTraversal, WidthOneIsScalarBitForBit)
{
    // packet.width == 1 must not merely agree with the scalar schedule,
    // it must BE it: every timing counter equals the one the separate
    // one-ray-per-entry scheduler produced before width-1 packets took
    // its place, hits equal the functional model's, and the packet
    // counters stay all zero.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig functional = packetConfig(1);
    functional.model = sim::ExecutionModel::Functional;
    sim::EngineReport ref = sim::Engine(functional).run(bvh, rays);

    sim::EngineReport rep =
        sim::Engine(packetConfig(1)).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.unit.cycles, 6211u);
    EXPECT_EQ(rep.unit.rays_completed, rays.size());
    EXPECT_EQ(rep.unit.datapath_beats, 4791u);
    EXPECT_EQ(rep.unit.beats_by_op,
              (std::array<uint64_t, kNumOpcodes>{2435, 2356, 0, 0}));
    EXPECT_EQ(rep.unit.mem_requests, 3212u);
    EXPECT_EQ(rep.unit.slots.buckets,
              (std::array<uint64_t, obs::kSlotBuckets>{4791, 1129, 0, 0, 0,
                                                       0, 286, 5}));
    EXPECT_EQ(rep.unit.packet, PacketStats{});
}

TEST(PacketTraversal, HitsMatchScalarAcrossWidths)
{
    // The headline contract: packets change timing and memory traffic,
    // never hits.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays);

    for (unsigned width : {2u, 4u, 8u, 16u}) {
        sim::EngineReport rep =
            sim::Engine(packetConfig(width)).run(bvh, rays);
        ASSERT_EQ(rep.unit.rays_completed, rays.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at width " << width;
        EXPECT_GT(rep.unit.packet.packets_formed, 0u) << width;
        EXPECT_GT(rep.unit.packet.node_visits, 0u) << width;
        EXPECT_EQ(rep.unit.packet.rays_retired, rays.size()) << width;
        const double occ = rep.unit.packet.avgOccupancy();
        EXPECT_GE(occ, 1.0) << width;
        EXPECT_LE(occ, double(width)) << width;
    }
}

TEST(PacketTraversal, AnyHitMatchesScalar)
{
    // Occlusion batches: the any-hit flag is order-independent, so the
    // packetized result must agree with scalar for every ray (and per
    // the any-hit contract the records carry only the flag).
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays, true);

    for (unsigned width : {2u, 8u}) {
        sim::EngineConfig cfg = packetConfig(width);
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays, true);
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at width " << width;
    }
}

TEST(PacketTraversal, FullyDivergedPacket)
{
    // Eight rays leaving one interior point toward the eight octants:
    // after a node or two every lane wants a different subtree. The
    // packet must split its masks (divergence visible in the stats)
    // and still resolve every lane exactly like the scalar unit.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays;
    for (float sx : {-1.0f, 1.0f})
        for (float sy : {-1.0f, 1.0f})
            for (float sz : {-1.0f, 1.0f})
                rays.push_back(makeRay(0.1f, 0.2f, 0.3f, sx, sy, sz,
                                       0.0f, 100.0f));

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 0;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays);

    sim::EngineReport rep =
        sim::Engine(packetConfig(8, 1, 0)).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_EQ(rep.unit.packet.packets_formed, 1u);
    EXPECT_GT(rep.unit.packet.divergence_splits, 0u);
    // Divergence wastes occupancy: the average must sit well below a
    // coherent packet's.
    EXPECT_LT(rep.unit.packet.avgOccupancy(), 8.0);
}

TEST(PacketTraversal, SingleRayPacket)
{
    // A one-ray workload under width 8: the degenerate packet is legal,
    // shares nothing and agrees with scalar.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays{testRays(bvh, 0)[40]};

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 0;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays);

    sim::EngineReport rep =
        sim::Engine(packetConfig(8, 1, 0)).run(bvh, rays);
    ASSERT_TRUE(bitIdentical(rep.hits[0], ref.hits[0]));
    EXPECT_EQ(rep.unit.packet.packets_formed, 1u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 0u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 1u);
    EXPECT_DOUBLE_EQ(rep.unit.packet.avgOccupancy(), 1.0);
    EXPECT_DOUBLE_EQ(rep.unit.packet.avgOccupancyAtRetire(), 1.0);
}

TEST(PacketTraversal, PacketOfMisses)
{
    // Every lane aimed away from the scene: the packet dies at the
    // root with one shared fetch and zero triangle work.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays;
    for (int i = 0; i < 8; ++i)
        rays.push_back(makeRay(0.0f, 0.0f, 20.0f + float(i), 0, 0, 1,
                               0.0f, 100.0f));

    sim::EngineReport rep =
        sim::Engine(packetConfig(8, 1, 0)).run(bvh, rays);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());
    for (size_t i = 0; i < rays.size(); ++i) {
        EXPECT_FALSE(rep.hits[i].hit) << i;
        EXPECT_TRUE(bitIdentical(rep.hits[i], HitRecord{})) << i;
    }
    EXPECT_EQ(rep.unit.packet.node_visits, 1u); // the root, once
    EXPECT_EQ(rep.unit.packet.fetches_shared, 7u);
    EXPECT_EQ(rep.unit.mem_requests, 1u);
}

TEST(PacketTraversal, EmptySceneCompletesImmediately)
{
    Bvh4 bvh = buildBvh4(std::vector<SceneTriangle>{});
    std::vector<Ray> rays = {makeRay(0, 0, 5, 0, 0, -1, 0.0f, 100.0f),
                             makeRay(1, 0, 5, 0, 0, -1, 0.0f, 100.0f)};
    sim::EngineReport rep =
        sim::Engine(packetConfig(8, 1, 0)).run(bvh, rays);
    ASSERT_EQ(rep.unit.rays_completed, rays.size());
    for (const HitRecord &h : rep.hits)
        EXPECT_FALSE(h.hit);
    // No traversal ever happened: no packets, no fetches.
    EXPECT_EQ(rep.unit.packet.packets_formed, 0u);
    EXPECT_EQ(rep.unit.mem_requests, 0u);
}

TEST(PacketTraversal, DeterministicAcrossWorkerCounts)
{
    // Packet mode inherits the engine's contract: per-ray hits and the
    // merged statistics — including PacketStats and the node-cache
    // counters — are bit-identical at 1, 2 and 8 workers.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg = packetConfig(8, 1, 48);
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache.sets = 16;
    cfg.rt.cache.ways = 2;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(ref.unit.rays_completed, rays.size());
    ASSERT_GT(ref.unit.packet.fetches_shared, 0u);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_EQ(rep.hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at " << threads << " threads";
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
        EXPECT_EQ(rep.unit.packet, ref.unit.packet)
            << threads << " threads";
    }
}

TEST(PacketTraversal, FetchSharingGrowsWithWidth)
{
    // The property the subsystem exists for: on a coherent camera
    // batch, widening the packet monotonically removes memory requests
    // (each shared fetch replaces what scalar paid per ray) while the
    // shared-fetch counter rises.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0); // pure camera batch

    uint64_t prev_requests = ~0ull;
    uint64_t prev_shared = 0;
    for (unsigned width : {1u, 2u, 4u, 8u, 16u}) {
        sim::EngineReport rep =
            sim::Engine(packetConfig(width, 1, 0)).run(bvh, rays);
        ASSERT_EQ(rep.unit.rays_completed, rays.size());
        EXPECT_LT(rep.unit.mem_requests, prev_requests)
            << "width " << width;
        EXPECT_GE(rep.unit.packet.fetches_shared, prev_shared)
            << "width " << width;
        prev_requests = rep.unit.mem_requests;
        prev_shared = rep.unit.packet.fetches_shared;
    }
}

TEST(PacketTraversal, PacketizedRenderPassesMatchScalar)
{
    // Every existing scenario pass runs packetized: the per-pixel
    // outputs of a packetized cycle-accurate renderPasses run equal
    // the scalar ones bit for bit.
    auto tris = makeTerrain(10.0f, 12, 0.5f, 7);
    uint32_t id = uint32_t(tris.size());
    auto sphere = makeSphere({0, 1.5f, 0}, 1.2f, 8, 10, id);
    tris.insert(tris.end(), sphere.begin(), sphere.end());
    Bvh4 bvh = buildBvh4(std::move(tris));

    sim::PassConfig pcfg;
    pcfg.camera.eye = {4.0f, 5.0f, 9.0f};
    pcfg.camera.look_at = {0.0f, 0.5f, 0.0f};
    pcfg.camera.width = 12;
    pcfg.camera.height = 10;
    pcfg.ao_samples = 2;
    pcfg.ao_radius = 2.0f;
    pcfg.bounce = true;

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    sim::Engine scalar_engine(scalar);
    sim::PassesReport ref =
        sim::renderPasses(scalar_engine, bvh, pcfg);

    sim::Engine packet_engine(packetConfig(8, 1, 64));
    sim::PassesReport rep =
        sim::renderPasses(packet_engine, bvh, pcfg);

    ASSERT_EQ(rep.primary.hits.size(), ref.primary.hits.size());
    for (size_t i = 0; i < ref.primary.hits.size(); ++i)
        ASSERT_TRUE(
            bitIdentical(rep.primary.hits[i], ref.primary.hits[i]))
            << i;
    for (size_t i = 0; i < ref.diffuse.size(); ++i) {
        EXPECT_EQ(toBits(rep.diffuse[i]), toBits(ref.diffuse[i])) << i;
        EXPECT_EQ(rep.lit[i], ref.lit[i]) << i;
        EXPECT_EQ(toBits(rep.ao_open[i]), toBits(ref.ao_open[i])) << i;
        ASSERT_TRUE(
            bitIdentical(rep.bounce_hits[i], ref.bounce_hits[i])) << i;
    }
    EXPECT_GT(rep.unit.packet.packets_formed, 0u);
}

TEST(PacketTraversal, NodeVisitSlabMatchesGoldenAndFunctional)
{
    // A packet visits a node with one 4-wide slab test per live lane
    // against the node's four child boxes. Per lane and slot, the
    // visit's hit flag and entry-distance bits must equal the box beat
    // the lane would issue, through golden::rayBoxN and functionalEval,
    // at every packet width; so must each slot's nearest entry distance
    // (taken in lane order) and, at width 1, the QuadSort order. Every
    // field the slab reads (origin, inv_dir, t_beg, t_end and both
    // corners of every child) is a special value: ±0, subnormals, ±inf
    // and NaN payloads, which pin the blends' tie order and the NaN
    // mask. Some slots are empty (emptySlotBox()) and some rays have
    // t_end = +inf.
    WorkloadGen gen(0x7151);
    const auto special = [&] { return fp::fromBits(gen.specialValue()); };
    size_t hits = 0, zero_entries = 0, nan_rays = 0;
    for (int trial = 0; trial < 1200; ++trial) {
        const unsigned width = 1 + unsigned(trial) % 8;
        Bvh4 bvh;
        bvh.nodes.resize(1);
        bvh.tris.resize(1); // admit() needs a scene to traverse
        std::array<Box, kMaxBoxesPerOp> boxes{};
        for (size_t c = 0; c < 4; ++c) {
            WideNode::Child &child = bvh.nodes[0].child[c];
            if (gen.engine()() % 6 == 0) {
                boxes[c] = emptySlotBox(); // child stays Kind::Empty
                continue;
            }
            child.kind = WideNode::Kind::Leaf;
            child.count = 1;
            child.bounds.lo = {special(), special(), special()};
            child.bounds.hi = {special(), special(), special()};
            boxes[c] = child.bounds.toIoBox();
        }
        std::deque<PendingRay> queue;
        for (unsigned r = 0; r < width; ++r) {
            Ray ray;
            for (int d = 0; d < 3; ++d) {
                ray.origin[d] = gen.specialValue();
                ray.inv_dir[d] = gen.specialValue();
            }
            ray.t_beg = gen.specialValue();
            ray.t_end = r % 4 == 3 ? fp::kPosInf : gen.specialValue();
            nan_rays += fp::isNaNF32(ray.t_beg) || fp::isNaNF32(ray.t_end);
            queue.push_back({ray, r, 0});
        }
        const std::deque<PendingRay> rays = queue;

        PacketStats stats;
        PacketTraversal p(bvh, width, TraversalMode::Closest, &stats);
        ASSERT_EQ(p.admit(queue), width);
        ASSERT_TRUE(p.needsFetch());
        ASSERT_FALSE(p.fetchIsLeaf());
        p.fetchIssued();
        p.fetchArrived();
        const PacketTraversal::NodeVisit &v = p.nodeVisit();

        std::array<float, 4> nearest;
        nearest.fill(std::numeric_limits<float>::infinity());
        for (unsigned r = 0; r < width; ++r) {
            SCOPED_TRACE("trial " + std::to_string(trial) + " width " +
                         std::to_string(width) + " lane " +
                         std::to_string(r));
            const BoxResult g =
                golden::rayBoxN(rays[r].ray, boxes, unsigned(kBoxesPerOp));
            DatapathInput in;
            in.op = Opcode::RayBox;
            in.ray = rays[r].ray;
            in.boxes = boxes;
            DistanceAccumulators acc;
            ASSERT_EQ(functionalEval(in, acc).box, g);
            for (size_t c = 0; c < 4; ++c) {
                ASSERT_EQ(bool((v.hit[c] >> r) & 1), g.hit[c]) << "slot " << c;
                if (!g.hit[c])
                    continue;
                const size_t at = size_t(
                    std::find(g.order.begin(), g.order.end(), c) -
                    g.order.begin());
                ASSERT_EQ(toBits(v.entry[r][c]), g.sorted_dist[at])
                    << "slot " << c;
                const float d = fp::fromBits(g.sorted_dist[at]);
                nearest[c] = d < nearest[c] ? d : nearest[c];
                ++hits;
                zero_entries += d == 0.0f;
            }
            if (width == 1) {
                for (size_t k = 0; k < 4; ++k)
                    ASSERT_EQ(v.order[k], g.order[k]) << "position " << k;
            }
        }
        for (size_t c = 0; c < 4; ++c) {
            if (v.hit[c]) {
                ASSERT_EQ(toBits(v.nearest[c]), toBits(nearest[c]))
                    << "trial " << trial << " slot " << c;
            }
        }
    }
    EXPECT_GT(hits, 0u) << "no slot hit";
    EXPECT_GT(zero_entries, 0u) << "no ±0 entry distance";
    EXPECT_GT(nan_rays, 0u) << "no NaN extent was drawn";
}
