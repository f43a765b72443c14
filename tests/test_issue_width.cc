/**
 * @file
 * Tests of the multi-issue datapath (RtUnitConfig::issue_width), the
 * bounded MSHR file over the unit's shared L1 (RtUnitConfig::mshrs)
 * and occupancy-driven packet compaction (PacketConfig::compact_below):
 * the PR-4 timing pin (defaults reproduce the single-issue, unbounded,
 * compaction-off schedule bit-for-bit, counters hard-coded from that
 * tree), hit bit-equality against scalar for every new knob, the
 * throughput acceptance property (cycles fall monotonically with
 * issue_width on coherent packets, where the single-beat datapath was
 * flat), MSHR merge/back-pressure behavior, compaction recovering
 * retirement occupancy, scheduler-stat parity between the scalar path
 * and one-occupancy packets, the 1/2/8-worker determinism sweep
 * with every new knob enabled at once, and dead-cycle skipping and
 * refused-fetch parking (fewer evaluated cycles, traced or not, and
 * every counter, hit and trace equal to the every-cycle reference
 * walk's, which neither parks nor skips).
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "every_cycle_walk.hh"
#include "sim/engine.hh"

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

/** A mixed scene with both hits and misses well represented (the same
 *  scene test_packet and test_mem_model use, so the PR-4 pin numbers
 *  come from a workload other suites already exercise). */
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

/** Incoherent occlusion workload: AO fans from random scene points,
 *  the divergence generator the compaction tests need. */
std::vector<Ray>
fanRays(size_t n_points, unsigned samples)
{
    WorkloadGen wg(41);
    RayGen rg(7);
    std::vector<Ray> rays;
    for (size_t i = 0; i < n_points; ++i) {
        float x = wg.uniform(-5.0f, 5.0f);
        float z = wg.uniform(-5.0f, 5.0f);
        float y = wg.uniform(-1.0f, 3.0f);
        rg.appendAoFan(rays, {x, y, z}, {0, 1, 0}, samples, 1e-3f,
                       6.0f);
    }
    return rays;
}

} // namespace

TEST(MultiIssue, DefaultsReproducePr4TimingBitForBit)
{
    // The regression pin: issue_width == 1, mshrs == 0 (unbounded) and
    // compact_below == 0 must reproduce the pre-multi-issue unit's
    // schedule EXACTLY. The counters below were captured from the PR-4
    // tree on this workload; any drift means the refactor perturbed
    // the single-issue timing, which the whole bit-for-bit contract
    // forbids.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    sim::EngineReport s = sim::Engine(scalar).run(bvh, rays);
    EXPECT_EQ(s.unit.cycles, 6211u);
    EXPECT_EQ(s.unit.datapath_beats, 4791u);
    EXPECT_EQ(s.unit.slots.total() - s.unit.slots[obs::Slot::Issued], 1420u);
    EXPECT_EQ(s.unit.mem_requests, 3212u);
    EXPECT_EQ(s.unit.slots.memoryStallSlots(), 1129u);
    EXPECT_EQ(s.unit.rays_completed, rays.size());
    EXPECT_EQ(s.unit.mshr, MshrStats{});

    sim::EngineConfig packet8 = scalar;
    packet8.rt.packet.width = 8;
    sim::EngineReport p = sim::Engine(packet8).run(bvh, rays);
    EXPECT_EQ(p.unit.cycles, 10154u);
    EXPECT_EQ(p.unit.datapath_beats, 4793u);
    EXPECT_EQ(p.unit.slots.total() - p.unit.slots[obs::Slot::Issued], 5361u);
    EXPECT_EQ(p.unit.mem_requests, 968u);
    EXPECT_EQ(p.unit.slots.memoryStallSlots(), 5027u);
    EXPECT_EQ(p.unit.packet.compactions, 0u);
    EXPECT_EQ(p.unit.mshr, MshrStats{});
}

TEST(MultiIssue, ScalarHitsMatchAndThroughputImproves)
{
    // Widening the issue datapath must never change a hit record, and
    // with several ready entries per cycle the same workload finishes
    // in fewer simulated cycles.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig base;
    base.threads = 1;
    base.batch_size = 64;
    sim::EngineReport ref = sim::Engine(base).run(bvh, rays);

    for (unsigned issue : {2u, 4u, 8u}) {
        sim::EngineConfig cfg = base;
        cfg.rt.issue_width = issue;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at issue " << issue;
        EXPECT_LT(rep.unit.cycles, ref.unit.cycles) << issue;
        // Work is conserved: the same beats happen, just denser.
        EXPECT_EQ(rep.unit.datapath_beats, ref.unit.datapath_beats)
            << issue;
    }
}

TEST(MultiIssue, PacketHitsMatchScalarAcrossTheGrid)
{
    // The headline contract extended to the new knobs: for every
    // (issue_width, packet.width, mshrs, compact_below) combination —
    // closest- and any-hit — the per-ray records equal the scalar
    // single-issue reference bit for bit. Only timing and memory
    // counters may move.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    for (bool any_hit : {false, true}) {
        sim::EngineConfig scalar;
        scalar.threads = 1;
        scalar.batch_size = 64;
        sim::EngineReport ref =
            sim::Engine(scalar).run(bvh, rays, any_hit);

        struct Knobs
        {
            unsigned issue, width, mshrs, compact;
        };
        const Knobs grid[] = {
            {2, 1, 0, 0},  {8, 1, 2, 0},  {2, 8, 0, 0},
            {8, 8, 0, 4},  {4, 8, 2, 4},  {8, 16, 4, 8},
        };
        for (const Knobs &k : grid) {
            sim::EngineConfig cfg = scalar;
            cfg.rt.issue_width = k.issue;
            cfg.rt.packet.width = k.width;
            cfg.rt.mshrs = k.mshrs;
            cfg.rt.packet.compact_below = k.compact;
            cfg.rt.ray_buffer_entries = 32 * std::max(1u, k.width);
            sim::EngineReport rep =
                sim::Engine(cfg).run(bvh, rays, any_hit);
            ASSERT_EQ(rep.unit.rays_completed, rays.size());
            for (size_t i = 0; i < rays.size(); ++i)
                ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                    << "ray " << i << " any_hit " << any_hit
                    << " issue " << k.issue << " width " << k.width
                    << " mshrs " << k.mshrs << " compact "
                    << k.compact;
        }
    }
}

TEST(MultiIssue, ThroughputScalesWithIssueWidthOnCoherentPackets)
{
    // The acceptance property behind BM_IssueWidthSweep: on a coherent
    // camera batch traced by 8-wide packets against the probe cache
    // and a bounded MSHR file, cycles fall MONOTONICALLY as the issue
    // width grows — exactly where the single-beat datapath was flat,
    // because fetch sharing saved bandwidth the unit could not spend.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0); // pure camera batch

    uint64_t prev_cycles = ~0ull;
    for (unsigned issue : {1u, 2u, 4u, 8u}) {
        sim::EngineConfig cfg;
        cfg.threads = 1;
        cfg.batch_size = 0;
        cfg.rt.packet.width = 8;
        cfg.rt.ray_buffer_entries = 32 * 8;
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
        cfg.rt.mshrs = 8;
        cfg.rt.issue_width = issue;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        EXPECT_LT(rep.unit.cycles, prev_cycles)
            << "cycles did not fall at issue width " << issue;
        prev_cycles = rep.unit.cycles;
    }
}

TEST(MultiIssue, MshrFileMergesAndBackPressures)
{
    // A tightly bounded MSHR file must (a) merge duplicate in-flight
    // fetches (two slots walking the same subtree pay one miss), (b)
    // stall NeedFetch slots when full, and (c) conserve the fetch
    // work: every fetch either allocates or merges, and the per-ray
    // fetch sequences are schedule-independent, so allocations +
    // merges equals the unbounded run's request count.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 32);

    sim::EngineConfig unbounded;
    unbounded.threads = 1;
    unbounded.batch_size = 0;
    unbounded.rt.mem_backend = MemBackend::NodeCache;
    unbounded.rt.cache = kProbeCache4KiB;
    sim::EngineReport ref = sim::Engine(unbounded).run(bvh, rays);
    ASSERT_EQ(ref.unit.mshr, MshrStats{});

    sim::EngineConfig bounded = unbounded;
    bounded.rt.mshrs = 2;
    sim::EngineReport rep = sim::Engine(bounded).run(bvh, rays);

    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
    EXPECT_GT(rep.unit.mshr.merges, 0u);
    EXPECT_GT(rep.unit.mshr.stalls_full, 0u);
    EXPECT_EQ(rep.unit.mem_requests, rep.unit.mshr.allocations);
    EXPECT_EQ(rep.unit.mshr.allocations + rep.unit.mshr.merges,
              ref.unit.mem_requests);
    // Merged fetches never touch the L1, so the bounded run reaches
    // memory strictly less often.
    EXPECT_LT(rep.unit.mem_requests, ref.unit.mem_requests);

    // The file also serves the packet scheduler: same invariants with
    // 8-wide packets (whose reference is their own unbounded run).
    sim::EngineConfig pu = unbounded;
    pu.rt.packet.width = 8;
    pu.rt.ray_buffer_entries = 32 * 8;
    sim::EngineReport pref = sim::Engine(pu).run(bvh, rays);
    sim::EngineConfig pb = pu;
    pb.rt.mshrs = 2;
    sim::EngineReport prep = sim::Engine(pb).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(prep.hits[i], pref.hits[i])) << i;
    EXPECT_GT(prep.unit.mshr.merges, 0u);
    EXPECT_EQ(prep.unit.mshr.allocations + prep.unit.mshr.merges,
              pref.unit.mem_requests);
}

TEST(MultiIssue, CompactionRecoversOccupancyNeverHits)
{
    // Divergent AO fans thin 16-wide packets quickly. With
    // compact_below = 8, thinned packets must actually repack
    // (compactions and moved lanes counted), retirement occupancy
    // must improve (lanes finish in fuller packets), and the hit
    // records must stay bit-identical to both the scalar and the
    // compaction-off packet runs.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = fanRays(48, 8);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 0;
    sim::EngineReport ref = sim::Engine(scalar).run(bvh, rays);

    sim::EngineConfig off;
    off.threads = 1;
    off.batch_size = 0;
    off.rt.packet.width = 16;
    off.rt.ray_buffer_entries = 16 * 16;
    sim::EngineReport plain = sim::Engine(off).run(bvh, rays);
    ASSERT_EQ(plain.unit.packet.compactions, 0u);

    sim::EngineConfig on = off;
    on.rt.packet.compact_below = 8;
    sim::EngineReport rep = sim::Engine(on).run(bvh, rays);

    for (size_t i = 0; i < rays.size(); ++i) {
        ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
        ASSERT_TRUE(bitIdentical(rep.hits[i], plain.hits[i])) << i;
    }
    EXPECT_GT(rep.unit.packet.compactions, 0u);
    EXPECT_GT(rep.unit.packet.lanes_repacked, 0u);
    EXPECT_GT(rep.unit.packet.avgOccupancyAtRetire(),
              plain.unit.packet.avgOccupancyAtRetire());
}

TEST(MultiIssue, SchedulerStatParityWithOneOccupancyPackets)
{
    // A packet holding a single ray must schedule exactly like a
    // scalar entry: same fetch decisions, same beats, same stall and
    // idle slots, cycle for cycle. One-triangle leaves make the
    // comparison exact (multi-triangle leaves legitimately differ:
    // the packet pipelines a leaf's beats back-to-back while a scalar
    // entry serializes on each result).
    std::vector<SceneTriangle> tris;
    for (uint32_t i = 0; i < 24; ++i) {
        float x = float(i % 6) * 10.0f;
        float z = float(i / 6) * 10.0f;
        tris.push_back(
            SceneTriangle{{x, 0, z}, {x + 1, 0, z}, {x, 1, z}, i});
    }
    BuildParams params;
    params.max_leaf_size = 1;
    Bvh4 bvh = buildBvh4(tris, params);
    for (const WideNode &n : bvh.nodes)
        for (const auto &c : n.child)
            if (c.kind == WideNode::Kind::Leaf) {
                ASSERT_EQ(c.count, 1u); // the parity precondition
            }

    const Ray probes[] = {
        makeRay(20.3f, 0.3f, 50.0f, 0, 0, -1, 0.0f, 100.0f), // hit
        makeRay(20.5f, 5.0f, 10.2f, 0.01f, -1.0f, 0.02f, 0.0f,
                100.0f),                                      // miss
    };
    for (const Ray &probe : probes) {
        std::vector<Ray> one{probe};
        sim::EngineConfig scalar;
        scalar.threads = 1;
        scalar.batch_size = 0;
        sim::EngineReport s = sim::Engine(scalar).run(bvh, one);

        sim::EngineConfig packet = scalar;
        packet.rt.packet.width = 8;
        sim::EngineReport p = sim::Engine(packet).run(bvh, one);

        ASSERT_TRUE(bitIdentical(p.hits[0], s.hits[0]));
        EXPECT_EQ(p.unit.slots.memoryStallSlots(),
                  s.unit.slots.memoryStallSlots());
        EXPECT_EQ(p.unit.slots.total() - p.unit.slots[obs::Slot::Issued],
                  s.unit.slots.total() - s.unit.slots[obs::Slot::Issued]);
        EXPECT_EQ(p.unit.cycles, s.unit.cycles);
        EXPECT_EQ(p.unit.datapath_beats, s.unit.datapath_beats);
        EXPECT_EQ(p.unit.mem_requests, s.unit.mem_requests);
    }
}

TEST(MultiIssue, DeterministicAcrossWorkerCountsWithAllKnobs)
{
    // Every new knob enabled at once — multi-issue, bounded MSHRs,
    // compaction, packets, node cache — still satisfies the engine
    // contract: per-ray hits and every merged counter (including
    // MshrStats and the compaction counters) are bit-identical at 1,
    // 2 and 8 workers.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 48; // several batches, last one short
    cfg.rt.issue_width = 4;
    cfg.rt.mshrs = 4;
    cfg.rt.packet.width = 8;
    cfg.rt.packet.compact_below = 4;
    cfg.rt.ray_buffer_entries = 32 * 8;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache.sets = 16;
    cfg.rt.cache.ways = 2;
    sim::EngineReport ref = sim::Engine(cfg).run(bvh, rays);
    ASSERT_EQ(ref.unit.rays_completed, rays.size());
    ASSERT_GT(ref.unit.mshr.allocations, 0u);

    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        ASSERT_EQ(rep.hits.size(), ref.hits.size());
        for (size_t i = 0; i < rays.size(); ++i)
            ASSERT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                << "ray " << i << " at " << threads << " threads";
        EXPECT_EQ(rep.unit, ref.unit) << threads << " threads";
    }
}

TEST(MultiIssue, IssueWidthIsClampedToTheSupportedRange)
{
    // Out-of-range widths clamp instead of misbehaving: 0 runs as 1,
    // anything above kMaxIssueWidth runs as kMaxIssueWidth.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);

    sim::EngineConfig one;
    one.threads = 1;
    one.batch_size = 0;
    sim::EngineReport ref = sim::Engine(one).run(bvh, rays);

    sim::EngineConfig zero = one;
    zero.rt.issue_width = 0;
    sim::EngineReport z = sim::Engine(zero).run(bvh, rays);
    EXPECT_EQ(z.unit, ref.unit);

    sim::EngineConfig max = one;
    max.rt.issue_width = kMaxIssueWidth;
    sim::EngineReport m = sim::Engine(max).run(bvh, rays);
    sim::EngineConfig over = one;
    over.rt.issue_width = 99;
    sim::EngineReport o = sim::Engine(over).run(bvh, rays);
    EXPECT_EQ(o.unit, m.unit);
    for (size_t i = 0; i < rays.size(); ++i)
        ASSERT_TRUE(bitIdentical(o.hits[i], ref.hits[i])) << i;
}

namespace
{

/** One batch of `rays` on `cfg`, on the model or (`reference`) on the
 *  every-cycle reference walk. */
sim::BatchResult
rayBatch(const Bvh4 &bvh, const std::vector<Ray> &rays, bool any_hit,
         const sim::ExecutorConfig &cfg, bool reference,
         std::vector<HitRecord> &hits)
{
    hits.assign(rays.size(), {});
    std::vector<sim::BatchRayRef> refs;
    for (size_t i = 0; i < rays.size(); ++i)
        refs.push_back({&rays[i], &hits[i]});
    const sim::BatchExecutor model(bvh, cfg);
    const sim::BatchExecutor exec =
        reference ? sim::EveryCycleWalk::on(model) : model;
    return exec.executeBatch(refs.data(), refs.size(), any_hit);
}

/** One batch of k-NN `queries`, as rayBatch. */
sim::BatchResult
knnBatch(const KnnIndex &index, const std::vector<KnnQuery> &queries,
         const sim::ExecutorConfig &cfg, bool reference,
         std::vector<KnnResult> &results)
{
    results.assign(queries.size(), {});
    std::vector<sim::KnnBatchRef> refs;
    for (size_t i = 0; i < queries.size(); ++i)
        refs.push_back({&queries[i], &results[i]});
    const sim::BatchExecutor model(index, cfg);
    const sim::BatchExecutor exec =
        reference ? sim::EveryCycleWalk::on(model) : model;
    return exec.executeKnnBatch(refs.data(), refs.size());
}

void
expectSameOutputs(const std::vector<HitRecord> &a,
                  const std::vector<HitRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_TRUE(bitIdentical(a[i], b[i])) << i;
}

void
expectSameOutputs(const std::vector<KnnResult> &a,
                  const std::vector<KnnResult> &b)
{
    EXPECT_TRUE(a == b);
}

/** Run one batch three ways: on the model untraced and traced, and on
 *  the every-cycle reference walk, traced. `batch(cfg, reference, out)`
 *  runs it. All three must report the same unit counters, outputs and
 *  simulated cycles, and the two traces must be equal. The model
 *  evaluates the same cycles traced or not; the reference evaluates
 *  every cycle. @return the traced model run. */
template <class Out, class Batch>
sim::BatchResult
expectOneSchedule(sim::ExecutorConfig cfg, const Batch &batch)
{
    std::vector<Out> out, traced_out, ref_out;
    cfg.trace = false;
    const sim::BatchResult fast = batch(cfg, false, out);
    cfg.trace = true;
    const sim::BatchResult traced = batch(cfg, false, traced_out);
    const sim::BatchResult ref = batch(cfg, true, ref_out);
    EXPECT_EQ(fast.unit, ref.unit);
    EXPECT_EQ(traced.unit, ref.unit);
    EXPECT_EQ(fast.sim_cycles, ref.sim_cycles);
    EXPECT_EQ(traced.sim_cycles, ref.sim_cycles);
    EXPECT_EQ(fast.evaluated_cycles, traced.evaluated_cycles);
    EXPECT_EQ(ref.evaluated_cycles, ref.sim_cycles);
    EXPECT_TRUE(traced.trace == ref.trace)
        << traced.trace.size() << " vs " << ref.trace.size() << " events";
    expectSameOutputs(out, ref_out);
    expectSameOutputs(traced_out, ref_out);
    return traced;
}

/** expectOneSchedule over one ray batch. */
sim::BatchResult
expectOneRaySchedule(const Bvh4 &bvh, const std::vector<Ray> &rays,
                     const sim::ExecutorConfig &cfg, bool any_hit)
{
    const sim::BatchResult r = expectOneSchedule<HitRecord>(
        cfg, [&](const sim::ExecutorConfig &c, bool reference,
                 std::vector<HitRecord> &hits) {
            return rayBatch(bvh, rays, any_hit, c, reference, hits);
        });
    EXPECT_EQ(r.unit.rays_completed, rays.size());
    return r;
}

/** expectOneSchedule over one k-NN batch. */
sim::BatchResult
expectOneKnnSchedule(const KnnIndex &index,
                     const std::vector<KnnQuery> &queries,
                     const sim::ExecutorConfig &cfg)
{
    const sim::BatchResult r = expectOneSchedule<KnnResult>(
        cfg, [&](const sim::ExecutorConfig &c, bool reference,
                 std::vector<KnnResult> &results) {
            return knnBatch(index, queries, c, reference, results);
        });
    EXPECT_EQ(r.unit.knn.queries, queries.size());
    return r;
}

/** Unit `unit`'s MshrRefusals track integrated over the batch's
 *  cycles: each sample holds until the next one or the batch's end. */
uint64_t
integratedRefusals(const sim::BatchResult &r, uint32_t unit)
{
    uint64_t sum = 0, value = 0, since = 0;
    for (const obs::TraceRecord &e : r.trace)
        if (e.event == obs::TraceEvent::MshrRefusals && e.unit == unit) {
            sum += value * (e.cycle - since);
            value = e.a;
            since = e.cycle;
        }
    return sum + value * (r.sim_cycles - since);
}

/** The schedule counters a slot-list change would move, against the
 *  values the per-cycle slot scan produced. */
void
expectSchedule(const RtUnitStats &u, uint64_t cycles, uint64_t beats,
               uint64_t mem_requests, uint64_t stalls_full)
{
    EXPECT_EQ(u.cycles, cycles);
    EXPECT_EQ(u.datapath_beats, beats);
    EXPECT_EQ(u.mem_requests, mem_requests);
    EXPECT_EQ(u.mshr.stalls_full, stalls_full);
}

} // namespace

TEST(DeadCycles, LatencyBoundBatchEvaluatesUnderHalfItsCycles)
{
    // A long flat fetch latency and a two-ray buffer leave the unit
    // waiting on memory in most cycles. The model jumps over those dead
    // cycles and charges them in bulk, traced or not; the reference
    // walk ticks every cycle. All report the same stats and hits.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 16);
    rays.erase(rays.begin(), rays.end() - 32);

    sim::ExecutorConfig cfg;
    cfg.rt.mem_latency = 200;
    cfg.rt.ray_buffer_entries = 2;
    const sim::BatchResult r = expectOneRaySchedule(bvh, rays, cfg, false);
    EXPECT_LT(2 * r.evaluated_cycles, r.sim_cycles)
        << r.evaluated_cycles << " of " << r.sim_cycles;
}

TEST(DeadCycles, ParkedRefusalsEqualTheRefusalSamples)
{
    // One MSHR behind four lanes starves the k-NN slots: most fetch
    // retries are refused. The model parks a refused slot and charges
    // a skipped cycle's refusals in bulk; the reference walk asks the
    // file on every retry of every cycle. The trace samples the
    // refusals once per change, so its track integrates to the count
    // and stays small.
    const KnnIndex index = buildKnnIndex(makePointCloud(200, 8, 4, 5));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(16, 8, 4, 6))
        queries.push_back({std::move(p.coords), 4});

    sim::ExecutorConfig cfg;
    cfg.dp = core::kExtendedUnified;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.issue_width = 4;
    cfg.rt.mshrs = 1;
    const sim::BatchResult r = expectOneKnnSchedule(index, queries, cfg);
    EXPECT_GT(r.unit.mshr.stalls_full, 0u);
    EXPECT_EQ(integratedRefusals(r, 0), r.unit.mshr.stalls_full);
    EXPECT_LT(r.trace.size(), 10000u);
    // Evaluating every cycle that followed a live one (no quiet test)
    // took 4,906 of these cycles.
    EXPECT_EQ(r.sim_cycles, 40928u);
    EXPECT_EQ(r.evaluated_cycles, 3055u);
}

TEST(DeadCycles, CompactionUnderMshrStarvationMatchesTheReferenceWalk)
{
    // Divergent fans through narrow packets that repack, a one- or
    // two-entry MSHR file and a small ray buffer: slots park on
    // refused fetches, donors of a repack go idle and refill at the
    // root while other packets' fetches are in flight. Every counter
    // and hit must equal the reference walk's, which neither parks nor
    // skips.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = fanRays(24, 8);
    for (unsigned width : {2u, 4u})
        for (unsigned mshrs : {1u, 2u}) {
            SCOPED_TRACE("width " + std::to_string(width) + ", mshrs " +
                         std::to_string(mshrs));
            sim::ExecutorConfig cfg;
            cfg.rt.mem_backend = MemBackend::NodeCache;
            cfg.rt.cache = kProbeCache4KiB;
            cfg.rt.packet.width = width;
            cfg.rt.packet.compact_below = width;
            cfg.rt.ray_buffer_entries = 4 * width;
            cfg.rt.issue_width = 2;
            cfg.rt.mshrs = mshrs;
            const sim::BatchResult r =
                expectOneRaySchedule(bvh, rays, cfg, true);
            EXPECT_GT(r.unit.packet.compactions, 0u);
            EXPECT_GT(r.unit.mshr.stalls_full, 0u);
        }
}

TEST(DeadCycles, SlotListsMatchTheReferenceWalk)
{
    // The unit keeps each slot's state, the NeedFetch and Idle sets and
    // the offerable set up to date at the slot's transitions.
    // Each case drives one transition that must update the lists; its
    // runs must equal the reference walk's, and its schedule the one
    // the unit produced when it rescanned every slot every cycle
    // (counters captured from that tree).
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 64);

    // Any-hit lanes retire mid-leaf, leaving dead beats to prune, at
    // width 8 and issue 4 (several beats of one packet per cycle). The
    // large overlapping triangles in 8-triangle leaves make an early
    // triangle occlude most rays while the leaf's later beats still
    // wait to issue.
    BuildParams dense;
    dense.max_leaf_size = 8;
    const Bvh4 occluders = buildBvh4(makeSoup(400, 3.0f, 2.5f, 5), dense);
    sim::ExecutorConfig cfg;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = 8;
    cfg.rt.ray_buffer_entries = 32;
    cfg.rt.issue_width = 4;
    cfg.rt.mshrs = 4;
    expectSchedule(
        expectOneRaySchedule(occluders, testRays(occluders, 0), cfg, true)
            .unit,
        12413, 9647, 659, 0);

    // A compaction absorb moves a donor out of NeedFetch while the one
    // MSHR refuses the rest.
    {
        sim::ExecutorConfig c = cfg;
        c.rt.packet.width = 4;
        c.rt.packet.compact_below = 4;
        c.rt.ray_buffer_entries = 16;
        c.rt.issue_width = 2;
        c.rt.mshrs = 1;
        const sim::BatchResult r =
            expectOneRaySchedule(bvh, fanRays(24, 8), c, true);
        EXPECT_EQ(r.unit.packet.compactions, 45u);
        expectSchedule(r.unit, 16081, 2267, 660, 30436);
        EXPECT_LT(r.evaluated_cycles, r.sim_cycles);
    }

    // An empty scene: every admission completes its rays at once, so
    // each slot stays Idle and refill() admits through every slot each
    // cycle, four slots of eight rays.
    {
        const Bvh4 empty = buildBvh4({});
        const sim::BatchResult r =
            expectOneRaySchedule(empty, rays, cfg, false);
        EXPECT_EQ(r.unit.cycles, (rays.size() + 31) / 32);
    }

    // Width 1, the scalar schedule: one beat in flight per slot.
    {
        sim::ExecutorConfig c = cfg;
        c.rt.packet.width = 1;
        c.rt.issue_width = 2;
        c.rt.mshrs = 2;
        expectSchedule(expectOneRaySchedule(bvh, rays, c, false).unit,
                       19292, 4904, 1872, 461911);
    }

    // k-NN under one MSHR, both metrics: the same lists hold the
    // queries' states and offer their fetched leaves.
    const KnnIndex index = buildKnnIndex(makePointCloud(160, 12, 4, 8));
    std::vector<KnnQuery> queries;
    unsigned n = 0;
    for (DataPoint &p : makePointCloud(20, 12, 4, 9))
        queries.push_back({std::move(p.coords), 3,
                           n++ % 2 ? KnnMetric::Cosine
                                   : KnnMetric::Euclidean});
    sim::ExecutorConfig kc;
    kc.dp = core::kExtendedUnified;
    kc.rt.mem_backend = MemBackend::NodeCache;
    kc.rt.cache = kProbeCache4KiB;
    kc.rt.ray_buffer_entries = 8;
    kc.rt.issue_width = 2;
    kc.rt.mshrs = 1;
    expectSchedule(expectOneKnnSchedule(index, queries, kc).unit, 27995,
                   4800, 914, 139588);
}

TEST(DeadCycles, AbsorbRecipientIsUnparked)
{
    // Divergent closest-hit fans through packets that repack below full
    // width, behind one MSHR with a long flat latency: the file is full
    // in most cycles, so a packet whose repacking window ran out parks
    // on its refused fetch. When it then absorbs a donor, its window
    // restarts, and the issue walk must ask it to hold again rather
    // than count it refused. The model, which parks, must equal the
    // reference walk, which never does.
    Bvh4 bvh = testScene();
    sim::ExecutorConfig cfg;
    cfg.rt.mem_latency = 200;
    cfg.rt.packet.width = 4;
    cfg.rt.packet.compact_below = 4;
    cfg.rt.ray_buffer_entries = 32;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 1;
    const sim::BatchResult r =
        expectOneRaySchedule(bvh, fanRays(24, 8), cfg, false);
    EXPECT_GT(r.unit.packet.compactions, 0u);
    EXPECT_GT(r.unit.mshr.stalls_full, 0u);
    EXPECT_LT(r.evaluated_cycles, r.sim_cycles);
}

TEST(DeadCycles, QuietCycleRefusesWhatRefillAdmitted)
{
    // Two query slots behind one MSHR, each query's walk a few nodes
    // deep: when a query finishes, refill admits the next one into its
    // slot after the live cycle's issue walk, while the other slot's
    // fetch holds the file. The cycle after is quiet, and refuses one
    // slot more than the live cycle did. The model charges it without
    // evaluating it; the reference walk evaluates it.
    const KnnIndex index = buildKnnIndex(makePointCloud(120, 8, 4, 11));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(24, 8, 4, 12))
        queries.push_back({std::move(p.coords), 2});

    sim::ExecutorConfig cfg;
    cfg.dp = core::kExtendedUnified;
    cfg.rt.mem_latency = 40;
    cfg.rt.ray_buffer_entries = 2;
    cfg.rt.mshrs = 1;
    const sim::BatchResult r = expectOneKnnSchedule(index, queries, cfg);
    EXPECT_GT(r.unit.mshr.stalls_full, 0u);
    EXPECT_EQ(integratedRefusals(r, 0), r.unit.mshr.stalls_full);
    EXPECT_LT(r.evaluated_cycles, r.sim_cycles);
}

TEST(DeadCycles, QuietUnitBesideALiveOneIsAdvanced)
{
    // Four k-NN units on one shared L2, one MSHR each: a unit whose
    // next cycle is quiet ticks on with the others while any of them
    // is live, and is charged in bulk only when all of them can skip.
    const KnnIndex index = buildKnnIndex(makePointCloud(200, 8, 4, 5));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(32, 8, 4, 6))
        queries.push_back({std::move(p.coords), 4});

    sim::ExecutorConfig cfg;
    cfg.dp = core::kExtendedUnified;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.issue_width = 2;
    cfg.rt.ray_buffer_entries = 4;
    cfg.rt.mshrs = 1;
    cfg.chip.units = 4;
    cfg.chip.l2 = sim::L2Mode::Shared;
    cfg.chip.l2cfg = kProbeL2_128KiB;
    const sim::BatchResult r = expectOneKnnSchedule(index, queries, cfg);
    EXPECT_GT(r.unit.mshr.stalls_full, 0u);
    for (uint32_t u = 0; u < 4; ++u)
        EXPECT_GT(integratedRefusals(r, u), 0u) << "unit " << u;
    EXPECT_LT(r.evaluated_cycles, r.sim_cycles);
}

TEST(DeadCycles, KnnSearchBatchesSkipQuietCycles)
{
    // The repository benchmark's knn_search workload at seed 1: 256
    // 16-D queries (one in eight cosine) over 1000 points, in four
    // batches of 64 on one unit (issue 4, 8 MSHRs, 4 KiB node cache).
    // Evaluating every cycle after a live one took 357,155 of the
    // 664,290 cycles.
    const KnnIndex index = buildKnnIndex(makePointCloud(1000, 16, 8, 42));
    std::vector<KnnQuery> queries;
    size_t q = 0;
    for (DataPoint &p : makePointCloud(256, 16, 32, 1))
        queries.push_back({std::move(p.coords), 8,
                           q++ % 8 == 7 ? KnnMetric::Cosine
                                        : KnnMetric::Euclidean});

    sim::ExecutorConfig cfg;
    cfg.dp = core::kExtendedUnified;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.issue_width = 4;
    cfg.rt.mshrs = 8;
    uint64_t sim_cycles = 0, evaluated = 0;
    for (size_t b = 0; b < queries.size(); b += 64) {
        const std::vector<KnnQuery> batch(queries.begin() + b,
                                          queries.begin() + b + 64);
        std::vector<KnnResult> out;
        const sim::BatchResult r = knnBatch(index, batch, cfg, false, out);
        sim_cycles += r.sim_cycles;
        evaluated += r.evaluated_cycles;
    }
    EXPECT_EQ(sim_cycles, 664290u);
    EXPECT_LE(evaluated, 251000u);
}
