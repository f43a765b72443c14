/**
 * @file
 * Tests of the streaming render service (job / scheduler / executor
 * tiers): the extended determinism contract
 * (bit-identical hits, per-job simulated latencies and merged stats at
 * every worker count for a fixed arrival schedule), cross-job packet
 * formation, head-of-line blocking vs packing, and the batch-API pins
 * that freeze Engine::run / renderPasses counters across the tier
 * refactor.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"
#include "sim/passes.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::core;
using namespace rayflex::bvh;
using rayflex::fp::toBits;

namespace
{

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

/** Same fixture as test_sim_engine.cc: sphere shell plus soup. */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

std::vector<Ray>
cameraRays(const Bvh4 &bvh, unsigned w, unsigned h)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = w;
    cam.height = h;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < h; ++y)
        for (unsigned x = 0; x < w; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    return rays;
}

std::vector<Ray>
randomRays(uint64_t seed, size_t n)
{
    WorkloadGen gen(seed);
    std::vector<Ray> rays;
    for (size_t i = 0; i < n; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

/** A mixed three-client schedule: a frame job (closest), an AO-probe
 *  job and a shadow job (both any-hit), staggered arrivals. */
std::vector<sim::RenderJob>
mixedSchedule(const Bvh4 &bvh)
{
    std::vector<sim::RenderJob> jobs;
    jobs.push_back({10, 0, false, cameraRays(bvh, 16, 12)});
    jobs.push_back({11, 400, true, randomRays(5, 150)});
    jobs.push_back({12, 900, true, cameraRays(bvh, 8, 8)});
    return jobs;
}

sim::EngineConfig
packetEngineConfig(unsigned threads)
{
    sim::EngineConfig cfg;
    cfg.threads = threads;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = 8;
    cfg.rt.packet.compact_below = 4;
    return cfg;
}

::testing::AssertionResult
jobReportsIdentical(const sim::JobReport &a, const sim::JobReport &b)
{
    if (a.id != b.id || a.arrival_tick != b.arrival_tick ||
        a.any_hit != b.any_hit)
        return ::testing::AssertionFailure() << "job identity differs";
    if (a.first_service_tick != b.first_service_tick ||
        a.completion_tick != b.completion_tick ||
        a.latency != b.latency || a.queue_wait != b.queue_wait ||
        a.p50_ray_latency != b.p50_ray_latency ||
        a.p99_ray_latency != b.p99_ray_latency ||
        a.batches != b.batches || a.shared_batches != b.shared_batches)
        return ::testing::AssertionFailure()
               << "job " << a.id << " timeline differs: latency "
               << a.latency << " vs " << b.latency;
    if (a.hits.size() != b.hits.size())
        return ::testing::AssertionFailure()
               << "job " << a.id << " hit counts differ";
    for (size_t i = 0; i < a.hits.size(); ++i) {
        auto r = bitIdentical(a.hits[i], b.hits[i]);
        if (!r)
            return r << " (job " << a.id << " ray " << i << ")";
    }
    return ::testing::AssertionSuccess();
}

} // namespace

// ---------------------------------------------------------------------
// Scheduler tier: plan shape and the service determinism contract.
// ---------------------------------------------------------------------

TEST(BatchScheduler, PlanIsPureAndRespectsModesAndArrivals)
{
    Bvh4 bvh = testScene();
    std::vector<sim::RenderJob> jobs = mixedSchedule(bvh);

    sim::StreamConfig cfg;
    cfg.batch_size = 64;
    sim::BatchScheduler sched(cfg);
    auto plans = sched.plan(jobs);
    auto plans2 = sched.plan(jobs);
    ASSERT_FALSE(plans.empty());
    ASSERT_EQ(plans.size(), plans2.size());

    size_t scheduled = 0;
    for (size_t p = 0; p < plans.size(); ++p) {
        EXPECT_EQ(plans[p].rays, plans2[p].rays); // pure function
        EXPECT_LE(plans[p].rays.size(), cfg.batch_size);
        scheduled += plans[p].rays.size();
        for (auto [j, r] : plans[p].rays) {
            // A batch never mixes traversal modes and never contains a
            // ray of a job that has not arrived by its ready tick.
            EXPECT_EQ(jobs[j].any_hit, plans[p].any_hit);
            EXPECT_LE(jobs[j].arrival_tick, plans[p].ready_tick);
            ASSERT_LT(size_t(r), jobs[j].rays.size());
        }
    }
    size_t total = 0;
    for (const auto &j : jobs)
        total += j.rays.size();
    EXPECT_EQ(scheduled, total); // every ray exactly once overall
}

TEST(StreamingService, DeterministicAcrossWorkerCounts)
{
    Bvh4 bvh = testScene();
    sim::StreamConfig scfg;
    scfg.batch_size = 64;

    sim::StreamReport ref = sim::StreamingService::run(
        sim::Engine(packetEngineConfig(1)), bvh, mixedSchedule(bvh),
        scfg);
    ASSERT_EQ(ref.jobs.size(), 3u);
    ASSERT_EQ(ref.total_rays, 192u + 150u + 64u);
    ASSERT_GT(ref.makespan_ticks, 0u);
    ASSERT_GT(ref.fairness, 0.0);

    // The plan is a function of the schedule, not of the order the
    // caller lists the jobs in: the reversed vector reports the same.
    std::vector<sim::RenderJob> reversed = mixedSchedule(bvh);
    std::reverse(reversed.begin(), reversed.end());
    for (unsigned threads : {2u, 8u}) {
        for (bool reverse : {false, true}) {
            sim::StreamReport rep = sim::StreamingService::run(
                sim::Engine(packetEngineConfig(threads)), bvh,
                reverse ? reversed : mixedSchedule(bvh), scfg);
            EXPECT_EQ(rep.threads_used,
                      std::min<unsigned>(threads, unsigned(rep.batches)));
            EXPECT_EQ(rep.unit, ref.unit)
                << threads << " threads, reversed " << reverse;
            EXPECT_EQ(rep.batches, ref.batches);
            EXPECT_EQ(rep.makespan_ticks, ref.makespan_ticks);
            EXPECT_EQ(rep.p50_job_latency, ref.p50_job_latency);
            EXPECT_EQ(rep.p99_job_latency, ref.p99_job_latency);
            EXPECT_EQ(rep.fairness, ref.fairness);
            ASSERT_EQ(rep.jobs.size(), ref.jobs.size());
            for (size_t j = 0; j < ref.jobs.size(); ++j)
                EXPECT_TRUE(jobReportsIdentical(rep.jobs[j], ref.jobs[j]))
                    << threads << " threads, reversed " << reverse;
        }
    }
}

TEST(StreamingService, HitsMatchStandaloneEngineRunsPerJob)
{
    Bvh4 bvh = testScene();
    std::vector<sim::RenderJob> jobs = mixedSchedule(bvh);
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamReport rep =
        sim::StreamingService::run(engine, bvh, mixedSchedule(bvh), {});

    // Batch composition is a timing concern only: each job's hit
    // records are what a solo batch-synchronous run produces.
    for (const sim::RenderJob &job : jobs) {
        sim::EngineReport solo = engine.run(bvh, job.rays, job.any_hit);
        const sim::JobReport *jr = rep.job(job.id);
        ASSERT_NE(jr, nullptr);
        ASSERT_EQ(jr->hits.size(), solo.hits.size());
        for (size_t i = 0; i < solo.hits.size(); ++i)
            ASSERT_TRUE(bitIdentical(jr->hits[i], solo.hits[i]))
                << "job " << job.id << " ray " << i;
    }
}

TEST(StreamingService, ZeroRayAndEmptyRunsAreWellDefined)
{
    Bvh4 bvh = testScene();
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamReport none =
        sim::StreamingService::run(engine, bvh, {}, {});
    EXPECT_TRUE(none.jobs.empty());
    EXPECT_EQ(none.total_rays, 0u);
    EXPECT_EQ(none.makespan_ticks, 0u);

    std::vector<sim::RenderJob> jobs;
    jobs.push_back({1, 5, false, {}});
    jobs.push_back({2, 0, false, cameraRays(bvh, 4, 4)});
    sim::StreamReport rep =
        sim::StreamingService::run(engine, bvh, std::move(jobs), {});
    const sim::JobReport *empty = rep.job(1);
    ASSERT_NE(empty, nullptr);
    EXPECT_EQ(empty->latency, 0u);
    EXPECT_EQ(empty->completion_tick, 5u);
    EXPECT_EQ(empty->batches, 0u);
    EXPECT_EQ(rep.total_rays, 16u);
}

TEST(StreamingService, ApiMisuseThrows)
{
    Bvh4 bvh = testScene();
    sim::Engine engine(packetEngineConfig(1));

    std::vector<sim::RenderJob> jobs;
    jobs.push_back({3, 0, false, cameraRays(bvh, 2, 2)});
    jobs.push_back({3, 10, false, cameraRays(bvh, 2, 2)});
    EXPECT_THROW(sim::StreamingService::run(engine, bvh, std::move(jobs)),
                 std::invalid_argument);
}

TEST(StreamingService, ZeroKnobsCompleteIdenticallyAtEveryWorkerCount)
{
    // No StreamConfig knob can livelock: batch_size 0 means unbounded
    // batches (one per formation round).
    Bvh4 bvh = testScene();
    sim::StreamConfig zero;
    zero.batch_size = 0;
    sim::StreamReport ref = sim::StreamingService::run(
        sim::Engine(packetEngineConfig(1)), bvh, mixedSchedule(bvh), zero);
    sim::StreamReport rep = sim::StreamingService::run(
        sim::Engine(packetEngineConfig(3)), bvh, mixedSchedule(bvh), zero);
    EXPECT_EQ(ref.total_rays, 192u + 150u + 64u);
    EXPECT_EQ(rep.unit, ref.unit);
    EXPECT_EQ(rep.batches, ref.batches);
    EXPECT_EQ(rep.makespan_ticks, ref.makespan_ticks);
    EXPECT_EQ(rep.p50_job_latency, ref.p50_job_latency);
    EXPECT_EQ(rep.p99_job_latency, ref.p99_job_latency);
    ASSERT_EQ(rep.jobs.size(), ref.jobs.size());
    for (size_t j = 0; j < ref.jobs.size(); ++j)
        EXPECT_TRUE(jobReportsIdentical(rep.jobs[j], ref.jobs[j]));
}

// ---------------------------------------------------------------------
// Cross-job packet formation and head-of-line blocking.
// ---------------------------------------------------------------------

TEST(CrossJobPacking, SharedFetchesCrossJobBoundariesOnlyWhenPacked)
{
    Bvh4 bvh = testScene();
    // Two coherent same-mode jobs in flight together: round-robin
    // interleave makes adjacent pending rays come from different jobs,
    // so width-8 packets mix them.
    auto makeJobs = [&] {
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({1, 0, false, cameraRays(bvh, 12, 12)});
        jobs.push_back({2, 0, false, cameraRays(bvh, 8, 8)});
        return jobs;
    };
    sim::Engine engine(packetEngineConfig(1));

    sim::StreamConfig on;
    on.batch_size = 64;
    on.cross_job_packing = true;
    sim::StreamReport packed =
        sim::StreamingService::run(engine, bvh, makeJobs(), on);
    EXPECT_GT(packed.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_GT(packed.crossJobShareRate(), 0.0);
    EXPECT_GT(packed.job(1)->shared_batches, 0u);

    sim::StreamConfig off = on;
    off.cross_job_packing = false;
    sim::StreamReport solo =
        sim::StreamingService::run(engine, bvh, makeJobs(), off);
    EXPECT_EQ(solo.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_EQ(solo.crossJobShareRate(), 0.0);
    EXPECT_EQ(solo.job(1)->shared_batches, 0u);
    EXPECT_EQ(solo.job(2)->shared_batches, 0u);

    // Tags never influence formation or traversal: identical hits
    // either way.
    for (uint64_t id : {1u, 2u}) {
        ASSERT_EQ(packed.job(id)->hits.size(), solo.job(id)->hits.size());
        for (size_t i = 0; i < packed.job(id)->hits.size(); ++i)
            ASSERT_TRUE(bitIdentical(packed.job(id)->hits[i],
                                     solo.job(id)->hits[i]));
    }
}

TEST(CrossJobPacking, PackingBeatsHeadOfLineBlockingForSmallJobs)
{
    Bvh4 bvh = testScene();
    // A large frame job monopolizes the machine; a small probe job
    // arrives shortly after. Without packing it waits for the frame to
    // drain (head-of-line blocking); with packing its rays ride shared
    // batches and it completes much earlier.
    auto makeJobs = [&] {
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({1, 0, false, cameraRays(bvh, 24, 24)});
        jobs.push_back({2, 100, false, cameraRays(bvh, 4, 4)});
        return jobs;
    };
    sim::Engine engine(packetEngineConfig(1));
    sim::StreamConfig cfg;
    cfg.batch_size = 64;

    cfg.cross_job_packing = true;
    sim::StreamReport packed =
        sim::StreamingService::run(engine, bvh, makeJobs(), cfg);
    cfg.cross_job_packing = false;
    sim::StreamReport hol =
        sim::StreamingService::run(engine, bvh, makeJobs(), cfg);

    const sim::JobReport *ps = packed.job(2);
    const sim::JobReport *hs = hol.job(2);
    ASSERT_NE(ps, nullptr);
    ASSERT_NE(hs, nullptr);
    EXPECT_LT(ps->latency, hs->latency);
    EXPECT_LT(ps->queue_wait, hs->queue_wait);
    EXPECT_LT(ps->p99_ray_latency, hs->p99_ray_latency);
}

// ---------------------------------------------------------------------
// Batch-API pins: the refactor onto the executor tier reproduces the
// pre-refactor (PR 6) numbers bit for bit. Counters are hard-coded in
// the style of the PR 4/5 pin suites; any change here is a timing or
// results regression, not noise.
// ---------------------------------------------------------------------

namespace
{

std::vector<Ray>
pinRays(const Bvh4 &bvh)
{
    std::vector<Ray> rays = cameraRays(bvh, 16, 16);
    std::vector<Ray> rnd = randomRays(99, 48);
    rays.insert(rays.end(), rnd.begin(), rnd.end());
    return rays;
}

} // namespace

TEST(BatchApiPin, LoadedSingleUnitReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);

    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(rep.unit.cycles, 13143u);
    EXPECT_EQ(rep.unit.rays_completed, 304u);
    EXPECT_EQ(rep.unit.datapath_beats, 4793u);
    EXPECT_EQ(rep.unit.slots.total() - rep.unit.slots[obs::Slot::Issued],
              21493u);
    EXPECT_EQ(rep.unit.mem_requests, 793u);
    EXPECT_EQ(rep.unit.slots.memoryStallSlots(), 20499u);
    EXPECT_EQ(rep.unit.mem.hits, 609u);
    EXPECT_EQ(rep.unit.mem.misses, 1263u);
    EXPECT_EQ(rep.unit.mem.evictions, 943u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 38u);
    EXPECT_EQ(rep.unit.packet.node_visits, 966u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 3214u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 2248u);
    EXPECT_EQ(rep.unit.packet.cross_job_fetches_shared, 0u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 362u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 304u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 1452u);
    EXPECT_EQ(rep.unit.packet.compactions, 15u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 34u);
    EXPECT_EQ(rep.unit.mshr.allocations, 793u);
    EXPECT_EQ(rep.unit.mshr.merges, 173u);
    EXPECT_EQ(rep.unit.mshr.stalls_full, 0u);
    size_t n_hits = 0;
    for (const auto &h : rep.hits)
        n_hits += h.hit;
    EXPECT_EQ(n_hits, 58u);
}

TEST(BatchApiPin, SharedL2ChipReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    cfg.chip.units = 4;
    cfg.chip.l2 = sim::L2Mode::Shared;
    cfg.chip.l2cfg = kProbeL2_128KiB;
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);

    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(rep.unit.cycles, 44940u);
    EXPECT_EQ(rep.unit.rays_completed, 304u);
    EXPECT_EQ(rep.unit.datapath_beats, 4792u);
    EXPECT_EQ(rep.unit.slots.total() - rep.unit.slots[obs::Slot::Issued],
              40148u);
    EXPECT_EQ(rep.unit.mem_requests, 1352u);
    EXPECT_EQ(rep.unit.slots.memoryStallSlots(), 36666u);
    EXPECT_EQ(rep.unit.mem.hits, 949u);
    EXPECT_EQ(rep.unit.mem.misses, 2247u);
    EXPECT_EQ(rep.unit.mem.evictions, 1000u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 40u);
    EXPECT_EQ(rep.unit.packet.node_visits, 1352u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 3212u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 1860u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 435u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 304u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 1400u);
    EXPECT_EQ(rep.unit.packet.compactions, 14u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 29u);
    EXPECT_EQ(rep.unit.chip_cycles, 11923u);
    const L2Stats l2 = rep.unit.l2Total();
    EXPECT_EQ(l2.hits, 731u);
    EXPECT_EQ(l2.misses, 837u);
    EXPECT_EQ(l2.merges, 679u);
    EXPECT_EQ(l2.cross_unit_merges, 679u);
    EXPECT_EQ(l2.queue_stalls, 129u);
    EXPECT_EQ(l2.hops, 4502u);
    size_t n_hits = 0;
    for (const auto &h : rep.hits)
        n_hits += h.hit;
    EXPECT_EQ(n_hits, 58u);
}

TEST(BatchApiPin, RenderPassesReproducesPr6BitForBit)
{
    Bvh4 bvh = testScene();

    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    sim::Engine engine(cfg);
    sim::PassConfig pc;
    pc.camera.eye = {0.5f, 1.0f, 9.0f};
    pc.camera.look_at = {0.0f, 0.0f, 0.0f};
    pc.camera.width = 16;
    pc.camera.height = 16;
    pc.ao_samples = 2;
    pc.bounce = true;
    pc.seed = 7;
    sim::PassesReport rep = sim::renderPasses(engine, bvh, pc);

    EXPECT_EQ(rep.total_rays, 488u);
    EXPECT_EQ(rep.unit.cycles, 22771u);
    EXPECT_EQ(rep.unit.datapath_beats, 7637u);
    EXPECT_EQ(rep.unit.slots.total() - rep.unit.slots[obs::Slot::Issued],
              15134u);
    EXPECT_EQ(rep.unit.mem_requests, 1719u);
    EXPECT_EQ(rep.unit.slots.memoryStallSlots(), 14501u);
    EXPECT_EQ(rep.unit.mem.hits, 1718u);
    EXPECT_EQ(rep.unit.mem.misses, 2381u);
    EXPECT_EQ(rep.unit.mem.evictions, 1869u);
    EXPECT_EQ(rep.unit.packet.packets_formed, 63u);
    EXPECT_EQ(rep.unit.packet.node_visits, 1719u);
    EXPECT_EQ(rep.unit.packet.active_ray_visits, 5076u);
    EXPECT_EQ(rep.unit.packet.fetches_shared, 3357u);
    EXPECT_EQ(rep.unit.packet.divergence_splits, 595u);
    EXPECT_EQ(rep.unit.packet.rays_retired, 488u);
    EXPECT_EQ(rep.unit.packet.occupancy_at_retire, 2264u);
    EXPECT_EQ(rep.unit.packet.compactions, 21u);
    EXPECT_EQ(rep.unit.packet.lanes_repacked, 45u);
    EXPECT_EQ(rep.primary.unit.cycles, 9839u);
    EXPECT_EQ(rep.shadow.unit.cycles, 4241u);
    EXPECT_EQ(rep.ao.unit.cycles, 4227u);
    EXPECT_EQ(rep.bounce.unit.cycles, 4464u);

    double dsum = 0, asum = 0;
    size_t nlit = 0;
    for (float d : rep.diffuse)
        dsum += d;
    for (float a : rep.ao_open)
        asum += a;
    for (uint8_t l : rep.lit)
        nlit += l;
    EXPECT_NEAR(dsum, 19.862127, 1e-4);
    EXPECT_EQ(asum, 255.0);
    EXPECT_EQ(nlit, 235u);
}

// ---------------------------------------------------------------------
// k-NN and trace pins: the full unit counters of two fixed runKnn
// workloads and the digests of two traced ray runs, captured before
// the executor's batch paths were folded into one unit loop.
// ---------------------------------------------------------------------

namespace
{

/** A k-NN run on one unit (chip_units == 1) or a shared-L2 chip. */
sim::KnnReport
pinKnnRun(unsigned chip_units, KnnMetric metric)
{
    const unsigned dims = 16;
    const KnnIndex index = buildKnnIndex(makePointCloud(240, dims, 6, 41));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(80, dims, 6, 42))
        queries.push_back({std::move(p.coords), 4, metric});

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 32;
    cfg.dp = kExtendedUnified;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.mshrs = 4;
    cfg.rt.issue_width = 2;
    if (chip_units > 1) {
        cfg.chip.units = chip_units;
        cfg.chip.l2 = sim::L2Mode::Shared;
        cfg.chip.l2cfg = kProbeL2_128KiB;
    }
    return sim::Engine(cfg).runKnn(index, queries);
}

using Fields3 = std::array<uint64_t, 3>;
using Fields6 = std::array<uint64_t, 6>;
using Fields7 = std::array<uint64_t, 7>;

Fields7
knnFields(const KnnStats &s)
{
    return {s.queries,        s.candidates, s.distance_beats,
            s.nodes_visited,  s.leaves_visited, s.pruned,
            s.frontier_peak};
}

std::vector<Fields6>
bankFields(const std::vector<L2Stats> &banks)
{
    std::vector<Fields6> out;
    for (const L2Stats &b : banks)
        out.push_back({b.hits, b.misses, b.merges, b.cross_unit_merges,
                       b.queue_stalls, b.hops});
    return out;
}

/** FNV-1a over a stream of 64-bit words, little-endian bytes. */
struct Fnv1a
{
    uint64_t h = 14695981039346656037ull;

    void
    mix(uint64_t x)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (x >> (8 * i)) & 0xFFu;
            h *= 1099511628211ull;
        }
    }
};

/** FNV-1a over every field of every record, in order. */
uint64_t
traceDigest(const std::vector<obs::TraceRecord> &trace)
{
    Fnv1a d;
    for (const obs::TraceRecord &r : trace) {
        d.mix(r.cycle);
        d.mix(r.unit);
        d.mix(uint64_t(r.event));
        d.mix(r.a);
        d.mix(r.b);
    }
    return d.h;
}

/** FNV-1a over every field of every hit record (floats by their bit
 *  pattern), in ray order. */
uint64_t
hitDigest(const std::vector<HitRecord> &hits)
{
    Fnv1a d;
    for (const HitRecord &h : hits) {
        d.mix(h.hit);
        d.mix(toBits(h.t));
        d.mix(h.triangle_id);
        d.mix(toBits(h.u));
        d.mix(toBits(h.v));
        d.mix(toBits(h.w));
    }
    return d.h;
}

/** FNV-1a over the score bits and id of every neighbor, in query
 *  order. */
uint64_t
neighborDigest(const std::vector<KnnResult> &results)
{
    Fnv1a d;
    for (const KnnResult &r : results) {
        d.mix(r.neighbors.size());
        for (const KnnNeighbor &n : r.neighbors) {
            d.mix(toBits(n.score));
            d.mix(n.id);
        }
    }
    return d.h;
}

} // namespace

TEST(BatchApiPin, KnnSingleUnitCounters)
{
    const sim::KnnReport rep = pinKnnRun(1, KnnMetric::Euclidean);
    const RtUnitStats &u = rep.unit;

    EXPECT_EQ(rep.batches, 3u);
    EXPECT_EQ(u.cycles, 72656u);
    EXPECT_EQ(u.chip_cycles, 0u);
    EXPECT_EQ(u.rays_completed, 0u);
    EXPECT_EQ(u.datapath_beats, 18874u);
    EXPECT_EQ(u.slots.total() - u.slots[obs::Slot::Issued], 126438u);
    EXPECT_EQ(u.mem_requests, 7834u);
    EXPECT_EQ(u.slots.memoryStallSlots(), 126334u);
    EXPECT_EQ(u.beats_by_op,
              (std::array<uint64_t, kNumOpcodes>{0, 0, 18874, 0}));
    EXPECT_EQ(Fields3({u.mem.hits, u.mem.misses, u.mem.evictions}),
              Fields3({5493, 14645, 14453}));
    EXPECT_EQ(Fields3({u.mshr.allocations, u.mshr.merges,
                       u.mshr.stalls_full}),
              Fields3({7834, 1998, 866556}));
    EXPECT_EQ(knnFields(u.knn),
              Fields7({80, 18874, 18874, 3245, 6587, 87, 27}));
    EXPECT_EQ(u.slots.buckets,
              (std::array<uint64_t, obs::kSlotBuckets>{
                  18874, 11985, 114349, 0, 0, 0, 98, 6}));
    EXPECT_EQ(bankFields(u.l2_banks), std::vector<Fields6>{});
    EXPECT_EQ(u.packet, PacketStats{});
}

TEST(BatchApiPin, KnnSharedL2ChipCounters)
{
    const sim::KnnReport rep = pinKnnRun(2, KnnMetric::Cosine);
    const RtUnitStats &u = rep.unit;

    EXPECT_EQ(rep.batches, 3u);
    EXPECT_EQ(u.cycles, 63727u);
    EXPECT_EQ(u.chip_cycles, 31865u);
    EXPECT_EQ(u.rays_completed, 0u);
    EXPECT_EQ(u.datapath_beats, 38400u);
    EXPECT_EQ(u.slots.total() - u.slots[obs::Slot::Issued], 89054u);
    EXPECT_EQ(u.mem_requests, 862u);
    EXPECT_EQ(u.slots.memoryStallSlots(), 88910u);
    EXPECT_EQ(u.beats_by_op,
              (std::array<uint64_t, kNumOpcodes>{0, 0, 0, 38400}));
    EXPECT_EQ(Fields3({u.mem.hits, u.mem.misses, u.mem.evictions}),
              Fields3({456, 1632, 1248}));
    EXPECT_EQ(Fields3({u.mshr.allocations, u.mshr.merges,
                       u.mshr.stalls_full}),
              Fields3({862, 9138, 0}));
    EXPECT_EQ(knnFields(u.knn),
              Fields7({80, 19200, 38400, 3280, 6720, 0, 59}));
    EXPECT_EQ(u.slots.buckets,
              (std::array<uint64_t, obs::kSlotBuckets>{
                  38400, 546, 0, 1344, 0, 87020, 132, 12}));
    EXPECT_EQ(bankFields(u.l2_banks),
              (std::vector<Fields6>{{6, 198, 198, 198, 3, 402},
                                    {6, 198, 198, 198, 0, 402},
                                    {36, 195, 195, 195, 15, 1278},
                                    {12, 195, 195, 195, 6, 1206}}));
    EXPECT_EQ(u.packet, PacketStats{});
}

TEST(BatchApiPin, TracedRunDigests)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig single = packetEngineConfig(1);
    single.batch_size = 64;
    single.rt.issue_width = 2;
    single.rt.mshrs = 8;
    single.trace = true;
    const sim::EngineReport s = sim::Engine(single).run(bvh, rays);
    EXPECT_EQ(s.trace.size(), 4694u);
    EXPECT_EQ(traceDigest(s.trace), 198981726844267168ull);

    sim::EngineConfig chip = packetEngineConfig(1);
    chip.batch_size = 64;
    chip.chip.units = 4;
    chip.chip.l2 = sim::L2Mode::Shared;
    chip.chip.l2cfg = kProbeL2_128KiB;
    chip.trace = true;
    const sim::EngineReport c = sim::Engine(chip).run(bvh, rays);
    EXPECT_EQ(c.trace.size(), 7950u);
    EXPECT_EQ(traceDigest(c.trace), 8161187862585844099ull);
}

// ---------------------------------------------------------------------
// Scheduler-coverage pins: the full unit counters of the configurations
// the pins above leave out (the scalar scheduler at issue_width > 1
// with MSHRs and a cache, any-hit on both ray schedulers, k-NN at
// issue_width 4) and the report of a mixed stream schedule, captured
// before the RT unit's three cycle loops were folded into one.
// ---------------------------------------------------------------------

namespace
{

using Fields10 = std::array<uint64_t, 10>;

/** Every RtUnitStats field, grouped so a mismatch names its group. The
 *  idle and memory-stall slot counts are read off the slot buckets. */
struct UnitPin
{
    /** cycles, chip_cycles, rays_completed, datapath_beats,
     *  mem_requests, idle slots, memory-stall slots. */
    Fields7 scalars;
    std::array<uint64_t, kNumOpcodes> beats_by_op;
    Fields3 mem;  ///< hits, misses, evictions
    Fields3 mshr; ///< allocations, merges, stalls_full
    Fields10 packet;
    Fields7 knn;
    std::array<uint64_t, obs::kSlotBuckets> slots;
    std::vector<Fields6> l2_banks;
};

UnitPin
pinOf(const RtUnitStats &u)
{
    const PacketStats &p = u.packet;
    return {{u.cycles, u.chip_cycles, u.rays_completed, u.datapath_beats,
             u.mem_requests, u.slots.total() - u.slots[obs::Slot::Issued],
             u.slots.memoryStallSlots()},
            u.beats_by_op,
            {u.mem.hits, u.mem.misses, u.mem.evictions},
            {u.mshr.allocations, u.mshr.merges, u.mshr.stalls_full},
            {p.packets_formed, p.node_visits, p.active_ray_visits,
             p.fetches_shared, p.cross_job_fetches_shared,
             p.divergence_splits, p.rays_retired, p.occupancy_at_retire,
             p.compactions, p.lanes_repacked},
            knnFields(u.knn),
            u.slots.buckets,
            bankFields(u.l2_banks)};
}

void
expectUnitPin(const RtUnitStats &u, const UnitPin &want)
{
    const UnitPin got = pinOf(u);
    EXPECT_EQ(got.scalars, want.scalars);
    EXPECT_EQ(got.beats_by_op, want.beats_by_op);
    EXPECT_EQ(got.mem, want.mem);
    EXPECT_EQ(got.mshr, want.mshr);
    EXPECT_EQ(got.packet, want.packet);
    EXPECT_EQ(got.knn, want.knn);
    EXPECT_EQ(got.slots, want.slots);
    EXPECT_EQ(got.l2_banks, want.l2_banks);
}

size_t
hitCount(const std::vector<HitRecord> &hits)
{
    size_t n = 0;
    for (const HitRecord &h : hits)
        n += h.hit;
    return n;
}

/** The scalar scheduler (packet width 1) over the probe cache. */
sim::EngineConfig
scalarEngineConfig(unsigned issue_width, unsigned mshrs)
{
    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 64;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.issue_width = issue_width;
    cfg.rt.mshrs = mshrs;
    return cfg;
}

} // namespace


TEST(BatchApiPin, ScalarIssue4MshrCacheClosestHit)
{
    Bvh4 bvh = testScene();
    const sim::EngineReport rep =
        sim::Engine(scalarEngineConfig(4, 8)).run(bvh, pinRays(bvh));
    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(hitCount(rep.hits), 58u);
    expectUnitPin(rep.unit,
                  {{6535, 0, 304, 4791, 1497, 21349, 19343},
                   {2435, 2356, 0, 0},
                   {1752, 1643, 1323},
                   {1497, 1715, 12090},
                   {},
                   {},
                   {4791, 12364, 6979, 0, 0, 0, 1986, 20},
                   {}});
}

TEST(BatchApiPin, ScalarAnyHit)
{
    Bvh4 bvh = testScene();
    const sim::EngineConfig cfg = scalarEngineConfig(2, 0);
    const sim::EngineReport rep =
        sim::Engine(cfg).run(bvh, pinRays(bvh), true);
    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(hitCount(rep.hits), 58u);
    expectUnitPin(rep.unit,
                  {{5122, 0, 304, 4658, 3159, 5586, 4934},
                   {2388, 2270, 0, 0},
                   {5215, 1891, 1571},
                   {},
                   {},
                   {},
                   {4658, 4934, 0, 0, 0, 0, 642, 10},
                   {}});
}

namespace
{

/** A torus with 8-triangle leaves: every leaf streams several triangle
 *  beats. Its top and bottom rings share one y plane, so rays from
 *  above enter sibling boxes at equal distances and the child order
 *  rests on the QuadSort network's tie order. */
Bvh4
tieHeavyScene()
{
    BuildParams params;
    params.max_leaf_size = 8;
    return buildBvh4(makeTorus({0, 0, 0}, 2.5f, 0.8f, 24, 16), params);
}

/** Camera rays from above and from a diagonal, random rays around the
 *  torus and two AO fans off its inner surface. */
std::vector<Ray>
tieHeavyRays(const Bvh4 &bvh)
{
    std::vector<Ray> rays;
    for (const auto &[eye, side] :
         {std::pair<Vec3, unsigned>{{0.3f, 9.0f, 0.7f}, 16},
          std::pair<Vec3, unsigned>{{6.0f, 6.0f, 6.0f}, 12}}) {
        Camera cam;
        cam.look_at = bvh.root_bounds.centre();
        cam.eye = eye;
        cam.width = side;
        cam.height = side;
        for (unsigned y = 0; y < side; ++y)
            for (unsigned x = 0; x < side; ++x)
                rays.push_back(cam.primaryRay(x, y, 100.0f));
    }
    WorkloadGen gen(31);
    for (int i = 0; i < 48; ++i)
        rays.push_back(gen.ray(3.0f));
    const float c = std::sqrt(0.5f);
    const RayGen fans(3);
    fans.appendAoFan(rays, {2.5f - 0.8f * c, 0.8f * c, 0}, {-c, c, 0}, 32,
                     1e-3f, 4.0f);
    fans.appendAoFan(rays, {1.7f, 0, 0}, {-1, 0, 0}, 32, 1e-3f, 4.0f);
    return rays;
}

} // namespace

TEST(BatchApiPin, WidthOneTieHeavyMultiTriangleLeaves)
{
    // The width-1 schedule where it is easiest to break: one triangle
    // beat in flight per leaf, children pushed in the datapath's own
    // order on distance ties.
    Bvh4 bvh = tieHeavyScene();
    const std::vector<Ray> rays = tieHeavyRays(bvh);
    struct Case
    {
        unsigned issue_width;
        bool any_hit;
        uint64_t hits;
        UnitPin pin;
    };
    const Case cases[] = {
        {1, false, 12762920933769853588ull,
         {{32503, 0, 512, 5363, 1153, 27140, 25762},
          {1660, 3703, 0, 0},
          {668, 3140, 2635},
          {1153, 1110, 340258},
          {},
          {},
          {5363, 3819, 21943, 0, 0, 0, 1370, 8},
          {}}},
        {4, false, 12762920933769853588ull,
         {{33468, 0, 512, 5363, 1115, 128509, 121181},
          {1660, 3703, 0, 0},
          {562, 3193, 2688},
          {1115, 1148, 363940},
          {},
          {},
          {5363, 18394, 102787, 0, 0, 0, 7296, 32},
          {}}},
        {1, true, 14737014582729411557ull,
         {{28849, 0, 512, 4617, 1031, 24232, 23343},
          {1567, 3050, 0, 0},
          {584, 2817, 2312},
          {1031, 1082, 306360},
          {},
          {},
          {4617, 3638, 19705, 0, 0, 0, 881, 8},
          {}}},
        {4, true, 14737014582729411557ull,
         {{29382, 0, 512, 4617, 992, 112911, 107736},
          {1567, 3050, 0, 0},
          {513, 2828, 2323},
          {992, 1121, 325710},
          {},
          {},
          {4617, 17266, 90470, 0, 0, 0, 5143, 32},
          {}}},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "issue " << c.issue_width
                                        << (c.any_hit ? " any" : " closest"));
        const sim::EngineConfig cfg = scalarEngineConfig(c.issue_width, 2);
        const sim::EngineReport rep =
            sim::Engine(cfg).run(bvh, rays, c.any_hit);
        EXPECT_EQ(hitDigest(rep.hits), c.hits);
        expectUnitPin(rep.unit, c.pin);
    }
}

TEST(BatchApiPin, PacketCompactingAnyHit)
{
    Bvh4 bvh = testScene();
    sim::EngineConfig cfg = packetEngineConfig(1);
    cfg.batch_size = 64;
    const sim::EngineReport rep =
        sim::Engine(cfg).run(bvh, pinRays(bvh), true);
    EXPECT_EQ(rep.batches, 5u);
    EXPECT_EQ(hitCount(rep.hits), 58u);
    expectUnitPin(rep.unit,
                  {{12221, 0, 304, 4722, 947, 7499, 7164},
                   {2391, 2331, 0, 0},
                   {979, 1257, 937},
                   {},
                   {38, 947, 3161, 2214, 0, 357, 304, 1416, 10, 19},
                   {},
                   {4722, 7164, 0, 0, 0, 0, 330, 5},
                   {}});
}

TEST(BatchApiPin, KnnIssue4Mshr8Counters)
{
    // The knn_search shape: one unit, probe L1, issue 4, 8 MSHRs, every
    // fourth query cosine.
    const unsigned dims = 16;
    const KnnIndex index = buildKnnIndex(makePointCloud(240, dims, 6, 41));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(80, dims, 6, 43))
        queries.push_back({std::move(p.coords), 4,
                           queries.size() % 4 == 3 ? KnnMetric::Cosine
                                                   : KnnMetric::Euclidean});
    sim::EngineConfig cfg = scalarEngineConfig(4, 8);
    cfg.batch_size = 32;
    cfg.dp = kExtendedUnified;
    const sim::KnnReport rep = sim::Engine(cfg).runKnn(index, queries);
    EXPECT_EQ(rep.batches, 3u);
    expectUnitPin(rep.unit,
                  {{34779, 0, 0, 24000, 6902, 115116, 114934},
                   {0, 0, 14400, 9600},
                   {5084, 12561, 12369},
                   {6902, 3098, 250511},
                   {},
                   {80, 19200, 24000, 3280, 6720, 0, 59},
                   {24000, 38953, 75981, 0, 0, 0, 170, 12},
                   {}});
}

TEST(BatchApiPin, MixedStreamReport)
{
    Bvh4 bvh = testScene();
    sim::StreamConfig scfg;
    scfg.batch_size = 64;
    const sim::StreamReport rep = sim::StreamingService::run(
        sim::Engine(packetEngineConfig(1)), bvh, mixedSchedule(bvh), scfg);
    sim::EngineConfig traced = packetEngineConfig(1);
    traced.trace = true;
    const sim::StreamReport tr = sim::StreamingService::run(
        sim::Engine(traced), bvh, mixedSchedule(bvh), scfg);
    EXPECT_EQ(rep.batches, 7u);
    EXPECT_EQ(rep.makespan_ticks, 23003u);
    EXPECT_EQ(rep.p50_job_latency, 14976u);
    EXPECT_EQ(rep.p99_job_latency, 22528u);
    EXPECT_EQ(rep.unit.cycles, 23003u);
    ASSERT_EQ(rep.jobs.size(), 3u);
    EXPECT_EQ(Fields3({rep.jobs[0].batches, rep.jobs[1].batches,
                       rep.jobs[2].batches}),
              Fields3({3, 4, 2}));
    EXPECT_EQ(Fields3({rep.jobs[0].shared_batches,
                       rep.jobs[1].shared_batches,
                       rep.jobs[2].shared_batches}),
              Fields3({0, 2, 2}));
    EXPECT_EQ(tr.unit, rep.unit);
    EXPECT_EQ(tr.trace.size(), 3563u);
    EXPECT_EQ(traceDigest(tr.trace), 15567548716477660303ull);
}

// ---------------------------------------------------------------------
// Result pins: every hit-record field of three ray runs and every
// neighbor of a k-NN run, digested. The counters above pin the timing;
// these pin the values the lanes compute, independently of the
// Functional model the hit-equality tests compare against.
// ---------------------------------------------------------------------

TEST(BatchApiPin, HitAndNeighborDigests)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = pinRays(bvh);

    sim::EngineConfig single = packetEngineConfig(1);
    single.batch_size = 64;
    single.rt.issue_width = 2;
    single.rt.mshrs = 8;
    EXPECT_EQ(hitDigest(sim::Engine(single).run(bvh, rays).hits),
              13017464970468346363ull);

    sim::EngineConfig chip = packetEngineConfig(1);
    chip.batch_size = 64;
    chip.chip.units = 4;
    chip.chip.l2 = sim::L2Mode::Shared;
    chip.chip.l2cfg = kProbeL2_128KiB;
    EXPECT_EQ(hitDigest(sim::Engine(chip).run(bvh, rays).hits),
              13017464970468346363ull);

    sim::EngineConfig any = packetEngineConfig(1);
    any.batch_size = 64;
    EXPECT_EQ(hitDigest(sim::Engine(any).run(bvh, rays, true).hits),
              8557016087063139173ull);

    EXPECT_EQ(neighborDigest(pinKnnRun(1, KnnMetric::Euclidean).results),
              5506704842429364290ull);
}
