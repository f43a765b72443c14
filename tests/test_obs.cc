/**
 * @file
 * Tests of the observability subsystem (src/obs/): the issue-slot
 * conservation invariant sum(buckets) == cycles * issue_width across
 * the full knob grid (packets x issue x MSHRs x memory backend x chip
 * x k-NN), the zero-overhead contract of disabled tracing (every
 * counter and hit bit-identical trace-on vs trace-off), trace
 * bit-identity at 1/2/8 workers for both the batch engine and the
 * streaming service, log-linear histogram algebra (merge
 * commutativity, exactness below 64, quantile-vs-exact-sort error
 * bound), stall-bucket plausibility per configuration, and the
 * streaming percentile ordering p50 <= p99 <= p999.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "bvh/builder.hh"
#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "obs/histogram.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;
using rayflex::fp::toBits;

namespace
{

/** The mixed scene the PR-4/5 pins were captured on (test_chip,
 *  test_issue_width). */
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

/** The conservation invariant for one report: every issue slot of
 *  every cycle landed in exactly one bucket, and the Issued bucket is
 *  the beat counter itself. Holds for merged reports too — both sides
 *  of the identity are sums. */
::testing::AssertionResult
slotsConserved(const RtUnitStats &u, unsigned issue_width)
{
    if (u.slots.total() != u.cycles * issue_width)
        return ::testing::AssertionFailure()
               << "slot buckets sum to " << u.slots.total() << ", want "
               << u.cycles << " x " << issue_width << " = "
               << u.cycles * issue_width;
    if (u.slots[obs::Slot::Issued] != u.datapath_beats)
        return ::testing::AssertionFailure()
               << "Issued bucket " << u.slots[obs::Slot::Issued]
               << " != datapath_beats " << u.datapath_beats;
    return ::testing::AssertionSuccess();
}

sim::EngineConfig
baseConfig()
{
    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 64;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Conservation invariant across the knob grid
// ---------------------------------------------------------------------

TEST(Obs, SlotConservationAcrossKnobGrid)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    for (unsigned width : {1u, 8u}) {
        for (unsigned issue : {1u, 2u}) {
            for (unsigned mshrs : {0u, 8u}) {
                for (bool cached : {false, true}) {
                    sim::EngineConfig cfg = baseConfig();
                    cfg.rt.packet.width = width;
                    cfg.rt.ray_buffer_entries = 32 * width;
                    cfg.rt.issue_width = issue;
                    cfg.rt.mshrs = mshrs;
                    if (cached) {
                        cfg.rt.mem_backend = MemBackend::NodeCache;
                        cfg.rt.cache = kProbeCache4KiB;
                    }
                    sim::EngineReport rep =
                        sim::Engine(cfg).run(bvh, rays);
                    EXPECT_TRUE(slotsConserved(rep.unit, issue))
                        << "width " << width << " issue " << issue
                        << " mshrs " << mshrs << " cached " << cached;
                }
            }
        }
    }
}

TEST(Obs, SlotConservationChipModes)
{
    // The chip grid: lock-stepped units behind a shared and behind
    // private L2s. Merged cycles are the per-unit sums, so the
    // invariant carries through the chip merge unchanged.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    for (sim::L2Mode l2 : {sim::L2Mode::Shared, sim::L2Mode::Private}) {
        sim::EngineConfig cfg = baseConfig();
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
        cfg.rt.packet.width = 8;
        cfg.rt.ray_buffer_entries = 32 * 8;
        cfg.rt.issue_width = 2;
        cfg.rt.mshrs = 8;
        cfg.chip.units = 4;
        cfg.chip.l2 = l2;
        cfg.chip.l2cfg = l2 == sim::L2Mode::Shared
                             ? kProbeL2_128KiB
                             : kProbeL2_128KiB.dividedAcross(4);
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        EXPECT_TRUE(slotsConserved(rep.unit, 2))
            << "l2 mode " << int(l2);
        EXPECT_GT(rep.unit.slots.total(), 0u);
    }
}

TEST(Obs, SlotConservationKnn)
{
    const auto cloud = makePointCloud(600, 16, 8, 21);
    const KnnIndex index = buildKnnIndex(cloud);
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(64, 16, 8, 22))
        queries.push_back(
            {std::move(p.coords), 4, KnnMetric::Euclidean});

    sim::EngineConfig cfg = baseConfig();
    cfg.dp = core::kExtendedUnified;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    sim::KnnReport rep = sim::Engine(cfg).runKnn(index, queries);
    EXPECT_TRUE(slotsConserved(rep.unit, 2));
    EXPECT_GT(rep.unit.slots.total(), 0u);
}

// ---------------------------------------------------------------------
// Bucket plausibility per configuration
// ---------------------------------------------------------------------

TEST(Obs, BucketSanityPerConfiguration)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    // Flat-latency memory: every fetch wait is an L1-phase wait — the
    // L2-side buckets (ring, bank queue, fill) and the MSHR bucket
    // must be exactly zero.
    {
        sim::EngineConfig cfg = baseConfig();
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        const obs::SlotAccounting &sl = rep.unit.slots;
        EXPECT_GT(sl[obs::Slot::StallL1Miss], 0u);
        EXPECT_EQ(sl[obs::Slot::StallMshrFull], 0u);
        EXPECT_EQ(sl[obs::Slot::StallRingHop], 0u);
        EXPECT_EQ(sl[obs::Slot::StallL2BankQueue], 0u);
        EXPECT_EQ(sl[obs::Slot::StallL2Fill], 0u);
    }

    // A deliberately tiny MSHR file back-pressures fetches: the
    // MshrFull bucket must light up.
    {
        sim::EngineConfig cfg = baseConfig();
        cfg.rt.mshrs = 1;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        EXPECT_GT(rep.unit.slots[obs::Slot::StallMshrFull], 0u);
        EXPECT_GT(rep.unit.mshr.stalls_full, 0u);
    }

    // A shared-L2 chip routes misses over the ring into banks: the
    // ring and L2-fill buckets must light up (they are exactly what
    // the flat counters could not attribute).
    {
        sim::EngineConfig cfg = baseConfig();
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
        cfg.rt.mshrs = 8;
        cfg.chip.units = 4;
        cfg.chip.l2 = sim::L2Mode::Shared;
        cfg.chip.l2cfg = kProbeL2_128KiB;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        EXPECT_GT(rep.unit.slots[obs::Slot::StallRingHop], 0u);
        EXPECT_GT(rep.unit.slots[obs::Slot::StallL2Fill], 0u);
    }
}

// ---------------------------------------------------------------------
// Zero-overhead and determinism contracts of tracing
// ---------------------------------------------------------------------

namespace
{

/** Every counter the engine reports, compared field by field. */
void
expectStatsEqual(const RtUnitStats &a, const RtUnitStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.rays_completed, b.rays_completed);
    EXPECT_EQ(a.datapath_beats, b.datapath_beats);
    EXPECT_EQ(a.mem_requests, b.mem_requests);
    EXPECT_EQ(a.mem.hits, b.mem.hits);
    EXPECT_EQ(a.mem.misses, b.mem.misses);
    EXPECT_EQ(a.mshr.merges, b.mshr.merges);
    EXPECT_EQ(a.mshr.stalls_full, b.mshr.stalls_full);
    EXPECT_EQ(a.packet.packets_formed, b.packet.packets_formed);
    EXPECT_EQ(a.packet.fetches_shared, b.packet.fetches_shared);
    EXPECT_TRUE(a.slots == b.slots);
    EXPECT_EQ(a.chip_cycles, b.chip_cycles);
    EXPECT_EQ(a.l2Total().hits, b.l2Total().hits);
    EXPECT_EQ(a.l2Total().queue_stalls, b.l2Total().queue_stalls);
    EXPECT_EQ(a.l2Total().hops, b.l2Total().hops);
}

sim::EngineConfig
tracedChipConfig(unsigned threads, bool trace)
{
    sim::EngineConfig cfg;
    cfg.threads = threads;
    cfg.batch_size = 64;
    cfg.trace = trace;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.packet.width = 8;
    cfg.rt.ray_buffer_entries = 32 * 8;
    cfg.rt.issue_width = 2;
    cfg.rt.mshrs = 8;
    cfg.chip.units = 2;
    cfg.chip.l2 = sim::L2Mode::Shared;
    cfg.chip.l2cfg = kProbeL2_128KiB;
    return cfg;
}

} // namespace

TEST(Obs, TracingOffIsFreeAndTracingChangesNoCounter)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineReport off =
        sim::Engine(tracedChipConfig(1, false)).run(bvh, rays);
    sim::EngineReport on =
        sim::Engine(tracedChipConfig(1, true)).run(bvh, rays);

    EXPECT_TRUE(off.trace.empty());
    EXPECT_FALSE(on.trace.empty());
    expectStatsEqual(off.unit, on.unit);
    ASSERT_EQ(off.hits.size(), on.hits.size());
    for (size_t i = 0; i < off.hits.size(); ++i) {
        EXPECT_EQ(off.hits[i].hit, on.hits[i].hit);
        EXPECT_EQ(off.hits[i].triangle_id, on.hits[i].triangle_id);
        EXPECT_EQ(toBits(off.hits[i].t), toBits(on.hits[i].t));
    }
}

TEST(Obs, EngineTraceBitIdenticalAcrossWorkers)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineReport ref =
        sim::Engine(tracedChipConfig(1, true)).run(bvh, rays);
    ASSERT_FALSE(ref.trace.empty());
    for (unsigned threads : {2u, 8u}) {
        sim::EngineReport rep =
            sim::Engine(tracedChipConfig(threads, true)).run(bvh, rays);
        EXPECT_TRUE(rep.trace == ref.trace)
            << "trace differs at " << threads << " workers ("
            << rep.trace.size() << " vs " << ref.trace.size()
            << " events)";
        expectStatsEqual(rep.unit, ref.unit);
    }
}

TEST(Obs, StreamTraceBitIdenticalAcrossWorkers)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);
    const std::vector<Ray> small(rays.begin(), rays.begin() + 32);

    const auto run = [&](unsigned threads) {
        sim::EngineConfig cfg = tracedChipConfig(threads, true);
        cfg.chip = {}; // single unit: streaming exercises the engine
                       // workers, the chip path is covered above
        const sim::Engine eng(cfg);
        std::vector<sim::RenderJob> jobs;
        jobs.push_back({1, 0, false, rays});
        jobs.push_back({2, 500, false, small});
        jobs.push_back({3, 900, true, small});
        sim::StreamConfig scfg;
        scfg.batch_size = 64;
        return sim::StreamingService::run(eng, bvh, std::move(jobs),
                                          scfg);
    };

    sim::StreamReport ref = run(1);
    ASSERT_FALSE(ref.trace.empty());
    // The stream trace carries the job tier too: one JobSubmit and one
    // JobComplete per job, batches bracketed.
    size_t submits = 0, completes = 0, starts = 0, ends = 0;
    for (const obs::TraceRecord &r : ref.trace) {
        submits += r.event == obs::TraceEvent::JobSubmit;
        completes += r.event == obs::TraceEvent::JobComplete;
        starts += r.event == obs::TraceEvent::BatchStart;
        ends += r.event == obs::TraceEvent::BatchEnd;
    }
    EXPECT_EQ(submits, 3u);
    EXPECT_EQ(completes, 3u);
    EXPECT_EQ(starts, ref.batches);
    EXPECT_EQ(ends, ref.batches);

    for (unsigned threads : {2u, 8u}) {
        sim::StreamReport rep = run(threads);
        EXPECT_TRUE(rep.trace == ref.trace)
            << "stream trace differs at " << threads << " workers";
        expectStatsEqual(rep.unit, ref.unit);
        EXPECT_EQ(rep.p50_job_latency, ref.p50_job_latency);
        EXPECT_EQ(rep.p99_job_latency, ref.p99_job_latency);
        EXPECT_EQ(rep.p999_job_latency, ref.p999_job_latency);
    }
}

TEST(Obs, StreamPercentilesOrderedAndHistogramBacked)
{
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);
    const std::vector<Ray> small(rays.begin(), rays.begin() + 32);

    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 64;
    const sim::Engine eng(cfg);
    std::vector<sim::RenderJob> jobs;
    jobs.push_back({1, 0, false, rays});
    for (uint64_t j = 2; j <= 5; ++j)
        jobs.push_back({j, 300 * j, false, small});
    sim::StreamReport rep =
        sim::StreamingService::run(eng, bvh, std::move(jobs), {});

    EXPECT_LE(rep.p50_job_latency, rep.p99_job_latency);
    EXPECT_LE(rep.p99_job_latency, rep.p999_job_latency);
    for (const sim::JobReport &j : rep.jobs) {
        EXPECT_LE(j.p50_ray_latency, j.p99_ray_latency);
        EXPECT_LE(j.p99_ray_latency, j.p999_ray_latency);
        // Bucket lower-bound reporting can only round DOWN, and a
        // job's rays cannot outlive the job.
        EXPECT_LE(j.p999_ray_latency, j.latency);
    }
}

// ---------------------------------------------------------------------
// Histogram algebra
// ---------------------------------------------------------------------

TEST(Obs, HistogramExactBelow64)
{
    // The log-linear layout is the identity below 2^kSubBits: every
    // small latency reports exactly, so short-path percentiles carry
    // no rounding at all.
    for (uint64_t v : {0ull, 1ull, 7ull, 42ull, 63ull}) {
        obs::Histogram h;
        h.add(v);
        EXPECT_EQ(h.quantile(0.5), v);
        EXPECT_EQ(obs::Histogram::bucketLowerBound(
                      obs::Histogram::bucketIndex(v)),
                  v);
    }
}

TEST(Obs, HistogramMergeCommutes)
{
    std::mt19937_64 rng(7);
    obs::Histogram a, b;
    for (int i = 0; i < 2000; ++i)
        a.add(rng() % 100000, 1 + rng() % 3);
    for (int i = 0; i < 500; ++i)
        b.add(rng() % 1000);

    obs::Histogram ab = a, ba = b, all;
    ab.merge(b);
    ba.merge(a);
    EXPECT_TRUE(ab == ba);
    EXPECT_EQ(ab.count(), a.count() + b.count());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(ab.quantile(q), ba.quantile(q));

    // Merging empties is the identity.
    obs::Histogram empty;
    obs::Histogram a2 = a;
    a2.merge(empty);
    EXPECT_TRUE(a2 == a);
    empty.merge(a);
    EXPECT_TRUE(empty == a);
}

TEST(Obs, HistogramQuantileVsExactSort)
{
    // The accuracy contract: the histogram's nearest-rank quantile is
    // the bucket lower bound of the exact nearest-rank sample — never
    // above it, within one sub-bucket (1/64 < 1.6% relative) below.
    std::mt19937_64 rng(11);
    std::vector<uint64_t> samples;
    obs::Histogram h;
    for (int i = 0; i < 5000; ++i) {
        // Mix scales so buckets across many octaves are exercised.
        uint64_t v = (rng() % 50) * (uint64_t(1) << (rng() % 16));
        samples.push_back(v);
        h.add(v);
    }
    std::sort(samples.begin(), samples.end());

    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        // Same nearest-rank rule as Histogram::quantile, so the two
        // sides select the same sample and only bucketing differs.
        size_t rank = size_t(std::ceil(q * double(samples.size())));
        rank = std::clamp<size_t>(rank, 1, samples.size());
        const uint64_t exact = samples[rank - 1];
        const uint64_t approx = h.quantile(q);
        EXPECT_LE(approx, exact) << "q=" << q;
        EXPECT_LE(double(exact) - double(approx),
                  double(exact) / 64.0 + 1.0)
            << "q=" << q << " exact=" << exact << " approx=" << approx;
    }
}

TEST(Obs, SlotAccountingMergeAndNames)
{
    obs::SlotAccounting a, b;
    a[obs::Slot::Issued] = 10;
    a[obs::Slot::StallL1Miss] = 3;
    b[obs::Slot::Issued] = 5;
    b[obs::Slot::StallDrain] = 2;
    obs::SlotAccounting m = a;
    m.merge(b);
    EXPECT_EQ(m.total(), a.total() + b.total());
    EXPECT_EQ(m[obs::Slot::Issued], 15u);
    EXPECT_EQ(m.memoryStallSlots(), 3u);

    // Every bucket has a distinct, non-empty display name (the bench
    // counters and render_scene's issue-slot breakdown print them).
    for (size_t s = 0; s < obs::kSlotBuckets; ++s) {
        ASSERT_NE(obs::slotName(obs::Slot(s)), nullptr);
        for (size_t t = 0; t < s; ++t)
            EXPECT_STRNE(obs::slotName(obs::Slot(s)),
                         obs::slotName(obs::Slot(t)));
    }
}
