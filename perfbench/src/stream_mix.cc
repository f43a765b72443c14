/**
 * @file
 * stream_mix: one large frame job and about a thousand small jobs
 * through sim::StreamingService on one unit.
 *
 * Why this workload: it is the only one with per-job latency. It runs
 * many small batches (a fresh unit per batch, plus the scheduler's
 * plan and the job queue), and it exercises
 * cross-job packet sharing: the small jobs arrive in bursts of four,
 * so same-mode jobs of a burst pack into shared batches. The bursts
 * arrive as an open loop on the simulated clock: seeded exponential
 * gaps at one fixed offered rate below saturation, whatever the
 * service does.
 */
#include <algorithm>
#include <numeric>
#include <random>

#include "bench.hh"
#include "core/raygen.hh"
#include "sim/stream.hh"

namespace perfbench
{

namespace
{

using namespace rayflex;

constexpr unsigned kFrameSide = 64; ///< frame job: 64 x 64 primaries
/** Small jobs: 50 of them lie beyond the p95, so the handful that
 *  arrive while the frame job runs never reach it. */
constexpr size_t kSmallJobs = 1000;
/** Small jobs that arrive together, on one tick. */
constexpr size_t kBurst = 4;
/** Mean simulated gap between bursts, cycles. */
constexpr double kMeanGapCycles = 250000.0;
constexpr unsigned kProbeSide = 8;   ///< probe job: 8 x 8 primaries
constexpr size_t kShadowRays = 32;   ///< shadow job: 32 any-hit rays
/** Probe windows tile a 240 x 160 view: 600 probes, 3 in 5 jobs. */
constexpr unsigned kTilesX = 30;
constexpr unsigned kTilesY = 20;
constexpr size_t kProbes = size_t(kTilesX) * kTilesY;
static_assert(5 * kProbes == 3 * kSmallJobs);
constexpr size_t kBatch = 64;
/** Frame-job rays RtUnit::run is timed on: enough to time reliably. */
constexpr uint32_t kUnitRays = 1024;

class StreamMix final : public Workload
{
  public:
    SetupTimes
    setup(uint64_t seed, unsigned threads) override
    {
        SetupTimes t;
        const double t0 = cpuSeconds();
        bvh_ = buildBenchScene();
        const double t1 = cpuSeconds();
        t.bvh_build_s = t1 - t0;

        makeJobs(seed);
        const double t2 = cpuSeconds();
        t.inputs_s = t2 - t1;

        // frame_chip's unit config without the chip: 4 KiB L1, 8-wide
        // packets, dual issue, 8 MSHRs, no L2.
        ecfg_ = {};
        ecfg_.threads = threads;
        ecfg_.rt.ray_buffer_entries = 32 * 8;
        ecfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        ecfg_.rt.cache = bvh::kProbeCache4KiB;
        ecfg_.rt.packet.width = 8;
        ecfg_.rt.issue_width = 2;
        ecfg_.rt.mshrs = 8;
        engine_ = std::make_unique<sim::Engine>(ecfg_);
        scfg_ = {};
        scfg_.batch_size = kBatch;
        scfg_.cross_job_packing = true;
        t.engine_s = cpuSeconds() - t2;
        return t;
    }

    double
    reference() override
    {
        sim::EngineConfig fcfg;
        fcfg.threads = ecfg_.threads;
        fcfg.model = sim::ExecutionModel::Functional;
        const sim::Engine functional(fcfg);
        ref_.clear();
        uint64_t rays = 0;
        const double t0 = cpuSeconds();
        for (const sim::RenderJob &j : jobs_) {
            ref_.push_back(functional.run(*bvh_, j.rays, j.any_hit).hits);
            rays += j.rays.size();
        }
        return double(rays) / (cpuSeconds() - t0);
    }

    RunOutcome
    run() override
    {
        std::vector<sim::RenderJob> jobs = jobs_; // copied before timing
        const double t0 = cpuSeconds();
        const sim::StreamReport rep = sim::StreamingService::run(
            *engine_, *bvh_, std::move(jobs), scfg_);
        RunOutcome o;
        o.host_seconds = cpuSeconds() - t0;
        o.unit = rep.unit;
        o.wall_cycles = o.unit.cycles;
        o.makespan = rep.makespan_ticks;
        // rep.jobs is in (arrival, id) order, as jobs_ and ref_ are.
        Digest d;
        for (size_t j = 0; j < rep.jobs.size(); ++j) {
            const sim::JobReport &jr = rep.jobs[j];
            const bool small = jr.id != 0;
            o.jobs.push_back(
                {jr.hits.size(), jr.latency, jr.queue_wait, small});
            if (small)
                o.job_latency.push_back(jr.latency);
            for (size_t r = 0; r < jr.hits.size(); ++r) {
                d.hit(jr.hits[r]);
                o.failed += !(jr.hits[r] == ref_[j][r]);
            }
            o.items += jr.hits.size();
        }
        o.digest = d.value();
        o.checked = o.items;
        fairness_ = rep.fairness;
        return o;
    }

    RunOutcome
    runTraced(SpanRecorder &spans) override
    {
        RunOutcome o;
        {
            ScopedSpan s(spans, "sim.stream.run");
            o = run();
        }
        // StreamingService one level down: the scheduler's plan, then
        // the executor on each planned batch.
        std::vector<sim::PlannedBatch> plans;
        {
            ScopedSpan s(spans, "sim.stream.plan");
            plans = sim::BatchScheduler(scfg_).plan(jobs_);
        }
        batches_ = plans.size();
        shared_batches_ = 0;
        for (const sim::PlannedBatch &b : plans)
            shared_batches_ += b.n_jobs > 1;

        std::vector<std::vector<bvh::HitRecord>> hits(jobs_.size());
        for (size_t j = 0; j < jobs_.size(); ++j)
            hits[j].resize(jobs_[j].rays.size());
        const sim::BatchExecutor exec(*bvh_, engine_->executorConfig());
        std::vector<sim::BatchRayRef> refs;
        ScopedSpan execute(spans, "sim.stream.execute");
        for (const sim::PlannedBatch &b : plans) {
            refs.resize(b.rays.size());
            for (size_t k = 0; k < b.rays.size(); ++k) {
                const auto [j, ri] = b.rays[k];
                refs[k] = {&jobs_[j].rays[ri], &hits[j][ri], j};
            }
            ScopedSpan bs(spans, "sim.executor.executeBatch");
            exec.executeBatch(refs.data(), refs.size(), b.any_hit);
        }
        return o;
    }

    void
    layerMetrics(const RunOutcome &traced, SpanRecorder &spans,
                 Metrics &m) override
    {
        m.set("sim.stream.plan_ms", spans.total("sim.stream.plan") * 1e3,
              "ms");
        m.set("sim.stream.shared_batch_share",
              batches_ ? double(shared_batches_) / double(batches_) : 0.0,
              "ratio");
        std::vector<uint64_t> waits;
        for (const JobTiming &j : traced.jobs)
            if (j.small)
                waits.push_back(j.queue_wait);
        m.set("sim.stream.p95_queue_wait_kcycles",
              double(percentile(waits, 0.95)) / 1000.0, "kcycles");
        m.set("sim.stream.fairness", fairness_, "ratio");
        m.set("sim.stream.makespan_kcycles",
              double(traced.makespan) / 1000.0, "kcycles");

        // The frame job's centre rays (its top rows are sky): the first
        // B/2 and B of them as one stream batch each.
        const std::vector<core::Ray> &rays = jobs_.front().rays;
        const core::Ray *frame = &rays[(rays.size() - kUnitRays) / 2];
        coldSteadyRays(sim::BatchExecutor(*bvh_, engine_->executorConfig()),
                       frame, kBatch, spans, m);

        core::RayFlexDatapath dp(ecfg_.dp);
        bvh::RtUnit unit(*bvh_, dp, ecfg_.rt);
        for (uint32_t i = 0; i < kUnitRays; ++i)
            unit.submit(frame[i], i);
        timeUnitRun(spans, unit, m);
    }

    const sim::EngineConfig &
    engineConfig() const override
    {
        return ecfg_;
    }

  private:
    /** The job schedule, already in (arrival, id) order. */
    void
    makeJobs(uint64_t seed)
    {
        // The job contents are the same on every seed: one probe per
        // window of a 240 x 160 view, and one fixed set of shadow
        // origins. The seed sets the burst gaps and deals the contents
        // out to the jobs, so only the order, the packing and the timing
        // change from seed to seed.
        std::mt19937_64 rng(seed);
        std::vector<size_t> probes(kProbes), shadows(kSmallJobs - kProbes);
        std::iota(probes.begin(), probes.end(), size_t{0});
        std::iota(shadows.begin(), shadows.end(), size_t{0});
        std::shuffle(probes.begin(), probes.end(), rng);
        std::shuffle(shadows.begin(), shadows.end(), rng);
        std::mt19937_64 pool_rng(1);
        std::uniform_real_distribution<float> jit(-1.0f, 1.0f);
        std::vector<core::Float3> origins(shadows.size() * kShadowRays);
        for (core::Float3 &p : origins)
            p = {9.0f * jit(pool_rng), 1.0f + 2.0f * jit(pool_rng),
                 9.0f * jit(pool_rng)};

        core::Pinhole cam;
        cam.eye = {6.0f, 8.0f, 14.0f};
        cam.look_at = {0.0f, 1.0f, 0.0f};
        cam.width = kFrameSide;
        cam.height = kFrameSide;
        const core::Float3 light{0.5f, 1.0f, 0.3f};

        jobs_.clear();
        jobs_.push_back(
            {0, 0, false, core::RayGen::primaryRays(cam, 1000.0f)});

        core::Pinhole probe_cam = cam;
        probe_cam.width = kTilesX * kProbeSide;
        probe_cam.height = kTilesY * kProbeSide;
        std::exponential_distribution<double> gap(1.0 / kMeanGapCycles);
        double arrival = 0;
        size_t next_probe = 0, next_shadow = 0;
        for (size_t id = 1; id <= kSmallJobs; ++id) {
            if ((id - 1) % kBurst == 0)
                arrival += gap(rng);
            sim::RenderJob job;
            job.id = id;
            job.arrival_tick = uint64_t(arrival) + 1;
            if (id % 5 != 1 && id % 5 != 3) { // 3 probes in 5 jobs
                const size_t tile = probes[next_probe++];
                const unsigned x0 = unsigned(tile % kTilesX) * kProbeSide;
                const unsigned y0 = unsigned(tile / kTilesX) * kProbeSide;
                for (unsigned y = y0; y < y0 + kProbeSide; ++y)
                    for (unsigned x = x0; x < x0 + kProbeSide; ++x)
                        job.rays.push_back(core::RayGen::primaryRay(
                            probe_cam, x, y, 1000.0f));
            } else {
                job.any_hit = true;
                const core::Float3 *p =
                    &origins[shadows[next_shadow++] * kShadowRays];
                for (size_t r = 0; r < kShadowRays; ++r)
                    job.rays.push_back(core::RayGen::shadowRay(
                        p[r], {0, 1, 0}, light, 1e-3f, 50.0f));
            }
            jobs_.push_back(std::move(job));
        }
    }

    std::unique_ptr<bvh::Bvh4> bvh_;
    std::vector<sim::RenderJob> jobs_;
    sim::EngineConfig ecfg_;
    sim::StreamConfig scfg_;
    std::unique_ptr<sim::Engine> engine_;
    std::vector<std::vector<bvh::HitRecord>> ref_;
    size_t batches_ = 0;
    size_t shared_batches_ = 0;
    double fairness_ = 0; ///< the last run's StreamReport::fairness
};

} // namespace

std::unique_ptr<Workload>
makeStreamMix()
{
    return std::make_unique<StreamMix>();
}

} // namespace perfbench
