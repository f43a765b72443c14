/**
 * @file
 * frame_chip: one rendered frame (primary, shadow, AO fans, bounce)
 * through sim::renderPasses on the 4-unit shared-L2 chip.
 *
 * Why this workload: it is the paper's rendering use on the chip
 * config BM_UnitScalingSweep reports, sized well past the chip's 1024
 * in-flight rays so the number is not warm-up. It is the only workload
 * that exercises the chip L2, the ring and cross-unit merges; it mixes
 * coherent closest-hit rays with incoherent any-hit rays; and memory
 * stalls take about a quarter of its issue slots.
 */
#include <array>
#include <random>

#include "bench.hh"
#include "core/raygen.hh"
#include "sim/passes.hh"

namespace perfbench
{

namespace
{

using namespace rayflex;

constexpr unsigned kWidth = 160;  ///< 160 x 128 = 20480 primaries
constexpr unsigned kHeight = 128;
constexpr unsigned kAoSamples = 4;
/** Rays per engine batch: twice the chip's in-flight capacity
 *  (4 units x 256 ray-buffer entries), small enough that every pass
 *  splits into several batches per worker. */
constexpr size_t kBatch = 2048;

/** The per-pixel outputs of a frame, as sim::PassesReport holds them. */
struct Pixels
{
    std::vector<bvh::HitRecord> primary;
    std::vector<float> diffuse;
    std::vector<uint8_t> lit;
    std::vector<float> ao_open;
    std::vector<bvh::HitRecord> bounce;
};

uint64_t
digestOf(const Pixels &p)
{
    Digest d;
    for (size_t i = 0; i < p.primary.size(); ++i) {
        d.hit(p.primary[i]);
        d.f32(p.diffuse[i]);
        d.u64(p.lit[i]);
        d.f32(p.ao_open[i]);
        d.hit(p.bounce[i]);
    }
    return d.value();
}

/** Pixels with any output that differs from the reference. */
uint64_t
mismatches(const Pixels &got, const Pixels &ref)
{
    uint64_t bad = 0;
    for (size_t i = 0; i < ref.primary.size(); ++i)
        bad += !(got.primary[i] == ref.primary[i]) ||
               got.diffuse[i] != ref.diffuse[i] || got.lit[i] != ref.lit[i] ||
               got.ao_open[i] != ref.ao_open[i] ||
               !(got.bounce[i] == ref.bounce[i]);
    return bad;
}

Pixels
pixelsOf(const sim::PassesReport &rep)
{
    return {rep.primary.hits, rep.diffuse, rep.lit, rep.ao_open,
            rep.bounce_hits};
}

class FrameChip final : public Workload
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

        // The seed moves the camera and the light a little. The AO fan
        // phase stays fixed: it alone moves items_per_kcycle by ~2%.
        std::mt19937_64 rng(seed);
        std::uniform_real_distribution<float> jit(-1.0f, 1.0f);
        pcfg_ = {};
        pcfg_.camera.eye = {6.0f + 0.05f * jit(rng),
                            8.0f + 0.05f * jit(rng),
                            14.0f + 0.05f * jit(rng)};
        pcfg_.camera.look_at = {0.03f * jit(rng), 1.0f + 0.03f * jit(rng),
                                0.03f * jit(rng)};
        pcfg_.camera.width = kWidth;
        pcfg_.camera.height = kHeight;
        pcfg_.light_dir = {0.5f + 0.05f * jit(rng), 1.0f,
                           0.3f + 0.05f * jit(rng)};
        pcfg_.ao_samples = kAoSamples;
        pcfg_.ao_radius = 3.0f;
        pcfg_.bounce = true;
        pcfg_.seed = 1;
        primary_ = core::RayGen::primaryRays(pcfg_.camera, pcfg_.t_max);
        const double t2 = cpuSeconds();
        t.inputs_s = t2 - t1;

        // BM_UnitScalingSweep's chip: 4 units over the shared 128 KiB
        // L2, 8-wide packets, dual issue, 8 MSHRs, 4 KiB L1 each.
        ecfg_ = {};
        ecfg_.threads = threads;
        ecfg_.batch_size = kBatch;
        ecfg_.rt.ray_buffer_entries = 32 * 8;
        ecfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        ecfg_.rt.cache = bvh::kProbeCache4KiB;
        ecfg_.rt.packet.width = 8;
        ecfg_.rt.issue_width = 2;
        ecfg_.rt.mshrs = 8;
        ecfg_.chip.units = 4;
        ecfg_.chip.l2 = sim::L2Mode::Shared;
        ecfg_.chip.l2cfg = bvh::kProbeL2_128KiB;
        engine_ = std::make_unique<sim::Engine>(ecfg_);
        t.engine_s = cpuSeconds() - t2;
        return t;
    }

    double
    reference() override
    {
        sim::EngineConfig fcfg;
        fcfg.threads = ecfg_.threads;
        fcfg.batch_size = kBatch;
        fcfg.model = sim::ExecutionModel::Functional;
        const sim::Engine functional(fcfg);
        const double t0 = cpuSeconds();
        const sim::PassesReport rep =
            sim::renderPasses(functional, *bvh_, pcfg_);
        const double secs = cpuSeconds() - t0;
        ref_ = pixelsOf(rep);
        return double(rep.total_rays) / secs;
    }

    RunOutcome
    run() override
    {
        const double t0 = cpuSeconds();
        const sim::PassesReport rep =
            sim::renderPasses(*engine_, *bvh_, pcfg_);
        RunOutcome o;
        o.host_seconds = cpuSeconds() - t0;
        o.items = rep.total_rays;
        o.unit = rep.unit;
        o.wall_cycles = o.unit.chip_cycles;
        o.job_latency = {o.wall_cycles};
        const Pixels px = pixelsOf(rep);
        o.digest = digestOf(px);
        o.checked = px.primary.size();
        o.failed = mismatches(px, ref_);
        pass_s_ = {rep.primary.elapsed_seconds, rep.shadow.elapsed_seconds,
                   rep.ao.elapsed_seconds, rep.bounce.elapsed_seconds};
        return o;
    }

    RunOutcome
    runTraced(SpanRecorder &spans) override
    {
        RunOutcome o;
        {
            ScopedSpan s(spans, "sim.passes.renderPasses");
            o = run();
        }
        // Engine::run's batch loop one level down, on the primary pass
        // (the secondary rays exist only inside renderPasses).
        const sim::BatchExecutor exec(*bvh_, engine_->executorConfig());
        std::vector<bvh::HitRecord> hits(primary_.size());
        std::vector<sim::BatchRayRef> refs;
        ScopedSpan run(spans, "sim.engine.run");
        for (const core::BatchRange &r :
             core::sliceBatches(primary_.size(), kBatch)) {
            refs.resize(r.size());
            for (size_t i = r.begin; i < r.end; ++i)
                refs[i - r.begin] = {&primary_[i], &hits[i], 0};
            ScopedSpan b(spans, "sim.executor.executeBatch");
            exec.executeBatch(refs.data(), refs.size(), false);
        }
        return o;
    }

    void
    layerMetrics(const RunOutcome &, SpanRecorder &spans,
                 Metrics &m) override
    {
        // Host seconds of each pass, as renderPasses timed them in the
        // traced run.
        const char *passes[] = {"primary", "shadow", "ao", "bounce"};
        for (size_t i = 0; i < pass_s_.size(); ++i)
            m.set(std::string("sim.passes.") + passes[i] + "_s", pass_s_[i],
                  "s");

        // The centre block of B primaries (the top rows are sky).
        const core::Ray *block = &primary_[(primary_.size() - kBatch) / 2];
        coldSteadyRays(sim::BatchExecutor(*bvh_, engine_->executorConfig()),
                       block, kBatch, spans, m);

        // One unit of the chip on one workload batch, no L2.
        core::RayFlexDatapath dp(ecfg_.dp);
        bvh::RtUnit unit(*bvh_, dp, ecfg_.rt);
        for (uint32_t i = 0; i < kBatch; ++i)
            unit.submit(block[i], i);
        timeUnitRun(spans, unit, m);
    }

    const sim::EngineConfig &
    engineConfig() const override
    {
        return ecfg_;
    }

  private:
    std::unique_ptr<bvh::Bvh4> bvh_;
    sim::PassConfig pcfg_;
    std::vector<core::Ray> primary_;
    sim::EngineConfig ecfg_;
    std::unique_ptr<sim::Engine> engine_;
    Pixels ref_;
    std::array<double, 4> pass_s_{}; ///< the last run's pass times
};

} // namespace

std::unique_ptr<Workload>
makeFrameChip()
{
    return std::make_unique<FrameChip>();
}

} // namespace perfbench
