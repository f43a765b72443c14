/**
 * @file
 * Google-benchmark microbenchmarks of the model itself: simulation
 * speed of the softfloat substrate, the functional datapath, the
 * engines' native evaluator, the cycle-accurate pipeline, and BVH
 * construction/traversal. These bound how much verification and
 * experimentation a given compute budget buys (the model-side analogue
 * of chiseltest runtime).
 */
#include <benchmark/benchmark.h>

#include <random>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "core/golden.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex::core;
using namespace rayflex::fp;

static void
BM_SoftFloatAdd(benchmark::State &state)
{
    std::mt19937_64 rng(1);
    F32 a = uint32_t(rng()), b = uint32_t(rng());
    for (auto _ : state) {
        a = addF32(a & 0x7FFFFFFF, b);
        b += 0x9E3779B9u;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_SoftFloatAdd);

static void
BM_SoftFloatMul(benchmark::State &state)
{
    std::mt19937_64 rng(2);
    F32 a = uint32_t(rng()), b = uint32_t(rng());
    for (auto _ : state) {
        a = mulF32(a & 0x7FFFFFFF, b);
        b += 0x9E3779B9u;
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_SoftFloatMul);

static void
BM_FunctionalRayBox(benchmark::State &state)
{
    WorkloadGen gen(3);
    auto batch = gen.batch(Opcode::RayBox, 256);
    DistanceAccumulators acc;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(functionalEval(batch[i], acc));
        i = (i + 1) % batch.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FunctionalRayBox);

static void
BM_FunctionalRayTriangle(benchmark::State &state)
{
    WorkloadGen gen(4);
    auto batch = gen.batch(Opcode::RayTriangle, 256);
    DistanceAccumulators acc;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(functionalEval(batch[i], acc));
        i = (i + 1) % batch.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_FunctionalRayTriangle);

// The engines' evaluator on the same beats: the golden host-float
// kernels, with the softfloat chain only as the NaN fallback. The gap to
// BM_FunctionalRay* is the per-beat cost of the softfloat substrate.
static void
BM_NativeRayBox(benchmark::State &state)
{
    WorkloadGen gen(3);
    auto batch = gen.batch(Opcode::RayBox, 256);
    DistanceAccumulators acc;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(nativeEval(batch[i], acc));
        i = (i + 1) % batch.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_NativeRayBox);

static void
BM_NativeRayTriangle(benchmark::State &state)
{
    WorkloadGen gen(4);
    auto batch = gen.batch(Opcode::RayTriangle, 256);
    DistanceAccumulators acc;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(nativeEval(batch[i], acc));
        i = (i + 1) % batch.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_NativeRayTriangle);

static void
BM_GoldenRayBox(benchmark::State &state)
{
    WorkloadGen gen(5);
    auto batch = gen.batch(Opcode::RayBox, 256);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            golden::rayBox4(batch[i].ray, batch[i].boxes));
        i = (i + 1) % batch.size();
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_GoldenRayBox);

static void
BM_PipelinedSimulation(benchmark::State &state)
{
    // Simulated beats per wall-clock second through the full
    // cycle-accurate elastic pipeline.
    WorkloadGen gen(6);
    auto batch = gen.batch(Opcode::RayBox, 512);
    for (auto _ : state) {
        RayFlexDatapath dp(kExtendedUnified);
        benchmark::DoNotOptimize(runBatch(dp, batch));
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(batch.size()));
}
BENCHMARK(BM_PipelinedSimulation)->Unit(benchmark::kMillisecond);

static void
BM_BvhBuild(benchmark::State &state)
{
    auto tris =
        rayflex::bvh::makeSoup(size_t(state.range(0)), 20.0f, 0.6f, 7);
    for (auto _ : state) {
        auto bvh = rayflex::bvh::buildBvh4(tris);
        benchmark::DoNotOptimize(bvh.nodes.size());
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            state.range(0));
}
BENCHMARK(BM_BvhBuild)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMillisecond);

static void
BM_Traversal(benchmark::State &state)
{
    auto bvh = rayflex::bvh::buildBvh4(
        rayflex::bvh::makeSphere({0, 0, 0}, 3.0f, 24, 32));
    rayflex::bvh::Traverser trav(bvh);
    std::mt19937_64 rng(8);
    std::uniform_real_distribution<float> p(-6.0f, 6.0f);
    for (auto _ : state) {
        auto ray = makeRay(p(rng), p(rng), 8.0f, 0.1f * p(rng),
                           0.1f * p(rng), -1.0f, 0.0f, 100.0f);
        benchmark::DoNotOptimize(trav.closestHit(ray));
    }
    state.SetItemsProcessed(int64_t(state.iterations()));
}
BENCHMARK(BM_Traversal);

namespace
{

/** The bench_throughput traversal workload, batch form: the BM_Traversal
 *  scene and ray distribution, materialized so the sharded engine can
 *  replay it at any worker count. */
std::vector<Ray>
throughputRays(size_t n)
{
    std::mt19937_64 rng(8);
    std::uniform_real_distribution<float> p(-6.0f, 6.0f);
    std::vector<Ray> rays;
    rays.reserve(n);
    for (size_t i = 0; i < n; ++i)
        rays.push_back(makeRay(p(rng), p(rng), 8.0f, 0.1f * p(rng),
                               0.1f * p(rng), -1.0f, 0.0f, 100.0f));
    return rays;
}

} // namespace

static void
BM_EngineTraversal(benchmark::State &state)
{
    // The sharded engine on the BM_Traversal workload; Arg = worker
    // threads. Per-ray hits are bit-identical at every Arg, so the
    // rays/s column measures pure host-side scaling.
    auto bvh = rayflex::bvh::buildBvh4(
        rayflex::bvh::makeSphere({0, 0, 0}, 3.0f, 24, 32));
    auto rays = throughputRays(4096);
    rayflex::sim::EngineConfig cfg;
    cfg.threads = unsigned(state.range(0));
    cfg.batch_size = 256;
    cfg.model = rayflex::sim::ExecutionModel::Functional;
    for (auto _ : state) {
        auto rep = rayflex::sim::Engine(cfg).run(bvh, rays);
        benchmark::DoNotOptimize(rep.traversal.box_ops);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(rays.size()));
    state.counters["rays/s"] = benchmark::Counter(
        double(state.iterations()) * double(rays.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineTraversal)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

static void
BM_PipelinedSimulationSharded(benchmark::State &state)
{
    // The BM_PipelinedSimulation workload replayed batch-at-a-time
    // through per-batch datapath instances - the engine's sharding
    // idiom applied to a raw beat stimulus. The gap to
    // BM_PipelinedSimulation is the per-batch pipeline fill/drain cost.
    WorkloadGen gen(6);
    auto slices = sliceWorkload(gen.batch(Opcode::RayBox, 512), 128);
    for (auto _ : state) {
        size_t total = 0;
        for (const auto &s : slices) {
            RayFlexDatapath dp(kExtendedUnified);
            total += runBatch(dp, s).size();
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * 512);
}
BENCHMARK(BM_PipelinedSimulationSharded)->Unit(benchmark::kMillisecond);
