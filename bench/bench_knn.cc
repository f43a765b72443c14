/**
 * @file
 * k-NN scaling sweep on the cycle-accurate RT unit: cycles/query of
 * the best-first BVH traversal driving the extended datapath's
 * distance beats, across point-cloud size, dimensionality and metric,
 * and across the memory/issue knobs (flat-latency vs cached fetches,
 * single vs quad issue, bounded MSHRs). Every configuration returns
 * bit-identical neighbor lists (tests/test_knn.cc pins them to the
 * golden brute-force scan), so the sweep varies cost only: the
 * cycles_per_query and pruning counters are simulated quantities,
 * bit-deterministic, and checked exactly against
 * bench/baselines/bench_knn.counters.
 */
#include <benchmark/benchmark.h>

#include <map>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::bvh;

namespace
{

/** Index cached per (points, dims) so the timing loop never rebuilds
 *  BVHs; the same generator seeds as tests/test_knn.cc. */
const KnnIndex &
sweepIndex(size_t points, unsigned dims)
{
    static std::map<std::pair<size_t, unsigned>, KnnIndex> cache;
    const std::pair<size_t, unsigned> key{points, dims};
    auto it = cache.find(key);
    if (it == cache.end())
        it = cache
                 .emplace(key, buildKnnIndex(makePointCloud(
                                   points, dims, 8, 42)))
                 .first;
    return it->second;
}

std::vector<KnnQuery>
sweepQueries(size_t n, unsigned dims, uint32_t k, KnnMetric metric)
{
    std::vector<KnnQuery> qs;
    qs.reserve(n);
    for (DataPoint &p : makePointCloud(n, dims, 8, 43))
        qs.push_back({std::move(p.coords), k, metric});
    return qs;
}

} // namespace

static void
BM_KnnScalingSweep(benchmark::State &state)
{
    // The k-NN headline sweep. Euclidean rows prune (the 3-D proxy
    // bound shrinks the candidate set as the radius tightens), cosine
    // rows scan every leaf — the candidates_per_query counter reports
    // the difference. The cached rows replace the flat fetch latency
    // with the 4 KiB probe L1 over the proxy BVH's node/leaf stream,
    // and quad issue feeds up to four distance beats per cycle, which
    // is where the high-dimensional rows (3 beats/candidate at
    // dims 48) recover their beat backlog.
    const size_t points = size_t(state.range(0));
    const unsigned dims = unsigned(state.range(1));
    const bool cosine = state.range(2) != 0;
    const bool cached = state.range(3) != 0;
    const unsigned issue = unsigned(state.range(4));

    const KnnIndex &index = sweepIndex(points, dims);
    const KnnMetric metric =
        cosine ? KnnMetric::Cosine : KnnMetric::Euclidean;
    const std::vector<KnnQuery> queries =
        sweepQueries(64, dims, 8, metric);

    sim::EngineConfig cfg;
    cfg.model = sim::ExecutionModel::CycleAccurate;
    cfg.dp = core::kExtendedUnified;
    cfg.threads = 1;
    cfg.batch_size = 0; // one batch: one unit serves the whole sweep
    cfg.rt.mem_backend =
        cached ? MemBackend::NodeCache : MemBackend::FixedLatency;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.rt.issue_width = issue;
    cfg.rt.mshrs = 8;

    sim::KnnReport rep;
    for (auto _ : state) {
        rep = sim::Engine(cfg).runKnn(index, queries);
        benchmark::DoNotOptimize(rep.unit.cycles);
    }

    const double n = double(queries.size());
    state.counters["cycles_per_query"] =
        double(rep.unit.cycles) / n;
    state.counters["queries_per_kcycle"] =
        1000.0 * n / double(rep.unit.cycles);
    state.counters["candidates_per_query"] =
        double(rep.knn.candidates) / n;
    state.counters["beats_per_query"] =
        double(rep.knn.distance_beats) / n;
    state.counters["pruned_per_query"] = double(rep.knn.pruned) / n;
    state.counters["beats_per_cycle"] =
        double(rep.unit.datapath_beats) / double(rep.unit.cycles);
    if (cached)
        state.counters["cache_hit_rate"] = rep.unit.mem.hitRate();
    state.SetItemsProcessed(int64_t(state.iterations()) *
                            int64_t(queries.size()));
}
BENCHMARK(BM_KnnScalingSweep)
    ->ArgNames({"points", "dims", "cosine", "cached", "issue"})
    // Point-count scaling, Euclidean, flat memory, single issue.
    ->Args({500, 16, 0, 0, 1})
    ->Args({2000, 16, 0, 0, 1})
    ->Args({8000, 16, 0, 0, 1})
    // Dimensionality scaling (1 -> 3 beats/candidate).
    ->Args({2000, 8, 0, 0, 1})
    ->Args({2000, 48, 0, 0, 1})
    // Metric: the unpruned cosine scan against the Euclidean walk.
    ->Args({2000, 16, 1, 0, 1})
    // Memory/issue knobs on the largest Euclidean row.
    ->Args({8000, 16, 0, 1, 1})
    ->Args({8000, 16, 0, 1, 4})
    ->Args({8000, 48, 0, 1, 4})
    ->Unit(benchmark::kMillisecond);
