/**
 * @file
 * knn_search: exact k-NN queries through sim::Engine::runKnn on one
 * cycle-accurate unit with the extended datapath.
 *
 * Why this workload: it is the paper's extension case study. Multi-beat
 * distance ops fill the issue lanes, so its host time is the per-cycle
 * cost of the lanes; pruning is nearly nil at 16 dimensions; and box or
 * triangle beats, packets, the L2 and the stream scheduler are absent,
 * so a change to any of those must leave it unchanged.
 */
#include "bench.hh"
#include "bvh/knn.hh"
#include "bvh/scene.hh"
#include "core/golden.hh"

namespace perfbench
{

namespace
{

using namespace rayflex;

constexpr size_t kPoints = 1000;
constexpr unsigned kDims = 16;
constexpr uint32_t kK = 8;
constexpr size_t kQueries = 256;
/** One query in this many is cosine; the rest are Euclidean. */
constexpr size_t kCosineEvery = 8;
/** Queries per engine batch: twice the unit's 32 query slots. */
constexpr size_t kBatch = 64;

class KnnSearch final : public Workload
{
  public:
    SetupTimes
    setup(uint64_t seed, unsigned threads) override
    {
        SetupTimes t;
        const double t0 = cpuSeconds();
        std::vector<bvh::DataPoint> cloud =
            bvh::makePointCloud(kPoints, kDims, 8, 42);
        // Queries come from a second mixture, as in BM_KnnScalingSweep:
        // far from the data, so the radius prunes almost nothing and
        // every query streams distance beats through the lanes.
        queries_.clear();
        size_t q = 0;
        for (bvh::DataPoint &p :
             bvh::makePointCloud(kQueries, kDims, 32, seed)) {
            bvh::KnnQuery query;
            query.point = std::move(p.coords);
            query.k = kK;
            query.metric = q++ % kCosineEvery == kCosineEvery - 1
                               ? bvh::KnnMetric::Cosine
                               : bvh::KnnMetric::Euclidean;
            queries_.push_back(std::move(query));
        }
        const double t1 = cpuSeconds();
        t.inputs_s = t1 - t0;

        index_ = std::make_unique<bvh::KnnIndex>(
            bvh::buildKnnIndex(std::move(cloud)));
        const double t2 = cpuSeconds();
        t.bvh_build_s = t2 - t1;

        // One unit: NodeCache L1 (4 KiB probe), issue 4, 8 MSHRs.
        ecfg_ = {};
        ecfg_.threads = threads;
        ecfg_.batch_size = kBatch;
        ecfg_.dp = core::kExtendedUnified;
        ecfg_.rt.mem_backend = bvh::MemBackend::NodeCache;
        ecfg_.rt.cache = bvh::kProbeCache4KiB;
        ecfg_.rt.issue_width = 4;
        ecfg_.rt.mshrs = 8;
        engine_ = std::make_unique<sim::Engine>(ecfg_);
        t.engine_s = cpuSeconds() - t2;
        return t;
    }

    double
    reference() override
    {
        std::vector<core::golden::KnnCandidate> cands;
        cands.reserve(index_->points.size());
        for (const bvh::DataPoint &p : index_->points)
            cands.push_back({p.coords.data(), p.id});
        ref_.clear();
        for (const bvh::KnnQuery &q : queries_)
            ref_.push_back({core::golden::knnScan(
                q.point.data(), kDims, cands, q.k,
                q.metric == bvh::KnnMetric::Cosine)});
        return 0.0; // the reference is the golden scan, not a traversal
    }

    RunOutcome
    run() override
    {
        const double t0 = cpuSeconds();
        const sim::KnnReport rep = engine_->runKnn(*index_, queries_);
        RunOutcome o;
        o.host_seconds = cpuSeconds() - t0;
        o.unit = rep.unit;
        o.items = rep.results.size();
        o.wall_cycles = o.unit.cycles;
        o.job_latency = {o.wall_cycles};
        Digest d;
        for (size_t q = 0; q < rep.results.size(); ++q) {
            for (const bvh::KnnNeighbor &n : rep.results[q].neighbors) {
                d.f32(n.score);
                d.u64(n.id);
            }
            d.u64(~uint64_t(0)); // list separator
            o.failed += !(rep.results[q] == ref_[q]);
        }
        o.digest = d.value();
        o.checked = o.items;
        return o;
    }

    RunOutcome
    runTraced(SpanRecorder &spans) override
    {
        RunOutcome o;
        {
            ScopedSpan s(spans, "sim.engine.runKnn");
            o = run();
        }
        // Engine::runKnn's batch loop one level down.
        const sim::BatchExecutor exec(*index_, engine_->executorConfig());
        std::vector<bvh::KnnResult> results(queries_.size());
        std::vector<sim::KnnBatchRef> refs;
        ScopedSpan run(spans, "sim.engine.run");
        for (const core::BatchRange &r :
             core::sliceBatches(queries_.size(), kBatch)) {
            refs.resize(r.size());
            for (size_t i = r.begin; i < r.end; ++i)
                refs[i - r.begin] = {&queries_[i], &results[i]};
            ScopedSpan b(spans, "sim.executor.executeBatch");
            exec.executeKnnBatch(refs.data(), refs.size());
        }
        return o;
    }

    void
    layerMetrics(const RunOutcome &traced, SpanRecorder &spans,
                 Metrics &m) override
    {
        const rayflex::bvh::KnnStats &k = traced.unit.knn;
        m.set("bvh.knn.useful_candidate_share",
              k.candidates ? double(kK) * double(k.queries) /
                                 double(k.candidates)
                           : 0.0,
              "ratio");

        const sim::BatchExecutor exec(*index_, engine_->executorConfig());
        std::vector<bvh::KnnResult> results(kBatch);
        std::vector<sim::KnnBatchRef> refs(kBatch);
        for (size_t i = 0; i < kBatch; ++i)
            refs[i] = {&queries_[i], &results[i]};
        {
            ScopedSpan s(spans, "sim.executor.cold_steady");
            const uint64_t half =
                exec.executeKnnBatch(refs.data(), kBatch / 2).sim_cycles;
            const uint64_t full =
                exec.executeKnnBatch(refs.data(), kBatch).sim_cycles;
            setColdSteady(m, kBatch, half, full);
        }

        core::RayFlexDatapath dp(ecfg_.dp);
        bvh::RtUnit unit(*index_, dp, ecfg_.rt);
        for (uint32_t i = 0; i < kBatch; ++i)
            unit.submitKnn(queries_[i], i);
        timeUnitRun(spans, unit, m);
    }

    const sim::EngineConfig &
    engineConfig() const override
    {
        return ecfg_;
    }

  private:
    std::unique_ptr<bvh::KnnIndex> index_;
    std::vector<bvh::KnnQuery> queries_;
    sim::EngineConfig ecfg_;
    std::unique_ptr<sim::Engine> engine_;
    std::vector<bvh::KnnResult> ref_;
};

} // namespace

std::unique_ptr<Workload>
makeKnnSearch()
{
    return std::make_unique<KnnSearch>();
}

} // namespace perfbench
