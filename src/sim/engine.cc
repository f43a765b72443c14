/**
 * @file
 * Batch simulation engine implementation (the batch-synchronous front
 * of the job/scheduler/executor stack).
 *
 * Work distribution is a single atomic batch counter: workers claim the
 * next unclaimed batch index until none remain. Batches are contiguous
 * ray ranges; each worker gathers its claimed range into executor ray
 * refs (ray pointer + hit-record pointer) and hands them to the shared
 * sim::BatchExecutor, which scatters hit records into disjoint slices
 * of the shared output vector — so no synchronization is needed on
 * results. Statistics are accumulated per worker and merged after the
 * join, which is safe because the merge operation is commutative and
 * associative.
 *
 * Workers live in a persistent pool (Engine::Pool): threads are spawned
 * once, then parked on a condition variable between runs. A run hands
 * the pool a job and a worker count; each drafted worker executes
 * job(worker_id) and reports back, and the dispatching thread blocks
 * until all drafted workers have returned. Single-worker runs bypass
 * the pool entirely and execute inline on the calling thread. The
 * streaming service (sim/stream.hh) dispatches onto the same pool
 * through Engine::dispatchWorkers.
 */
#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <stdexcept>
#include <thread>

namespace rayflex::sim
{

/** Persistent worker threads parked between dispatches. */
class Engine::Pool
{
  public:
    explicit Pool(unsigned workers)
    {
        threads_.reserve(workers);
        for (unsigned i = 0; i < workers; ++i)
            threads_.emplace_back([this, i] { loop(i); });
    }

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            stop_ = true;
        }
        cv_work_.notify_all();
        for (std::thread &t : threads_)
            t.join();
    }

    /** Run job(0) .. job(n-1) on n pool workers; blocks until every
     *  drafted worker has returned. The job must not throw (workers
     *  capture exceptions themselves). */
    void
    dispatch(unsigned n, const std::function<void(unsigned)> &job)
    {
        std::unique_lock<std::mutex> lk(m_);
        job_ = &job;
        active_ = n;
        remaining_ = n;
        ++generation_;
        cv_work_.notify_all();
        cv_done_.wait(lk, [this] { return remaining_ == 0; });
        job_ = nullptr;
    }

  private:
    void
    loop(unsigned id)
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            cv_work_.wait(lk, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            if (id >= active_)
                continue; // not drafted for this dispatch
            const std::function<void(unsigned)> *job = job_;
            lk.unlock();
            (*job)(id);
            lk.lock();
            if (--remaining_ == 0)
                cv_done_.notify_one();
        }
    }

    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cv_work_, cv_done_;
    const std::function<void(unsigned)> *job_ = nullptr;
    unsigned active_ = 0;    ///< workers drafted this generation
    unsigned remaining_ = 0; ///< drafted workers still running
    uint64_t generation_ = 0;
    bool stop_ = false;
};

Engine::Engine(const EngineConfig &cfg) : cfg_(cfg)
{
    bvh::validate(cfg_.rt);
    resolved_threads_ = cfg.threads;
    if (resolved_threads_ == 0) {
        resolved_threads_ = std::thread::hardware_concurrency();
        if (resolved_threads_ == 0)
            resolved_threads_ = 1;
    }
}

Engine::~Engine() = default;

void
Engine::dispatchWorkers(unsigned n,
                        const std::function<void(unsigned)> &job) const
{
    if (n <= 1) {
        job(0);
        return;
    }
    // Concurrent run() calls from different threads serialize here;
    // results are unaffected (work distribution is the callers' atomic
    // batch counters), only wall-clock overlaps are lost.
    std::lock_guard<std::mutex> lk(pool_mutex_);
    if (!pool_)
        pool_ = std::make_unique<Pool>(resolved_threads_);
    pool_->dispatch(n, job);
}

/**
 * Slice `items` into batches, let up to resolved_threads_ workers claim
 * them off one atomic counter and run execute(range) on each, and merge
 * the per-worker tallies in worker order into the returned result.
 * Fills report.batches, threads_used and elapsed_seconds; rethrows the
 * first worker exception after the join. With `tracing`, the returned
 * trace is the batches' traces concatenated in batch order onto one
 * sequential simulated timeline (batch k starts where batch k-1 ended),
 * each bracketed by BatchStart/BatchEnd.
 */
template <typename Report, typename Execute>
BatchResult
Engine::shard(size_t items, bool tracing, Report &report,
              const Execute &execute) const
{
    BatchResult total;
    const std::vector<core::BatchRange> batches =
        core::sliceBatches(items, cfg_.batch_size);
    report.batches = batches.size();
    if (batches.empty()) {
        report.threads_used = 0;
        return total;
    }

    const unsigned threads =
        unsigned(std::min<size_t>(resolved_threads_, batches.size()));
    report.threads_used = threads;

    std::atomic<size_t> next_batch{0};
    std::vector<BatchResult> tallies(threads);
    std::vector<std::exception_ptr> errors(threads);

    // Tracing keeps per-batch results in batch-index slots (disjoint
    // writes, no synchronization) so the post-join concatenation can
    // rebuild the sequential simulated timeline in batch order no
    // matter which worker ran which batch.
    std::vector<std::vector<obs::TraceRecord>> batch_traces(
        tracing ? batches.size() : 0);
    std::vector<uint64_t> batch_cycles(tracing ? batches.size() : 0);

    auto worker = [&](unsigned wid) {
        try {
            for (size_t bi = next_batch.fetch_add(1);
                 bi < batches.size(); bi = next_batch.fetch_add(1)) {
                BatchResult br = execute(batches[bi]);
                tallies[wid].unit.merge(br.unit);
                tallies[wid].traversal.merge(br.traversal);
                tallies[wid].knn.merge(br.knn);
                if (tracing) {
                    batch_traces[bi] = std::move(br.trace);
                    batch_cycles[bi] = br.sim_cycles;
                }
            }
        } catch (...) {
            errors[wid] = std::current_exception();
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    dispatchWorkers(threads, worker);
    const auto t1 = std::chrono::steady_clock::now();
    report.elapsed_seconds =
        std::chrono::duration<double>(t1 - t0).count();

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);

    // Merge worker tallies in worker-id order. Any order would give the
    // same counters (sums and maxima commute); a fixed order just makes
    // that property obvious.
    for (const BatchResult &t : tallies) {
        total.unit.merge(t.unit);
        total.traversal.merge(t.traversal);
        total.knn.merge(t.knn);
    }

    // The decomposition into batches and each batch's evolution are
    // both worker-independent, so the assembled trace is bit-identical
    // at every worker count.
    uint64_t offset = 0;
    for (size_t bi = 0; bi < batch_traces.size(); ++bi) {
        const uint64_t rays = batches[bi].size();
        total.trace.push_back(
            {offset, 0, obs::TraceEvent::BatchStart, uint64_t(bi), rays});
        for (obs::TraceRecord rec : batch_traces[bi]) {
            rec.cycle += offset;
            total.trace.push_back(rec);
        }
        offset += batch_cycles[bi];
        total.trace.push_back(
            {offset, 0, obs::TraceEvent::BatchEnd, uint64_t(bi), rays});
    }
    return total;
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh,
            const std::vector<core::Ray> &rays) const
{
    return run(bvh, rays, cfg_.any_hit);
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh, const std::vector<core::Ray> &rays,
            bool any_hit) const
{
    const BatchExecutor exec(bvh, executorConfig());
    EngineReport report;
    report.hits.resize(rays.size());
    const bool tracing =
        cfg_.trace && cfg_.model == ExecutionModel::CycleAccurate;

    BatchResult total = shard(
        rays.size(), tracing, report, [&](const core::BatchRange &r) {
            // Gather the contiguous range into executor refs: the
            // executor then sees the same rays with the same local ids
            // in the same order as a direct single-unit run.
            std::vector<BatchRayRef> refs(r.size());
            for (size_t i = r.begin; i < r.end; ++i)
                refs[i - r.begin] = {&rays[i], &report.hits[i], 0};
            return exec.executeBatch(refs.data(), refs.size(), any_hit);
        });
    report.unit = std::move(total.unit);
    report.traversal = total.traversal;
    report.trace = std::move(total.trace);
    return report;
}

KnnReport
Engine::runKnn(const bvh::KnnIndex &index,
               const std::vector<bvh::KnnQuery> &queries) const
{
    if (cfg_.model == ExecutionModel::CycleAccurate &&
        !cfg_.dp.extended)
        throw std::invalid_argument(
            "Engine::runKnn: EngineConfig::dp must be an extended "
            "datapath config (e.g. core::kExtendedUnified)");
    // KnnReport carries no trace (see EngineConfig): drop the flag here
    // rather than collect per-batch events only to discard them.
    ExecutorConfig ec = executorConfig();
    ec.trace = false;
    const BatchExecutor exec(index, ec);
    KnnReport report;
    report.results.resize(queries.size());

    BatchResult total = shard(
        queries.size(), false, report, [&](const core::BatchRange &r) {
            std::vector<KnnBatchRef> refs(r.size());
            for (size_t i = r.begin; i < r.end; ++i)
                refs[i - r.begin] = {&queries[i], &report.results[i]};
            return exec.executeKnnBatch(refs.data(), refs.size());
        });
    report.unit = std::move(total.unit);
    // One traversal-counter field whatever the model: the cycle
    // model's counters live inside the unit stats.
    report.knn = cfg_.model == ExecutionModel::CycleAccurate
                     ? report.unit.knn
                     : total.knn;
    return report;
}

} // namespace rayflex::sim
