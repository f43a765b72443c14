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
 * results. Each batch's statistics land in the batch's own result
 * slot and are merged after the join, in batch order (the merge is
 * commutative and associative, so the order is only for clarity).
 *
 * Each shard() call spawns its own helper threads and joins them
 * before it returns; worker 0 runs on the calling thread, so a
 * single-worker run spawns nothing. The streaming service
 * (sim/stream.hh) runs its planned batches through the same loop.
 */
#include "sim/engine.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

namespace rayflex::sim
{

Engine::Engine(const EngineConfig &cfg) : cfg_(cfg)
{
    bvh::validate(cfg_.rt);
    if (cfg_.model == ExecutionModel::CycleAccurate)
        bvh::validate(cfg_.dp);
    resolved_threads_ = cfg.threads;
    if (resolved_threads_ == 0) {
        resolved_threads_ = std::thread::hardware_concurrency();
        if (resolved_threads_ == 0)
            resolved_threads_ = 1;
    }
}

/**
 * The one batch loop: up to resolved_threads_ workers claim batch
 * indices off one atomic counter and run execute(bi) on each; every
 * result lands in its batch-index slot (disjoint writes, no
 * synchronization), so callers merge and lay out timelines in batch
 * order no matter which worker ran which batch. Fills threads_used and
 * elapsed_seconds; rethrows the first worker exception after the join.
 */
std::vector<BatchResult>
Engine::shard(size_t batches,
              const std::function<BatchResult(size_t)> &execute,
              unsigned &threads_used, double &elapsed_seconds) const
{
    std::vector<BatchResult> results(batches);
    const unsigned threads =
        unsigned(std::min<size_t>(resolved_threads_, batches));
    threads_used = threads;
    if (batches == 0)
        return results;

    std::atomic<size_t> next_batch{0};
    std::vector<std::exception_ptr> errors(threads);
    auto worker = [&](unsigned wid) {
        try {
            for (size_t bi = next_batch.fetch_add(1); bi < batches;
                 bi = next_batch.fetch_add(1))
                results[bi] = execute(bi);
        } catch (...) {
            errors[wid] = std::current_exception();
        }
    };

    const auto t0 = std::chrono::steady_clock::now();
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(threads - 1);
        for (unsigned wid = 1; wid < threads; ++wid)
            helpers.emplace_back(worker, wid);
        worker(0);
    } // helpers join here
    const auto t1 = std::chrono::steady_clock::now();
    elapsed_seconds = std::chrono::duration<double>(t1 - t0).count();

    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return results;
}

EngineReport
Engine::run(const bvh::Bvh4 &bvh, const std::vector<core::Ray> &rays,
            bool any_hit) const
{
    const BatchExecutor exec(bvh, executorConfig());
    EngineReport report;
    report.hits.resize(rays.size());
    const std::vector<core::BatchRange> batches =
        core::sliceBatches(rays.size(), cfg_.batch_size);
    report.batches = batches.size();

    std::vector<BatchResult> results = shard(
        batches.size(),
        [&](size_t bi) {
            // Gather the contiguous range into executor refs: the
            // executor then sees the same rays with the same local ids
            // in the same order as a direct single-unit run.
            const core::BatchRange &r = batches[bi];
            std::vector<BatchRayRef> refs(r.size());
            for (size_t i = r.begin; i < r.end; ++i)
                refs[i - r.begin] = {&rays[i], &report.hits[i], 0};
            return exec.executeBatch(refs.data(), refs.size(), any_hit);
        },
        report.threads_used, report.elapsed_seconds);

    // Merge in batch order (sums and maxima commute, so any order
    // would give the same counters). With tracing, the batches' traces
    // are concatenated onto one sequential simulated timeline (batch k
    // starts where batch k-1 ended), each bracketed by
    // BatchStart/BatchEnd; the decomposition into batches and each
    // batch's evolution are both worker-independent, so the assembled
    // trace is bit-identical at every worker count.
    const bool tracing =
        cfg_.trace && cfg_.model == ExecutionModel::CycleAccurate;
    uint64_t offset = 0;
    for (size_t bi = 0; bi < results.size(); ++bi) {
        const BatchResult &br = results[bi];
        report.unit.merge(br.unit);
        report.traversal.merge(br.traversal);
        if (!tracing)
            continue;
        spliceBatchTrace(report.trace, br, bi, batches[bi].size(), offset);
        offset += br.sim_cycles;
    }
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
    const std::vector<core::BatchRange> batches =
        core::sliceBatches(queries.size(), cfg_.batch_size);
    report.batches = batches.size();

    bvh::KnnStats functional;
    for (const BatchResult &br : shard(
             batches.size(),
             [&](size_t bi) {
                 const core::BatchRange &r = batches[bi];
                 std::vector<KnnBatchRef> refs(r.size());
                 for (size_t i = r.begin; i < r.end; ++i)
                     refs[i - r.begin] = {&queries[i],
                                          &report.results[i]};
                 return exec.executeKnnBatch(refs.data(), refs.size());
             },
             report.threads_used, report.elapsed_seconds)) {
        report.unit.merge(br.unit);
        functional.merge(br.knn);
    }
    // One traversal-counter field whatever the model: the cycle
    // model's counters live inside the unit stats.
    report.knn = cfg_.model == ExecutionModel::CycleAccurate
                     ? report.unit.knn
                     : functional;
    return report;
}

} // namespace rayflex::sim
