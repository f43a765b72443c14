/**
 * @file
 * Sharded multi-threaded batch simulation engine.
 *
 * The paper evaluates one RayFlex datapath at a time; serving a real
 * rendering or search workload means simulating many rays against the
 * same scene, and the cycle-accurate model is embarrassingly parallel
 * across rays as long as each worker owns its own pipeline state. The
 * engine is the batch-synchronous front of the three-tier stack (job /
 * scheduler / executor — see sim/executor.hh and sim/stream.hh): it
 * shards a ray workload into fixed batches (core::sliceBatches), has
 * each worker thread gather its claimed batch into executor ray refs
 * and run them through one shared sim::BatchExecutor (which constructs
 * a fresh bvh::RtUnit + core::RayFlexDatapath — or, in the functional
 * model, a bvh::Traverser — per batch against the shared immutable
 * Scene/BVH), and merges the per-batch statistics into an aggregate
 * report.
 *
 * Determinism contract: per-ray hit records and the merged statistics
 * are bit-identical for every thread count. Three properties make this
 * hold, and the engine is structured around them:
 *   1. the batch decomposition depends only on (ray count, batch_size),
 *      never on the worker count;
 *   2. each batch is simulated by a freshly constructed unit whose
 *      evolution depends only on the batch contents and the shared BVH;
 *   3. batch statistics are merged with commutative-associative sums
 *      (RtUnitStats::merge / TraversalStats::merge), so the claim order
 *      of batches by workers cannot change the aggregate.
 */
#ifndef RAYFLEX_SIM_ENGINE_HH
#define RAYFLEX_SIM_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/workloads.hh"
#include "sim/executor.hh"

namespace rayflex::sim
{

/** Engine configuration: the executor's per-batch knobs (model, rt,
 *  dp, chip, max_cycles_per_batch, trace) plus how the engine shards
 *  a workload over them. With `trace` on, run() rebases each batch's
 *  events onto the engine's sequential simulated timeline (batch k
 *  starts where batch k-1 ended) in EngineReport::trace, bracketed by
 *  BatchStart/BatchEnd; runKnn() reports no trace. */
struct EngineConfig : ExecutorConfig
{
    /** Worker threads; 0 picks std::thread::hardware_concurrency(). */
    unsigned threads = 0;

    /** Rays per batch. The batch layout - not the thread count - is the
     *  unit of work distribution, so changing `threads` never changes
     *  any result. 0 means one batch for the whole workload. */
    size_t batch_size = 1024;

    friend bool operator==(const EngineConfig &,
                           const EngineConfig &) = default;
};

/** Aggregate result of an engine run. */
struct EngineReport
{
    /** Hit records in ray order (parallel to the input).
     *
     *  Closest-hit runs fill every field. Any-hit runs
     *  (Engine::run's any_hit) fill ONLY the `hit` flag: t,
     *  triangle_id and u/v/w stay value-initialized at zero, in both
     *  execution models. The records therefore stay operator==- and
     *  bit-comparable across models, but consumers of an any-hit run
     *  must read nothing beyond the flag. */
    std::vector<bvh::HitRecord> hits;

    /** Merged RT-unit counters (CycleAccurate model). `cycles` is the
     *  sum of simulated cycles across batches - the sequential-machine
     *  cycle count - not wall-clock. `unit.mem` carries the merged
     *  node-cache counters (hits/misses/evictions summed across
     *  batches; all-zero under the flat-latency backend), `unit.mshr`
     *  the merged MSHR-file counters (all-zero when rt.mshrs == 0)
     *  and `unit.packet` the wavefront counters, including
     *  compactions (all-zero at packet width 1). Chip mode adds
     *  `unit.chip_cycles` (lock-step chip ticks summed over batches)
     *  and `unit.l2_banks` (per-bank L2 counters, merged bank-by-bank
     *  across batches); both stay zero/empty when chip is inactive. */
    bvh::RtUnitStats unit;

    /** Merged traversal counters (Functional model). */
    bvh::TraversalStats traversal;

    size_t batches = 0;
    unsigned threads_used = 0;

    /** Cycle-stamped events on the sequential simulated timeline
     *  (EngineConfig::trace); empty with tracing off. Feed to
     *  obs::writeChromeTrace for Perfetto/chrome://tracing. */
    std::vector<obs::TraceRecord> trace;

    /** Host wall-clock for the sharded run (not part of the determinism
     *  contract). */
    double elapsed_seconds = 0;

    /** Host-side simulation throughput. */
    double
    raysPerSecond() const
    {
        return elapsed_seconds > 0 ? double(hits.size()) / elapsed_seconds
                                   : 0.0;
    }
};

/** Aggregate result of an engine k-NN run (Engine::runKnn). */
struct KnnReport
{
    /** Neighbor lists in query order (parallel to the input), each
     *  sorted ascending by (score, id) — bit-identical across worker
     *  counts, execution models and every memory/issue knob. */
    std::vector<bvh::KnnResult> results;

    /** Merged RT-unit counters (CycleAccurate model); `unit.knn`
     *  carries the cycle model's traversal counters. */
    bvh::RtUnitStats unit;

    /** Merged k-NN traversal counters under EITHER model: the
     *  Functional traverser's own counters, or a copy of unit.knn
     *  under CycleAccurate — so consumers can read one field
     *  regardless of model. */
    bvh::KnnStats knn;

    size_t batches = 0;
    unsigned threads_used = 0;

    /** Host wall-clock (not part of the determinism contract). */
    double elapsed_seconds = 0;
};

/**
 * The batch simulation engine. A run() call carries no simulation
 * state in or out: every batch goes through a sim::BatchExecutor that
 * constructs its simulation units fresh, and each call spawns and
 * joins its own worker threads, so the engine is a plain copyable
 * value holding only its configuration. One engine can serve many
 * scenes and workloads back to back, and concurrent run() calls on it
 * from different threads each get the report of exactly the rays they
 * passed.
 */
class Engine
{
  public:
    /** @throws std::invalid_argument when bvh::validate rejects
     *  cfg.rt (a configuration that could never retire a ray) or, under
     *  the CycleAccurate model, cfg.dp (a box width the RT units cannot
     *  traverse with). */
    explicit Engine(const EngineConfig &cfg = {});

    /** Trace every ray against the BVH and merge the statistics.
     *  With `any_hit`, each ray is an occlusion query: it stops at the
     *  first intersection inside its extent [t_beg, t_end] instead of
     *  resolving the closest one. Both execution models support it:
     *  the Functional model uses Traverser::anyHit, the CycleAccurate
     *  model runs its RT units in bvh::TraversalMode::Any so occlusion
     *  batches can be timed. See EngineReport::hits for the reduced
     *  hit-record contract.
     *  @throws std::runtime_error when a batch exceeds
     *          max_cycles_per_batch (CycleAccurate model). */
    EngineReport run(const bvh::Bvh4 &bvh,
                     const std::vector<core::Ray> &rays,
                     bool any_hit = false) const;

    /**
     * Answer every k-NN query against the index and merge the
     * statistics — the second query kind the engine serves, sharded
     * and merged under exactly the ray contract: batch decomposition
     * independent of the worker count, a fresh unit (or chip) per
     * batch, commutative-associative stats merge, so results AND
     * merged counters are bit-identical at every thread count.
     * `any_hit` does not apply; chip mode round-robins queries over
     * the units.
     * @throws std::invalid_argument under the CycleAccurate model when
     *         EngineConfig::dp is not an extended config (the distance
     *         opcodes are missing otherwise).
     */
    KnnReport runKnn(const bvh::KnnIndex &index,
                     const std::vector<bvh::KnnQuery> &queries) const;

    const EngineConfig &config() const { return cfg_; }

    /** The executor-tier view of this engine's configuration (what a
     *  sim::BatchExecutor over the same knobs runs). */
    ExecutorConfig executorConfig() const { return cfg_; }

  private:
    friend class StreamingService; ///< shares shard() (sim/stream.hh)

    /** The one batch loop behind run(), runKnn() and
     *  StreamingService::run: execute(0) .. execute(batches - 1) on
     *  this call's workers, each result in its batch-index slot (see
     *  engine.cc). */
    std::vector<BatchResult>
    shard(size_t batches,
          const std::function<BatchResult(size_t)> &execute,
          unsigned &threads_used, double &elapsed_seconds) const;

    EngineConfig cfg_;
    unsigned resolved_threads_ = 1; ///< cfg.threads with 0 resolved
};

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_ENGINE_HH
