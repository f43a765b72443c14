/**
 * @file
 * Executor tier: one batch of rays through the simulation machinery.
 *
 * The engine stack is three layers (see ARCHITECTURE.md):
 *
 *   job tier        sim::RenderJob                     (sim/stream.hh)
 *   scheduler tier  sim::BatchScheduler                (sim/stream.hh)
 *   executor tier   sim::BatchExecutor                 (this file)
 *
 * The executor is the narrow seam everything above shares: it knows
 * how to simulate ONE batch — a flat array of ray references — on a
 * freshly constructed chip of lock-stepped units (one unit when chip
 * mode is off), or on the functional traverser, and report the
 * batch's stats plus its simulated-cycle cost. It holds no queues, no
 * threads and no cross-batch state, which is what makes every layer
 * above it free to regroup rays (sharded Engine batches, cross-job
 * packed streaming batches) without touching simulation semantics:
 * hit records depend only on (ray, BVH, traversal mode), and each
 * batch's evolution depends only on its own contents.
 */
#ifndef RAYFLEX_SIM_EXECUTOR_HH
#define RAYFLEX_SIM_EXECUTOR_HH

#include <cstdint>

#include "bvh/rt_unit.hh"

namespace rayflex::sim
{

/** How each batch is evaluated. */
enum class ExecutionModel : uint8_t {
    /** Cycle-accurate: a bvh::RtUnit drives a pipelined datapath, so the
     *  report carries cycle counts, utilization and memory stalls. */
    CycleAccurate,
    /** Functional: a bvh::Traverser invokes the datapath arithmetic
     *  directly (same intersection decisions, no timing). Orders of
     *  magnitude faster; the model for image rendering and validation
     *  sweeps. */
    Functional,
};

/** What backs the chip's per-unit L1s in chip mode. */
enum class L2Mode : uint8_t {
    /** No second tier: every unit's L1 terminates at its own latency
     *  (the pre-chip memory path, bit-for-bit at units == 1). */
    Off,
    /** One bvh::SharedL2 serves every unit in the batch: units contend
     *  for banks and merge cross-unit fills — the chip the tentpole
     *  models. */
    Shared,
    /** One private SharedL2 per unit (no contention, no cross-unit
     *  merges): the iso-capacity baseline BM_UnitScalingSweep compares
     *  sharing against. Callers wanting equal total capacity derive
     *  the per-unit geometry with bvh::L2Config::dividedAcross(units),
     *  which rejects a sets count that does not divide evenly. */
    Private,
};

/** Most units a chip batch may step in lock-step. */
inline constexpr unsigned kMaxChipUnits = 16;

/** Multi-unit chip mode (CycleAccurate model). Each batch is run by
 *  `units` RT units stepping in deterministic lock-step under one
 *  pipeline::Simulator: ray i of the batch goes to unit i % units.
 *  The chip is freshly constructed per batch, so sharing is confined
 *  within a batch and the engine's bit-identical-at-every-worker-count
 *  contract holds for hits, timing and every L2 counter. */
struct ChipConfig
{
    /** RT units per chip, clamped to 1..kMaxChipUnits. */
    unsigned units = 1;

    /** Second memory tier behind the per-unit L1s. Only the NodeCache
     *  L1 backend routes misses to it; FixedLatency ignores the tier
     *  (its flat latency already stands in for the whole system). */
    L2Mode l2 = L2Mode::Off;

    /** Geometry and timing of the L2 tier (Shared and Private). */
    bvh::L2Config l2cfg;

    /** True when this config changes anything over the single-unit
     *  engine path (the defaults leave chip mode off). */
    bool
    active() const
    {
        return units > 1 || l2 != L2Mode::Off;
    }

    friend bool operator==(const ChipConfig &, const ChipConfig &) = default;
};

/** One ray of a batch, by reference: where to read the ray, where to
 *  write its hit record, and which job (submission stream) it belongs
 *  to. The gather/scatter indirection is what lets the scheduler tier
 *  compose a batch from non-contiguous rays of several jobs while the
 *  executor stays a flat loop. `job` feeds bvh::PendingRay tagging
 *  (cross-job fetch-share accounting) and never affects results. */
struct BatchRayRef
{
    const core::Ray *ray = nullptr;
    bvh::HitRecord *out = nullptr;
    uint32_t job = 0;
};

/** One k-NN query of a batch, by reference: where to read the query
 *  and where to write its neighbor list. The k-NN analogue of
 *  BatchRayRef. */
struct KnnBatchRef
{
    const bvh::KnnQuery *query = nullptr;
    bvh::KnnResult *out = nullptr;
};

/** What one executed batch reports back. */
struct BatchResult
{
    /** Unit counters (CycleAccurate; zero under Functional). For k-NN
     *  batches the traversal counters ride in `unit.knn`. */
    bvh::RtUnitStats unit;
    /** Traversal counters (Functional; zero under CycleAccurate). */
    bvh::TraversalStats traversal;
    /** k-NN traversal counters (Functional k-NN batches; zero
     *  elsewhere — CycleAccurate k-NN counters live in unit.knn). */
    bvh::KnnStats knn;
    /** Simulated cycles this batch occupied the executor: lock-step
     *  ticks of its units under CycleAccurate, and the idealized
     *  one-op-per-cycle datapath ops (box + triangle) under the
     *  Functional model. The scheduler tier's simulated timeline
     *  charges each batch exactly this. */
    uint64_t sim_cycles = 0;
    /** Lock-step ticks the host evaluated for this batch
     *  (CycleAccurate): sim_cycles minus the dead cycles jumped over
     *  (pipeline::Simulator::step), traced or not. A host-side count,
     *  not a modeled one. */
    uint64_t evaluated_cycles = 0;

    /** Cycle-stamped events of this batch (ExecutorConfig::trace, on
     *  the batch-local clock starting at 0); empty with tracing off or
     *  under the Functional model. A chip batch's units share one sink
     *  and tick lock-step on one thread, so the order is deterministic
     *  and the engine's bit-identity contract extends to the trace. */
    std::vector<obs::TraceRecord> trace;
};

/** Append batch `index`'s trace to a caller's timeline at tick
 *  `start`: BatchStart(index, rays) at `start`, the batch's records
 *  rebased by `start`, then BatchEnd(index, rays) at
 *  start + sim_cycles. Engine::run and StreamingService::run assemble
 *  their traces this way; only the start tick they pass differs. */
void spliceBatchTrace(std::vector<obs::TraceRecord> &trace,
                      const BatchResult &batch, uint64_t index,
                      uint64_t rays, uint64_t start);

/** Executor configuration: everything the simulation of one batch
 *  depends on. sim::EngineConfig extends it with the sharding knobs. */
struct ExecutorConfig
{
    ExecutionModel model = ExecutionModel::CycleAccurate;

    /** Per-batch RT-unit parameters (CycleAccurate), including the
     *  memory backend: every unit owns a private model instance that
     *  starts each batch cold, so the cached backend keeps the
     *  determinism contract. issue_width, mshrs and packet default to
     *  the single-issue, unbounded, compaction-off schedule bit-for-bit
     *  and never change hit records. The traversal mode is
     *  executeBatch()'s any_hit. */
    bvh::RtUnitConfig rt;

    /** Per-batch datapath configuration (CycleAccurate). */
    core::DatapathConfig dp = core::kBaselineUnified;

    /** Multi-unit chip mode (CycleAccurate); inactive by default, which
     *  is the one-unit, L2-off case of the same loop. Hit records are
     *  bit-identical in every chip configuration (memory timing never
     *  changes intersection results). Ignored by the Functional model,
     *  which has no memory system to share. */
    ChipConfig chip;

    /** Simulation-cycle budget per batch before the run is declared
     *  hung (CycleAccurate model). */
    uint64_t max_cycles_per_batch = 100000000ull;

    /** Collect deterministic event traces (obs/trace.hh) into
     *  BatchResult::trace. CycleAccurate only; off (the default) costs
     *  nothing, and every counter, hit and cycle is bit-identical either
     *  way (the sink never changes the schedule). Events from a
     *  Private-L2 chip's banks are not collected (their per-unit bank
     *  ids would alias on one track); the Shared L2 is. */
    bool trace = false;

    friend bool operator==(const ExecutorConfig &,
                           const ExecutorConfig &) = default;
};

/**
 * The executor: simulates one batch at a time, statelessly. Safe to
 * share across worker threads — executeBatch() touches nothing but its
 * arguments and freshly constructed locals, so any number of workers
 * may execute distinct batches of one executor concurrently.
 */
class BatchExecutor
{
  public:
    BatchExecutor(const bvh::Bvh4 &bvh, const ExecutorConfig &cfg);

    /** k-NN executor: batches are k-NN queries against `index`
     *  (executeKnnBatch) instead of rays. The ray path stays available
     *  over index.bvh, though a k-NN executor is normally used for one
     *  kind of batch only. The index must outlive the executor. */
    BatchExecutor(const bvh::KnnIndex &index, const ExecutorConfig &cfg);

    /**
     * Simulate `n` rays as one batch. Hit records are scattered
     * through the refs' `out` pointers; any-hit batches fill only the
     * `hit` flag (the usual reduced-record contract).
     * @throws std::runtime_error when the batch exceeds
     *         max_cycles_per_batch (CycleAccurate model).
     */
    BatchResult executeBatch(const BatchRayRef *refs, size_t n,
                             bool any_hit) const;

    /**
     * Simulate `n` k-NN queries as one batch (k-NN executors only).
     * Results scatter through the refs' `out` pointers. Queries
     * round-robin over the units exactly as rays do.
     * @throws std::logic_error when this executor was not constructed
     *         over a KnnIndex.
     * @throws std::runtime_error when the batch exceeds
     *         max_cycles_per_batch (CycleAccurate model).
     */
    BatchResult executeKnnBatch(const KnnBatchRef *refs,
                                size_t n) const;

    const ExecutorConfig &config() const { return cfg_; }

  private:
    friend struct EveryCycleWalk; ///< sets every_cycle_ (tests only)

    /** The one cycle-accurate batch loop, generic over the query
     *  family (ray or k-NN; see executor.cc). */
    template <typename Family>
    BatchResult runUnits(const Family &family,
                         const typename Family::Ref *refs,
                         size_t n) const;

    const bvh::Bvh4 &bvh_;
    const bvh::KnnIndex *knn_index_ = nullptr;
    ExecutorConfig cfg_;
    /** The tests' reference walk: tick every cycle, never park. */
    bool every_cycle_ = false;
};

} // namespace rayflex::sim

#endif // RAYFLEX_SIM_EXECUTOR_HH
