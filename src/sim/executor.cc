/**
 * @file
 * Executor-tier implementation: one batch through one fresh chip of
 * lock-stepped units, or through the functional traverser.
 *
 * Every cycle-accurate batch — ray or k-NN, one unit or many — runs
 * through runUnits(). Chip mode off is the 1-unit, L2-off chip, not a
 * second code path. The submission order is the contract: ref k goes
 * to unit k % units with local id k / units (round-robin, so adjacent —
 * typically coherent — rays land on different units and give a shared
 * L2 cross-unit merges to find). With one unit that is ref k with
 * local id k, so callers that gather a contiguous ray range into refs
 * reproduce the pre-refactor engine schedules bit-for-bit.
 */
#include "sim/executor.hh"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "pipeline/component.hh"

namespace rayflex::sim
{

namespace
{

/** The ray query family: what runUnits needs to build ray units, feed
 *  them and read their hit records back. */
struct RayFamily
{
    using Ref = BatchRayRef;

    const bvh::Bvh4 &target;
    bvh::TraversalMode mode;

    std::unique_ptr<bvh::RtUnit>
    unit(core::RayFlexDatapath &dp, const bvh::RtUnitConfig &rt) const
    {
        return std::make_unique<bvh::RtUnit>(target, dp, rt, mode);
    }

    static void
    submit(bvh::RtUnit &u, const Ref &r, uint32_t id)
    {
        u.submit(*r.ray, id, r.job);
    }

    static void
    scatter(const bvh::RtUnit &u, const Ref &r, uint32_t id)
    {
        *r.out = u.results()[id];
    }
};

/** The k-NN query family. */
struct KnnFamily
{
    using Ref = KnnBatchRef;

    const bvh::KnnIndex &target;

    std::unique_ptr<bvh::RtUnit>
    unit(core::RayFlexDatapath &dp, const bvh::RtUnitConfig &rt) const
    {
        return std::make_unique<bvh::RtUnit>(target, dp, rt);
    }

    static void
    submit(bvh::RtUnit &u, const Ref &r, uint32_t id)
    {
        u.submitKnn(*r.query, id);
    }

    static void
    scatter(const bvh::RtUnit &u, const Ref &r, uint32_t id)
    {
        *r.out = u.knnResults()[id];
    }
};

} // namespace

BatchExecutor::BatchExecutor(const bvh::Bvh4 &bvh,
                             const ExecutorConfig &cfg)
    : bvh_(bvh), cfg_(cfg)
{
}

BatchExecutor::BatchExecutor(const bvh::KnnIndex &index,
                             const ExecutorConfig &cfg)
    : bvh_(index.bvh), knn_index_(&index), cfg_(cfg)
{
}

template <typename Family>
BatchResult
BatchExecutor::runUnits(const Family &family,
                        const typename Family::Ref *refs, size_t n) const
{
    const unsigned units =
        cfg_.chip.active() ? std::clamp(cfg_.chip.units, 1u, kMaxChipUnits)
                           : 1u;

    // The units' lanes only read the datapath's configuration.
    core::RayFlexDatapath dp(cfg_.dp);
    std::vector<std::unique_ptr<bvh::RtUnit>> us;
    us.reserve(units);
    for (unsigned u = 0; u < units; ++u) {
        us.push_back(family.unit(dp, cfg_.rt));
        us.back()->park_ = !every_cycle_;
    }

    std::unique_ptr<bvh::SharedL2> shared;
    std::vector<std::unique_ptr<bvh::SharedL2>> priv;
    if (cfg_.chip.l2 == L2Mode::Shared) {
        shared = std::make_unique<bvh::SharedL2>(cfg_.chip.l2cfg);
        for (unsigned u = 0; u < units; ++u)
            us[u]->attachSharedL2(shared.get(), u);
    } else if (cfg_.chip.l2 == L2Mode::Private) {
        priv.reserve(units);
        for (unsigned u = 0; u < units; ++u) {
            priv.push_back(
                std::make_unique<bvh::SharedL2>(cfg_.chip.l2cfg));
            // Every unit sits at ring stop 0 of its own private L2:
            // no interconnect sharing to model.
            us[u]->attachSharedL2(priv[u].get(), 0);
        }
    }

    // One sink per batch: the units tick lock-step on this thread, so
    // emission order is deterministic (see BatchResult::trace).
    obs::VectorTraceSink sink;
    if (cfg_.trace) {
        for (unsigned u = 0; u < units; ++u)
            us[u]->attachTrace(&sink, u);
        if (shared)
            shared->setTraceSink(&sink);
    }

    for (size_t k = 0; k < n; ++k)
        Family::submit(*us[k % units], refs[k], uint32_t(k / units));

    pipeline::Simulator sim;
    for (auto &u : us)
        u->registerWith(sim);
    for (auto &u : us)
        u->beginRun();

    const auto all_done = [&us] {
        for (const auto &u : us)
            if (!u->done())
                return false;
        return true;
    };
    // Each step ticks every unit in lock step, then jumps the clock to
    // the next cycle in which an unfinished unit can change state (the
    // shared L2 keeps no clock: it is evaluated when a fetch reaches
    // it). A step that finds no future event leaves the batch unable
    // to finish, and the watchdog below fires at once instead of at
    // the budget. The reference walk ticks every cycle.
    const uint64_t budget = cfg_.max_cycles_per_batch;
    uint64_t evaluated = 0;
    while (!all_done() && sim.cycle() < budget) {
        ++evaluated;
        if (every_cycle_)
            sim.tick();
        else if (!sim.step(budget))
            break;
    }
    for (unsigned u = 0; u < units; ++u) {
        if (us[u]->done())
            continue;
        const std::string why =
            sim.cycle() < budget
                ? "can never finish (no unit has a future event) at cycle " +
                      std::to_string(sim.cycle()) + " of"
                : "exceeded";
        throw std::runtime_error(
            "BatchExecutor: batch " + why + " max_cycles_per_batch (" +
            std::to_string(budget) + "): unit " + std::to_string(u) + ": " +
            us[u]->stallReport());
    }
    const uint64_t ticks = sim.cycle();

    BatchResult res;
    for (auto &u : us)
        res.unit.merge(u->endRun());
    if (cfg_.chip.active())
        res.unit.chip_cycles = ticks;
    res.sim_cycles = ticks;
    res.evaluated_cycles = evaluated;
    if (shared)
        res.unit.l2_banks = shared->bankStats();
    for (const auto &p : priv) { // private banks merge bank-by-bank
        bvh::RtUnitStats banks;
        banks.l2_banks = p->bankStats();
        res.unit.merge(banks);
    }

    for (size_t k = 0; k < n; ++k)
        Family::scatter(*us[k % units], refs[k], uint32_t(k / units));
    res.trace = sink.take();
    return res;
}

BatchResult
BatchExecutor::executeKnnBatch(const KnnBatchRef *refs, size_t n) const
{
    if (!knn_index_)
        throw std::logic_error(
            "BatchExecutor::executeKnnBatch: executor was not "
            "constructed over a KnnIndex");

    if (cfg_.model == ExecutionModel::CycleAccurate)
        return runUnits(KnnFamily{*knn_index_}, refs, n);

    BatchResult res;
    bvh::KnnTraversal trav(*knn_index_);
    for (size_t k = 0; k < n; ++k)
        *refs[k].out = trav.search(*refs[k].query);
    res.knn = trav.stats();
    // No clock in the Functional model; charge the idealized
    // one-distance-beat-per-cycle datapath occupancy.
    res.sim_cycles = res.knn.distance_beats;
    return res;
}

BatchResult
BatchExecutor::executeBatch(const BatchRayRef *refs, size_t n,
                            bool any_hit) const
{
    if (cfg_.model == ExecutionModel::CycleAccurate)
        return runUnits(RayFamily{bvh_, any_hit
                                            ? bvh::TraversalMode::Any
                                            : bvh::TraversalMode::Closest},
                        refs, n);

    BatchResult res;
    bvh::Traverser trav(bvh_);
    if (any_hit) {
        for (size_t k = 0; k < n; ++k)
            *refs[k].out = bvh::HitRecord{trav.anyHit(*refs[k].ray)};
    } else {
        for (size_t k = 0; k < n; ++k)
            *refs[k].out = trav.closestHit(*refs[k].ray);
    }
    res.traversal = trav.stats();
    // The Functional model has no clock; charge the streaming
    // timeline its idealized datapath occupancy of one intersection op
    // per cycle.
    res.sim_cycles = res.traversal.box_ops + res.traversal.tri_ops;
    return res;
}

void
spliceBatchTrace(std::vector<obs::TraceRecord> &trace,
                 const BatchResult &batch, uint64_t index, uint64_t rays,
                 uint64_t start)
{
    trace.push_back({start, 0, obs::TraceEvent::BatchStart, index, rays});
    for (obs::TraceRecord rec : batch.trace) {
        rec.cycle += start;
        trace.push_back(rec);
    }
    trace.push_back({start + batch.sim_cycles, 0,
                     obs::TraceEvent::BatchEnd, index, rays});
}

} // namespace rayflex::sim
