/**
 * @file
 * A cycle-level RT-unit wrapper around the RayFlex pipeline.
 *
 * The paper models only the intersection-test datapath (the highlighted
 * box of Fig. 2) and defers warp management and memory scheduling to the
 * enclosing RT unit (as modelled by Vulkan-Sim). This module provides a
 * simplified version of that enclosing unit so the pipelined datapath
 * can be exercised under realistic traversal traffic: a ray buffer holds
 * in-flight rays with their traversal stacks, a pluggable MemoryModel
 * (bvh/mem_model.hh) — the unit's SHARED L1, serving every slot, and
 * optionally fronted by a bounded MSHR file (RtUnitConfig::mshrs)
 * that merges duplicate in-flight fetches and back-pressures slots
 * when full — supplies BVH data, and a scheduler feeds ready rays
 * into a datapath of RtUnitConfig::issue_width replicated lanes, up
 * to one beat per lane per cycle. That is one core (lanes, MSHR file,
 * memory queue, slot lists, slot attribution, dead-cycle skipping)
 * whose cycle loop is a template over one of two schedulers, both
 * defined in rt_unit.cc: the packet/wavefront scheduler
 * (RtUnitConfig::packet, bvh/packet.hh) groups coherent rays into
 * packets that share a traversal stack and one BVH fetch per visited
 * node, optionally repacking divergence-thinned packets
 * (PacketConfig::compact_below) — a packet of width 1 is the scalar
 * one-ray-per-slot schedule — and the k-NN scheduler runs one KnnWalk
 * (bvh/knn.hh) per query. This is the model used to measure datapath
 * utilization, memory sensitivity and rays/cycle on real scenes.
 */
#ifndef RAYFLEX_BVH_RT_UNIT_HH
#define RAYFLEX_BVH_RT_UNIT_HH

#include <array>
#include <bit>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/mem_model.hh"
#include "bvh/packet.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "obs/slot_accounting.hh"
#include "obs/trace.hh"
#include "pipeline/component.hh"

namespace rayflex::sim
{
class BatchExecutor;
}

namespace rayflex::bvh
{

/** Widest datapath the unit can drive (issue lanes per cycle). */
inline constexpr unsigned kMaxIssueWidth = 8;

/** RT-unit configuration. */
struct RtUnitConfig
{
    unsigned ray_buffer_entries = 32; ///< rays concurrently in flight
    /** Node fetch latency, cycles (MemBackend::FixedLatency). */
    unsigned mem_latency = 20;

    /** Datapath issue lanes, 1..kMaxIssueWidth. The unit issues up to
     *  this many beats per cycle, one per lane. Each lane is a delay
     *  line owned by the unit: a beat is evaluated when the lane
     *  accepts it and its result drains core::kPipelineLatency cycles
     *  later, the timing of the skid-buffer pipeline. issue_width == 1
     *  (the default) is the single-beat schedule of every packet
     *  width. */
    unsigned issue_width = 1;

    /** Bounded MSHR file fronting the unit's shared L1 (bvh::MshrFile).
     *  0 (the default) disables the file — the legacy unbounded path,
     *  bit-for-bit. When > 0, duplicate in-flight fetches of the same
     *  node/leaf merge onto one outstanding entry (one miss serves
     *  them all) and a full file back-pressures NeedFetch slots until
     *  an entry retires. */
    unsigned mshrs = 0;

    /** Which memory model serves BVH fetches. The default reproduces
     *  the original flat-latency timing bit-for-bit. */
    MemBackend mem_backend = MemBackend::FixedLatency;
    /** Cache geometry and timing (MemBackend::NodeCache). */
    NodeCacheConfig cache;

    /** Packet/wavefront traversal (bvh/packet.hh), the one ray
     *  scheduler. width == 1 (the default) is the scalar
     *  one-ray-per-slot schedule; wider packets share one node fetch
     *  across the member rays. Hit records are bit-identical either
     *  way. */
    PacketConfig packet;

    friend bool operator==(const RtUnitConfig &,
                           const RtUnitConfig &) = default;
};

/** Reject a configuration under which no ray can ever retire:
 *  ray_buffer_entries == 0 (no slot to hold one). Every other
 *  out-of-range knob is clamped (see ARCHITECTURE.md).
 *  @throws std::invalid_argument naming the offending knob. */
void validate(const RtUnitConfig &cfg);

/** Reject a datapath whose box width is not core::kBoxesPerOp, the
 *  arity of the BVH the unit traverses: a narrower op would never test
 *  the last children, and a wider one would test boxes no node has.
 *  @throws std::invalid_argument naming box_width. */
void validate(const core::DatapathConfig &dp);

/** Per-run statistics. */
struct RtUnitStats
{
    uint64_t cycles = 0;
    uint64_t rays_completed = 0;
    uint64_t datapath_beats = 0;   ///< beats issued into the pipeline
    /** datapath_beats broken down by opcode (the index is
     *  core::Opcode). This is the dynamic-power stimulus for
     *  synth::ChipCostModel: each issued beat energizes exactly the
     *  functional units and route legs its opcode uses, so
     *  sum(beats_by_op) == datapath_beats == slots[Issued] on every
     *  run and across merge(). */
    std::array<uint64_t, core::kNumOpcodes> beats_by_op{};
    uint64_t mem_requests = 0;     ///< fetches that reached the L1

    /** Node-cache counters; all-zero under MemBackend::FixedLatency.
     *  Merges with the same commutative sums as the rest of the
     *  struct, so sharded aggregation stays order-independent. */
    CacheStats mem;

    /** Packet-traversal counters; all-zero at packet.width == 1 (the
     *  scalar schedule). Same commutative-sum merge contract. */
    PacketStats packet;

    /** MSHR-file counters; all-zero when the file is disabled
     *  (mshrs == 0). Same commutative-sum merge contract. */
    MshrStats mshr;

    /** k-NN traversal counters; all-zero for ray workloads. Sums plus
     *  a max-merged frontier high-water mark — still commutative and
     *  associative, so the sharded-aggregation contract holds. */
    KnnStats knn;

    /** Top-down issue-slot attribution (obs/slot_accounting.hh): every
     *  slot of every cycle lands in exactly one bucket, so
     *  slots.total() == cycles * issue_width for a single run and the
     *  identity survives merge() (both sides are sums). The Issued
     *  bucket equals datapath_beats; the idle slots are
     *  slots.total() - slots[Issued], and the slots lost waiting on
     *  memory are slots.memoryStallSlots(). */
    obs::SlotAccounting slots;

    /** Chip wall-clock cycles (sim::Engine chip mode): lock-step ticks
     *  of the whole chip, summed across batches. Unlike `cycles` (which
     *  every unit accumulates until its OWN rays complete), one chip
     *  tick counts once however many units it steps. 0 outside chip
     *  mode. */
    uint64_t chip_cycles = 0;

    /** Per-bank SharedL2 counters (chip mode); empty otherwise. Merges
     *  bank-by-bank (elementwise, shorter vector zero-extended), so
     *  the commutative-sum contract extends to the bank breakdown. */
    std::vector<L2Stats> l2_banks;

    /** Sum of the per-bank L2 counters. */
    L2Stats
    l2Total() const
    {
        L2Stats t;
        for (const L2Stats &b : l2_banks)
            t.merge(b);
        return t;
    }

    /** Mean beats accepted per cycle: at most 1.0 for a single-issue
     *  unit, up to issue_width for a multi-issue one. */
    double
    utilization() const
    {
        return cycles ? double(datapath_beats) / double(cycles) : 0.0;
    }

    /** Accumulate another run's counters. Every field is a sum of
     *  uint64 counts (the bank vector sums elementwise), so merging is
     *  commutative and associative: an aggregate over many batches is
     *  identical no matter which worker ran which batch or in what
     *  order the merges happen. */
    RtUnitStats &
    merge(const RtUnitStats &o)
    {
        cycles += o.cycles;
        rays_completed += o.rays_completed;
        datapath_beats += o.datapath_beats;
        for (size_t op = 0; op < beats_by_op.size(); ++op)
            beats_by_op[op] += o.beats_by_op[op];
        mem_requests += o.mem_requests;
        mem.merge(o.mem);
        packet.merge(o.packet);
        mshr.merge(o.mshr);
        knn.merge(o.knn);
        slots.merge(o.slots);
        chip_cycles += o.chip_cycles;
        if (l2_banks.size() < o.l2_banks.size())
            l2_banks.resize(o.l2_banks.size());
        for (size_t b = 0; b < o.l2_banks.size(); ++b)
            l2_banks[b].merge(o.l2_banks[b]);
        return *this;
    }

    friend bool operator==(const RtUnitStats &,
                           const RtUnitStats &) = default;
};

/**
 * The RT unit: traverses a BVH for a batch of rays through
 * RtUnitConfig::issue_width pipelined RayFlex datapath lanes.
 */
class RtUnit : public pipeline::Component
{
  public:
    /** The lanes implement `dp.config()`; `dp` itself is only read
     *  for its configuration and never ticked (its activity() and
     *  stages() stay zero). Every ray of the unit is traced in `mode`.
     *  @throws std::invalid_argument when validate(cfg) or
     *  validate(dp.config()) rejects the configuration. */
    RtUnit(const Bvh4 &bvh, core::RayFlexDatapath &dp,
           const RtUnitConfig &cfg = {},
           TraversalMode mode = TraversalMode::Closest);

    /**
     * k-NN mode: the unit walks `index` for submitKnn() queries
     * instead of tracing rays. Same memory system (shared L1, MSHR
     * file, optional chip-level L2 via attachSharedL2) and the same
     * synthetic address map over index.bvh; each query's best-first
     * walk (KnnWalk) expands nodes host-side while every candidate
     * distance is evaluated as Euclidean/cosine beats through the
     * datapath lanes. Packets do not apply to k-NN queries (a query is
     * its own traversal; PacketConfig is accepted and ignored). The
     * index must outlive the unit.
     * @throws std::invalid_argument when `dp` was not built with an
     *         extended DatapathConfig (the distance opcodes are
     *         missing otherwise).
     */
    RtUnit(const KnnIndex &index, core::RayFlexDatapath &dp,
           const RtUnitConfig &cfg = {});
    ~RtUnit() override;

    /** Queue a k-NN query; the result appears at
     *  knnResults()[query_id].
     *  @throws std::logic_error on a unit built over a Bvh4;
     *  std::invalid_argument when the query's dimension is not the
     *  index's. */
    void submitKnn(const KnnQuery &query, uint32_t query_id);

    /** k-NN results in query-id order (parallel to submissions).
     *  @throws std::bad_variant_access on a ray unit. */
    const std::vector<KnnResult> &knnResults() const;

    /** Queue a ray for traversal; results appear in results(). `job`
     *  tags the submission stream the ray belongs to (bvh::PendingRay)
     *  — it never changes scheduling or results, only the cross-job
     *  attribution of shared packet fetches.
     *  @throws std::logic_error on a unit built over a KnnIndex. */
    void submit(const core::Ray &ray, uint32_t ray_id,
                uint32_t job = 0);

    /** Route this unit's L1 misses through a chip-level shared L2 as
     *  unit `unit_id` on the ring (sim::Engine chip mode). Forwards to
     *  MemoryModel::attachNextLevel; backends without a second-tier
     *  path (FixedLatency) ignore it. Call before run()/beginRun(). */
    void
    attachSharedL2(SharedL2 *l2, unsigned unit_id)
    {
        mem_->attachNextLevel(l2, unit_id);
    }

    /** Emit cycle-stamped fetch/MSHR/packet events to `sink` as unit
     *  `unit_id` (nullptr — the default state — disables emission; the
     *  seam idiom of obs/trace.hh). Borrowed, not owned. Call before
     *  run()/beginRun(); a sink only observes, never changing the
     *  schedule, timing or counters. */
    void
    attachTrace(obs::TraceSink *sink, unsigned unit_id)
    {
        trace_ = sink;
        trace_unit_ = unit_id;
    }

    /** Run the unit until all submitted rays complete, skipping dead
     *  cycles exactly as the batch executor does (pipeline::Simulator
     *  ::step).
     *  @return statistics for the run. */
    RtUnitStats run(uint64_t max_cycles = 100000000ull);

    /**
     * Lock-step chip API: run() decomposed so N units can share one
     * pipeline::Simulator and tick together over a shared L2.
     * registerWith() registers the unit (its lanes are part of it);
     * beginRun() resets per-run state (run()'s preamble); done() is
     * true when every submitted ray completed; endRun() finalizes and
     * returns the stats (run()'s postamble — throws if rays remain).
     * run() itself is exactly registerWith + beginRun + step-until-done
     * + endRun on a private simulator.
     */
    void registerWith(pipeline::Simulator &sim);
    void beginRun();
    bool done() const { return outstanding_ == 0; }
    RtUnitStats endRun();

    /** Why the unit has not finished: the rays (or k-NN queries) still
     *  outstanding and the index and state of the first non-idle slot,
     *  e.g. "12 rays outstanding, slot 3 Fetching". What the
     *  max-cycles watchdogs (endRun, the batch executor) report. */
    std::string stallReport() const;

    /** Results in ray-id order (parallel to submissions). In
     *  TraversalMode::Any only the `hit` flag is meaningful.
     *  @throws std::bad_variant_access on a k-NN unit. */
    const std::vector<HitRecord> &results() const;

    void publish(uint64_t cycle) override;
    void advance(uint64_t cycle) override;
    /** `cycle` when it may change state: the last advance() changed
     *  some state and `cycle` is not provably quiet (quietAt). Otherwise
     *  the earliest lane due cycle or fetch completion (an MSHR entry
     *  completes with its allocating request); kNever once done, or
     *  when nothing is left to wait on. */
    uint64_t nextEvent(uint64_t cycle) const override;
    /** Charge the cycles before `cycle` in bulk. After a live cycle the
     *  first of them is its quiet successor, charged as step() would
     *  evaluate it (chargeQuietCycle); every other one repeats the
     *  last, so cycles, the MSHR refusals and the idle slots (split at
     *  the gating fetch's phase boundaries) scale with their number. A
     *  finished unit is charged nothing. */
    void skipTo(uint64_t cycle) override;

  private:
    /** Lifecycle of a ray-buffer slot, shared by both schedulers. */
    enum class EntryState : uint8_t {
        Idle,        ///< slot free
        NeedFetch,   ///< next node known, fetch not yet issued
        Fetching,    ///< waiting on node memory
        Ready,       ///< fetched data present, a beat to offer
        InFlight,    ///< beats inside the datapath, none to offer
    };
    static constexpr size_t kEntryStates = size_t(EntryState::InFlight) + 1;
    /** The state's name, as stallReport() prints it. */
    static const char *stateName(EntryState st);

    /** The node or leaf a slot fetches. */
    struct WorkItem
    {
        bool is_leaf = false;
        uint32_t index = 0; ///< node index or first triangle
        uint32_t count = 0; ///< triangle count when leaf
    };

    struct MemRequest
    {
        size_t entry;
        uint64_t done_cycle;
        uint64_t addr = 0; ///< fetch target (trace / attribution key)
        /** Absolute phase boundaries of the fetch's latency, from its
         *  AccessBreakdown at issue (merged requesters copy the
         *  in-flight entry's): issue <= l1_until <= ring_until <=
         *  queue_until <= done_cycle. classifyIdle() attributes a
         *  stalled cycle to the phase `now` falls in. */
        uint64_t l1_until = 0;
        uint64_t ring_until = 0;
        uint64_t queue_until = 0;
    };

    /** A set of slot indices, walked in ascending slot order. */
    class SlotSet
    {
      public:
        static constexpr size_t npos = ~size_t(0);
        /** Empty the set and size it for `slots` slots. */
        void assign(size_t slots) { words_.assign((slots + 63) / 64, 0); }
        void insert(size_t i) { words_[i / 64] |= uint64_t(1) << (i % 64); }
        void erase(size_t i) { words_[i / 64] &= ~(uint64_t(1) << (i % 64)); }
        bool
        empty() const
        {
            for (uint64_t w : words_)
                if (w)
                    return false;
            return true;
        }
        /** Add every member of `other`, a set of the same size. */
        void
        insertAll(const SlotSet &other)
        {
            for (size_t w = 0; w < words_.size(); ++w)
                words_[w] |= other.words_[w];
        }
        /** Erase every member `i` for which drop(i) holds, in one pass
         *  over the words. */
        template <class Drop>
        void
        eraseIf(Drop drop)
        {
            for (size_t w = 0; w < words_.size(); ++w) {
                uint64_t gone = 0;
                for (uint64_t bits = words_[w]; bits; bits &= bits - 1) {
                    const int b = std::countr_zero(bits);
                    if (drop(w * 64 + size_t(b)))
                        gone |= uint64_t(1) << b;
                }
                words_[w] &= ~gone;
            }
        }
        /** The smallest member >= i, or npos. It reads the current
         *  members, so a walk `for (i = next(0); i != npos; i =
         *  next(i + 1))` may erase or insert members as it goes and
         *  sees every change ahead of its position. */
        size_t
        next(size_t i) const
        {
            return scan(i, [](size_t) { return ~uint64_t(0); });
        }
        /** The smallest member >= i that is not in `other` (a set of
         *  the same size), or npos; the same walk rule as next(). */
        size_t
        nextNotIn(size_t i, const SlotSet &other) const
        {
            return scan(i, [&](size_t w) { return ~other.words_[w]; });
        }
        /** The number of members >= i. */
        size_t countFrom(size_t i) const;

      private:
        /** The smallest member >= i whose bit is set in keep(word
         *  index), or npos. */
        template <class Keep>
        size_t
        scan(size_t i, Keep keep) const
        {
            size_t w = i / 64;
            if (w >= words_.size())
                return npos;
            uint64_t bits = words_[w] & keep(w) & (~uint64_t(0) << (i % 64));
            while (bits == 0) {
                if (++w == words_.size())
                    return npos;
                bits = words_[w] & keep(w);
            }
            return w * 64 + size_t(std::countr_zero(bits));
        }

        std::vector<uint64_t> words_;
    };

    /** A lane with no offer this cycle (Lane::offer). */
    static constexpr size_t kNoOffer = ~size_t(0);
    /**
     * One issue lane, in place of a RayFlexDatapath's eleven-stage skid
     * chain. The unit's consumer side is always ready, so that chain
     * never back-pressures: every offered beat is accepted and its
     * result leaves exactly kPipelineLatency cycles later. The lane
     * therefore keeps only the timing: a delay line of due cycles. What
     * a beat carries is its scheduler's: the scheduler keeps it at the
     * beat's position in the line (push() returns it) in its own
     * `inflight` table. Lanes are in order, so a scheduler's per-lane
     * state sees its beats in the same order as in the chain.
     */
    struct Lane
    {
        /** The slot of this cycle's offer, or kNoOffer (publish). */
        size_t offer = kNoOffer;
        core::Opcode op = core::Opcode::RayBox; ///< the offer's opcode

        /** Due cycles of the beats in flight, in issue order: a ring of
         *  at most kPipelineLatency entries (one accept per cycle,
         *  drained on its due cycle before that cycle's accept
         *  enters). */
        std::array<uint64_t, core::kPipelineLatency> due{};
        unsigned head = 0;
        unsigned size = 0;

        /** True when the oldest beat drains at `cycle`. */
        bool dueAt(uint64_t cycle) const { return size && due[head] == cycle; }
        void
        pop()
        {
            head = (head + 1) % core::kPipelineLatency;
            --size;
        }
        /** Append a beat due at `cycle`. @return its position. */
        unsigned
        push(uint64_t cycle)
        {
            const unsigned at = (head + size++) % core::kPipelineLatency;
            due[at] = cycle;
            return at;
        }
    };

    class PacketScheduler;
    class KnnScheduler;
    using Scheduler = std::variant<PacketScheduler, KnnScheduler>;

    /** The core over `bvh`; `index` selects the k-NN scheduler. */
    RtUnit(const Bvh4 &bvh, const core::DatapathConfig &dp,
           const RtUnitConfig &cfg, TraversalMode mode,
           const KnnIndex *index);
    friend class sim::BatchExecutor; ///< clears park_ (reference walk)

    // ----- the one cycle loop, instantiated per scheduler -----

    /** advance() under scheduler `s`. */
    template <class S> void step(S &s);
    /** Record slot `i`'s state and fetch target (work item and
     *  address) in the slot lists. Called after every hook that can
     *  change a slot, so the per-cycle loop reads the lists, never the
     *  packets or queries themselves. It unparks the slot when its
     *  state or fetch address changed. */
    template <class S> void refreshSlot(const S &s, size_t i);
    /** Step (c): walk the NeedFetch slots and issue their fetches,
     *  then sample the MSHR refusals; sets `changed` on an issue, merge
     *  or compaction hold. */
    template <class S> void issueFetches(S &s, bool &changed);
    /** Whether cycle `t`, the successor of a live cycle, is provably
     *  quiet: step() would accept, drain, retire, issue, merge, hold,
     *  absorb and admit nothing in it. Cheapest check first: no slot
     *  Ready; no lane result or fetch due; no lane streaming a job and
     *  no refill possible (the scheduler's); and every NeedFetch slot
     *  refused (the MSHR file is on and full, compaction is off, and no
     *  unparked slot's address is in flight). */
    bool quietAt(uint64_t t) const;
    /** Evaluate cycle now_ + 1, which quietAt() vouched for, as step()
     *  would: its idle slots take the live cycle's refusal count, then
     *  it refuses and parks every NeedFetch slot and samples the new
     *  count. */
    void chargeQuietCycle();
    /** Emit an MshrRefusals sample when the count changed. */
    void sampleRefusals();

    /** Exclusive cause of the idle issue slots of cycle `t` (the
     *  non-Issued buckets of obs::Slot), from the unit's current state.
     *  All idle slots of one cycle share one cause, so step (a)
     *  classifies lazily once per cycle, and skipTo() charges a run of
     *  dead cycles with it. `until` receives the first cycle after `t`
     *  at which the cause changes with no state change (a phase
     *  boundary of the gating fetch), or kNever. */
    obs::Slot classifyIdle(uint64_t t, uint64_t &until) const;
    /** Step-(c) MSHR retirement (residency trace sample + refusal
     *  count re-arm). */
    void retireMshrs();
    /** Route slot `slot`'s fetch (fetch_[slot]) through the MSHR file
     *  (when enabled) or straight to the L1. @return true when the
     *  fetch left the slot (allocated or merged); false on MSHR-full or
     *  when this cycle's one L1 request is taken, leaving the slot in
     *  NeedFetch. */
    bool issueFetch(size_t slot, bool &issued);
    /** Packet observability — PacketStats and the Packet* trace events
     *  — covers packets of two or more rays. A width-1 packet shares
     *  nothing, so it reports all-zero PacketStats and no Packet*
     *  events; a k-NN unit has no packets (its PacketConfig is
     *  dropped). */
    bool packetObserved() const { return cfg_.packet.width > 1; }
    /** Emit one trace event stamped with this cycle and unit. */
    void
    emit(obs::TraceEvent event, uint64_t a, uint64_t b) const
    {
        if (trace_)
            trace_->record({now_, trace_unit_, event, a, b});
    }

    const Bvh4 &bvh_;
    RtUnitConfig cfg_;
    std::unique_ptr<MemoryModel> mem_;
    MshrFile mshrs_;        ///< outstanding-request file (may be off)
    uint64_t tri_base_ = 0; ///< triangle region base address

    /** In-flight fetches in issue order. */
    std::vector<MemRequest> mem_queue_;
    /** The earliest done_cycle in mem_queue_ (kNever when empty): no
     *  fetch retires before it. */
    uint64_t mem_next_done_ = kNever;

    /** The slot lists, kept by refreshSlot() at each slot's state
     *  changes (admit, fetch issue and arrival, beat accept, result
     *  drain, compaction absorb): each slot's state and the slots in
     *  each state. publish() walks the Ready set (a packet with
     *  issuable beats, a k-NN query with a fetched leaf), the
     *  fetch-issue loop and compaction walk the NeedFetch set, refill()
     *  the Idle set, and classifyIdle() tests the sets for
     *  emptiness. */
    std::vector<EntryState> slot_state_;
    std::array<SlotSet, kEntryStates> in_state_; ///< by EntryState
    size_t outstanding_ = 0;
    uint64_t now_ = 0;
    RtUnitStats stats_;
    obs::TraceSink *trace_ = nullptr; ///< borrowed; null = disabled
    unsigned trace_unit_ = 0;         ///< unit id stamped on events
    /** Fetches a full MSHR file refused in this cycle's issue loop;
     *  read by the next cycle's idle classification. */
    unsigned mshr_refusals_ = 0;
    /** The last MshrRefusals sample (0 before the first): the counter
     *  track records changes only, so it stays exact over skips. */
    unsigned refusals_sampled_ = 0;
    /** Whether the last evaluated cycle changed any state: a lane
     *  accept or drain, a compaction absorb or hold, a fetch retire,
     *  issue or merge, an MSHR allocation or retire, or a refill
     *  admission. */
    bool live_ = true;
    /** A NeedFetch slot's work item and its address, recorded by
     *  refreshSlot(), so the fetch-issue walk reads them here instead
     *  of from the slot's packet or query. */
    struct FetchTarget
    {
        WorkItem item;
        uint64_t addr = 0;
    };
    std::vector<FetchTarget> fetch_;
    /** NeedFetch slots a full MSHR file refused whose address is not
     *  in flight: while the file stays full, a retry would be refused
     *  again, so the issue walk counts them without asking the file.
     *  refreshSlot() erases a slot whose state or fetch address
     *  changed, a compaction absorb erases its recipient (whose hold
     *  window restarts), and an MSHR allocation
     *  erases the slots of its address, which may now merge. Only the
     *  tests' every-cycle reference walk clears park_. */
    SlotSet parked_;
    bool park_ = true;
    std::vector<Lane> lanes_;

    /** The scheduler the constructor chose (both are defined in
     *  rt_unit.cc), dispatched once per publish(), advance() and
     *  beginRun(). */
    std::unique_ptr<Scheduler> sched_;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_RT_UNIT_HH
