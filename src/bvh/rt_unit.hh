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
 * to one beat per lane per cycle. Two schedulers fill the ray buffer
 * under one cycle loop: the packet/wavefront scheduler
 * (RtUnitConfig::packet, bvh/packet.hh) groups coherent rays into
 * packets that share a traversal stack and one BVH fetch per visited
 * node, optionally repacking divergence-thinned packets
 * (PacketConfig::compact_below) — a packet of width 1 is the scalar
 * one-ray-per-slot schedule — and the k-NN scheduler walks a KnnIndex
 * per query. This is the model used to measure datapath utilization,
 * memory sensitivity and rays/cycle on real scenes.
 */
#ifndef RAYFLEX_BVH_RT_UNIT_HH
#define RAYFLEX_BVH_RT_UNIT_HH

#include <array>
#include <bit>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bvh/knn.hh"
#include "bvh/mem_model.hh"
#include "bvh/packet.hh"
#include "bvh/traversal.hh"
#include "core/datapath.hh"
#include "obs/slot_accounting.hh"
#include "obs/trace.hh"
#include "pipeline/component.hh"

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
    TraversalMode mode = TraversalMode::Closest;

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
     *  stages() stay zero).
     *  @throws std::invalid_argument when validate(cfg) or
     *  validate(dp.config()) rejects the configuration. */
    RtUnit(const Bvh4 &bvh, core::RayFlexDatapath &dp,
           const RtUnitConfig &cfg = {});

    /**
     * k-NN mode: the unit walks `index` for submitKnn() queries
     * instead of tracing rays. Same memory system (shared L1, MSHR
     * file, optional chip-level L2 via attachSharedL2) and the same
     * synthetic address map over index.bvh; node expansion and the
     * best-first frontier live in the unit while every candidate
     * distance is evaluated as Euclidean/cosine beats through the
     * datapath lanes. The packet scheduler does not apply to k-NN
     * queries (a query is its own traversal; PacketConfig is accepted
     * and ignored). The index must outlive the unit.
     * @throws std::invalid_argument when `dp` was not built with an
     *         extended DatapathConfig (the distance opcodes are
     *         missing otherwise).
     */
    RtUnit(const KnnIndex &index, core::RayFlexDatapath &dp,
           const RtUnitConfig &cfg = {});

    /** Queue a k-NN query (k-NN mode only); the result appears at
     *  knnResults()[query_id]. */
    void submitKnn(const KnnQuery &query, uint32_t query_id);

    /** k-NN results in query-id order (parallel to submissions). */
    const std::vector<KnnResult> &
    knnResults() const
    {
        return knn_results_;
    }

    /** Queue a ray for traversal; results appear in results(). `job`
     *  tags the submission stream the ray belongs to (bvh::PendingRay)
     *  — it never changes scheduling or results, only the cross-job
     *  attribution of shared packet fetches. */
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
     *  run()/beginRun(); tracing never changes timing or counters. */
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
     *  TraversalMode::Any only the `hit` flag is meaningful. */
    const std::vector<HitRecord> &results() const { return results_; }

    void publish(uint64_t cycle) override;
    void advance(uint64_t cycle) override;
    /** `cycle` while the last advance() changed any state or a trace
     *  sink is attached (a traced run never skips); otherwise the
     *  earliest lane due cycle or fetch completion (an MSHR entry
     *  completes with its allocating request); kNever once done, or
     *  when nothing is left to wait on. */
    uint64_t nextEvent(uint64_t cycle) const override;
    /** Charge the dead cycles before `cycle` in bulk: each repeats the
     *  last one, so cycles, the MSHR refusals and the idle slots
     *  (split at the gating fetch's phase boundaries) scale with their
     *  number. A finished unit is charged nothing. */
    void skipTo(uint64_t cycle) override;

  private:
    /** Lifecycle of a ray-buffer slot, shared by both schedulers (a
     *  packet reports its issue phase as InFlight; ReadyTri is a k-NN
     *  query's fetched leaf). */
    enum class EntryState : uint8_t {
        Idle,        ///< slot free
        NeedFetch,   ///< next node known, fetch not yet issued
        Fetching,    ///< waiting on node memory
        ReadyTri,    ///< leaf data present, candidate beats pending
        InFlight,    ///< beat inside the datapath
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

    // ----- the one cycle loop (advance) and its scheduler hooks -----

    /** A packet beat inside a lane, with its packet slot. */
    struct InflightBeat
    {
        size_t slot = 0;
        PacketBeat beat;
    };

    /** Ray-buffer slots of the active scheduler. */
    size_t slotCount() const;
    /** Lifecycle state of slot `i`, read from its packet or query. */
    EntryState slotState(size_t i) const;
    /** Record slot `i`'s state and whether it has a beat to offer in
     *  the slot lists. Every hook that can change a slot calls this
     *  for it, so the per-cycle loop reads the lists, never the
     *  packets or queries themselves. */
    void refreshSlot(size_t i);
    /** Step (a): lane `l` accepted the beat publish() offered it.
     *  @return the beat's slot and the packet beat taken (default in
     *  k-NN mode), which ride the delay line beside its result. */
    InflightBeat acceptLane(size_t l);
    /** Step (b): the beat `packet` names drained from its lane. `out`
     *  is a k-NN beat's result; a ray beat carries none, and its
     *  packet evaluates it. */
    void drainLane(const core::DatapathOutput &out,
                   const InflightBeat &packet);
    /** Step (c): the work item slot `i` fetches (valid in NeedFetch). */
    WorkItem fetchItem(size_t i) const;
    /** Step (c): slot `i`'s fetch left for memory. */
    void fetchIssued(size_t i);
    /** Step (c): slot `i`'s fetch returned. */
    void fetchArrived(size_t i);
    /** Step (d): admit queued rays or queries into free slots. */
    void refill();

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
    /** The synthetic address of a work item's fetch. */
    uint64_t fetchAddr(const WorkItem &w) const;
    /** Route one fetch of `addr` through the MSHR file (when enabled)
     *  or straight to the L1. @return true when the fetch left the
     *  slot (allocated or merged); false on MSHR-full or when this
     *  cycle's one L1 request is taken, leaving the slot in
     *  NeedFetch. */
    bool issueFetch(size_t slot, const WorkItem &w, uint64_t addr,
                    bool &issued);
    /** Step (c): walk the NeedFetch slots and issue their fetches;
     *  sets `changed` on an issue, merge or compaction hold. */
    void issueFetches(bool &changed);

    // ----- k-NN mode (constructed over a KnnIndex) -----

    /** One in-flight k-NN query: its own best-first frontier, fetch
     *  target, pending candidate jobs and top-k set. */
    struct KnnEntry
    {
        EntryState state = EntryState::Idle;
        uint32_t query_id = 0;
        uint32_t k = 0;
        KnnMetric metric = KnnMetric::Euclidean;
        std::vector<float> point;
        KnnTopK topk;
        /** Min-heap (KnnFrontierAfter) of unvisited subtrees. */
        std::vector<KnnFrontierItem> frontier;
        uint64_t seq = 0; ///< frontier tie-break sequence
        WorkItem fetch;   ///< fetch target (entry_t unused)
        /** Fetched-leaf candidates not yet started: the triangle range
         *  [cand_next, cand_end) of the leaf, which is contiguous. */
        uint32_t cand_next = 0;
        uint32_t cand_end = 0;
        /** Candidates started on a lane, score not yet drained. */
        uint32_t inflight_cands = 0;
        /** All frontier/pending work exhausted; waiting on inflight
         *  scores (EntryState::Idle plus this flag would be ambiguous
         *  with a free slot, hence the extra state). */
        bool draining = false;
    };

    /** A candidate streaming down one lane: publishKnn() writes its
     *  next beat into the lane's input each cycle (knnWriteBeat). The
     *  lane is locked to the candidate from the first accepted beat
     *  until the last beat is accepted, so two same-kind jobs never
     *  interleave within one lane's accumulator. */
    struct KnnLaneJob
    {
        size_t slot = 0;      ///< the query's entry slot
        uint32_t tri = 0;     ///< the candidate (triangle index)
        size_t next_beat = 0; ///< beats accepted so far
        size_t beats = 0;     ///< beats of the job

        /** Every beat accepted (or none claimed): the lane is free. */
        bool free() const { return next_beat == beats; }
        /** Some but not all beats accepted. */
        bool streaming() const { return next_beat > 0 && !free(); }
    };

    /** A queued query waiting for a free entry slot. */
    struct PendingKnn
    {
        KnnQuery query;
        uint32_t query_id = 0;
    };

    bool knnMode() const { return knn_index_ != nullptr; }
    void publishKnn();
    /** Step (a) for k-NN: start or continue a candidate on lane `l`. */
    void acceptKnnBeat(size_t l);
    /** Pop the next non-prunable frontier item into the fetch target
     *  (state NeedFetch), or mark the entry draining. */
    void popKnnFrontier(KnnEntry &e);
    /** Host-side expansion of a fetched node: push surviving children
     *  onto the frontier. */
    void expandKnnNode(KnnEntry &e);
    void handleKnnResult(const core::DatapathOutput &out);
    void finishKnnQuery(KnnEntry &e);
    /** Finish a draining entry once its last in-flight score landed. */
    void
    maybeFinishKnn(KnnEntry &e)
    {
        if (e.draining && e.inflight_cands == 0)
            finishKnnQuery(e);
    }

    const KnnIndex *knn_index_ = nullptr;
    std::vector<KnnEntry> knn_entries_;
    std::deque<PendingKnn> pending_knn_;
    std::vector<KnnResult> knn_results_;

    // ----- the packet scheduler (every ray run) -----

    /** Packet observability — PacketStats and the Packet* trace events
     *  — covers packets of two or more rays. A width-1 packet shares
     *  nothing, so it reports all-zero PacketStats and no Packet*
     *  events. */
    bool packetObserved() const { return cfg_.packet.width > 1; }
    void drainCompleted(PacketTraversal &p);
    /** @return true when any packet absorbed another. */
    bool compactPackets();
    /** Step (c): true when packet `i` defers its fetch inside the
     *  repacking window (counting the cycle). */
    bool holdForCompaction(size_t i);
    void publishPacket();

    const Bvh4 &bvh_;
    RtUnitConfig cfg_;
    std::unique_ptr<MemoryModel> mem_;
    MshrFile mshrs_;        ///< outstanding-request file (may be off)
    uint64_t tri_base_ = 0; ///< triangle region base address

    /** Repacking window: cycles a below-threshold packet defers its
     *  next fetch waiting for a compaction partner to reach a fetch
     *  boundary, before giving up and continuing alone. Sized to the
     *  order of one fetch round-trip, so a thinned packet can catch a
     *  partner that is still waiting on memory. */
    static constexpr unsigned kCompactWaitCycles = 16;

    std::vector<PacketTraversal> packets_; ///< ray slots
    /** Per-packet repacking-window progress. */
    std::vector<unsigned> compact_hold_;
    std::deque<PendingRay> pending_rays_;
    /** In-flight fetches in issue order. */
    std::vector<MemRequest> mem_queue_;
    /** The earliest done_cycle in mem_queue_ (kNever when empty): no
     *  fetch retires before it. */
    uint64_t mem_next_done_ = kNever;

    /** A set of slot indices, walked in ascending slot order. */
    class SlotSet
    {
      public:
        static constexpr size_t npos = ~size_t(0);
        /** Empty the set and size it for `slots` slots. */
        void assign(size_t slots) { words_.assign((slots + 63) / 64, 0); }
        void insert(size_t i) { words_[i / 64] |= uint64_t(1) << (i % 64); }
        void erase(size_t i) { words_[i / 64] &= ~(uint64_t(1) << (i % 64)); }
        bool empty() const;
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
    /** The slot lists, kept by refreshSlot() at each slot's state
     *  changes (admit, fetch issue and arrival, beat accept, result
     *  drain, compaction absorb): each slot's state, the slots in each
     *  state, and the slots with a beat to offer (a packet with
     *  issuable beats, a k-NN query with a fetched leaf). publish()
     *  walks `offerable_`, the fetch-issue loop and compaction walk the
     *  NeedFetch set, refill() the Idle set, and classifyIdle() tests
     *  the sets for emptiness. */
    std::vector<EntryState> slot_state_;
    std::array<SlotSet, kEntryStates> in_state_; ///< by EntryState
    SlotSet offerable_;
    std::vector<HitRecord> results_;
    size_t outstanding_ = 0;
    uint64_t now_ = 0;
    RtUnitStats stats_;
    obs::TraceSink *trace_ = nullptr; ///< borrowed; null = disabled
    unsigned trace_unit_ = 0;         ///< unit id stamped on events
    /** Last emitted PacketOccupancy sample (~0 = none yet), so the
     *  counter track only records changes. */
    uint64_t trace_occupancy_last_ = ~uint64_t(0);
    /** Fetches a full MSHR file refused in this cycle's issue loop;
     *  read by the next cycle's idle classification. */
    unsigned mshr_refusals_ = 0;
    /** Whether the last advance() changed any state: a lane accept or
     *  drain, a compaction absorb or hold, a fetch retire, issue or
     *  merge, an MSHR allocation or retire, or a refill admission. */
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
    /** NeedFetch slots a full MSHR file refused (untraced runs only)
     *  whose address is not in flight: while the file stays full, a
     *  retry would be refused again, so the issue walk counts them
     *  without asking the file. refreshSlot() erases a slot on any
     *  event on it, and an MSHR allocation erases the slots of its
     *  address, which may now merge. */
    SlotSet parked_;

    /** A lane with no offer this cycle (Lane::offer). */
    static constexpr size_t kNoOffer = ~size_t(0);
    /**
     * One issue lane, in place of a RayFlexDatapath's eleven-stage skid
     * chain. The unit's consumer side is always ready, so that chain
     * never back-pressures: every offered beat is accepted and its
     * result leaves exactly kPipelineLatency cycles later. The lane
     * therefore keeps only the timing (a delay line of due cycles).
     * A ray beat carries no operands, only its packet beat: its packet
     * tests a node's boxes when the fetch arrives and a triangle when
     * the beat drains, and neither operand changes in between. A k-NN
     * beat is evaluated once, at acceptance, with core::nativeEval and
     * the lane's own accumulators, straight into its delay-line entry.
     * Lanes are in order and stages 9 and 10 hold separate registers,
     * so every accumulator sees its beats in the same order as in the
     * chain.
     */
    struct Lane
    {
        /** The slot of this cycle's offer, or kNoOffer (publish). */
        size_t offer = kNoOffer;
        core::Opcode op = core::Opcode::RayBox; ///< the offer's opcode
        core::DatapathInput in; ///< the offered k-NN beat, in place
        core::DistanceAccumulators acc;
        KnnLaneJob knn; ///< the candidate streaming down (k-NN mode)

        /** Results in flight, in issue order: a ring of at most
         *  kPipelineLatency entries (one accept per cycle, drained on
         *  its due cycle before that cycle's accept enters). */
        struct Pending
        {
            uint64_t due = 0;
            InflightBeat packet; ///< the beat's slot and packet beat
            core::DatapathOutput out; ///< a k-NN beat's result
        };
        std::array<Pending, core::kPipelineLatency> line;
        unsigned head = 0;
        unsigned size = 0;

        /** The entry due at `cycle`, or nullptr. */
        const Pending *
        dueAt(uint64_t cycle) const
        {
            return size && line[head].due == cycle ? &line[head] : nullptr;
        }
        void
        pop()
        {
            head = (head + 1) % core::kPipelineLatency;
            --size;
        }
        /** Append an entry and return it for the caller to fill. */
        Pending &
        push()
        {
            return line[(head + size++) % core::kPipelineLatency];
        }
    };
    std::vector<Lane> lanes_;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_RT_UNIT_HH
