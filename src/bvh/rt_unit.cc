/**
 * @file
 * Cycle-level RT-unit implementation: the two schedulers, then the
 * core.
 *
 * Per cycle the unit (a) drives up to issue_width beats into the
 * datapath lanes from ready slots, (b) drains one datapath result per
 * lane, (c) retires memory responses and issues new node fetches
 * through the shared L1 (optionally via the bounded MSHR file), and
 * (d) refills free ray-buffer slots from the submission queue. A lane
 * is a delay line, not a skid chain: the unit always accepts results,
 * so the chain could never back-pressure, and a beat's result drains
 * core::kPipelineLatency cycles after its lane accepts it
 * (RtUnit::Lane).
 *
 * step() is the one cycle loop, a template over the scheduler whose
 * hooks it calls. It does the slot accounting, MSHR retirement,
 * completion-ordered fill and fetch issue itself, and refreshes a
 * slot's lists after each per-slot hook. A ray run's slots are
 * PacketTraversal packets (bvh/packet.hh) — a packet in NeedFetch
 * issues ONE fetch for its whole active mask, and a packet with fetched
 * data issues one beat per active lane, up to issue_width of them in
 * the same cycle; a width-1 packet is the scalar one-ray-per-slot
 * schedule. With packet.compact_below > 0 a step between (b) and (c)
 * repacks divergence-thinned packets at their fetch boundaries. A k-NN
 * run's slots are queries, each a KnnWalk whose candidates stream down
 * the lanes as distance beats.
 *
 * The loop reads slot states from lists kept at each slot's
 * transitions (refreshSlot): the state of every slot and the slots in
 * each state, Ready being the slots with a beat to offer. publish(), the
 * fetch-issue walk, compaction, refill() and classifyIdle() walk or
 * test those lists, so a slot with nothing to do is never touched.
 *
 * Fetch latency comes from the configured MemoryModel — the unit's
 * shared L1: one instance serves every slot. The address map is
 * synthetic but stable: node i occupies
 * [i * kNodeStrideBytes, (i+1) * kNodeStrideBytes) and the triangle
 * region starts immediately after the last node, with triangle j at
 * tri_base + j * kTriStrideBytes. A leaf fetch reads all of the leaf's
 * triangles in one request, so the cache sees the same spatial
 * locality the traversal order produces. With RtUnitConfig::mshrs > 0
 * every fetch routes through a bounded MSHR file first: a fetch whose
 * target is already in flight merges onto the existing entry (one miss
 * serves both requesters, no L1 touch, no issue bandwidth), and a full
 * file refuses new allocations, holding the requester in NeedFetch.
 *
 * Only the cycles in which something can change are evaluated. A
 * slot the full file refused parks: its address is not in flight, so
 * while the file stays full its retry is counted as refused without
 * consulting the file, and once the file is full in a cycle's issue
 * walk the parked slots still ahead are counted in one popcount. A
 * change of the slot's state or fetch address, a compaction absorb into
 * its packet, or an allocation of its address unparks it. A cycle that
 * changes no state — no lane accepts or drains, no fetch retires,
 * issues or merges, no MSHR entry is allocated or freed, no slot
 * refills, no compaction holds or absorbs — repeats until the earliest
 * lane due cycle or fetch completion. Such a cycle is found without
 * evaluating it: after a dead cycle, every later one repeats it; after
 * a live cycle, nextEvent() tests whether the next one is provably
 * quiet (quietAt: nothing to offer, nothing due, nothing to admit, and
 * every NeedFetch slot refused by the full file). Either way
 * nextEvent() reports the next event and skipTo() charges the cycles
 * in between in bulk: a quiet successor first, as step() would
 * (chargeQuietCycle: its idle slots take the live cycle's refusal
 * count, then it refuses and parks every NeedFetch slot), then the
 * repeats (the refusals, and the idle slots split at the gating
 * fetch's phase boundaries with the same classifyIdle()). The quiet
 * test runs in nextEvent(), not at the end of every live step, so a
 * busy unit pays only its first check. A trace only observes this
 * schedule; the tests compare it with a walk that neither parks nor
 * skips (sim::BatchExecutor's reference walk).
 */
#include "bvh/rt_unit.hh"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>
#include <utility>
#include <variant>

namespace rayflex::bvh
{

using namespace rayflex::core;

void
validate(const RtUnitConfig &cfg)
{
    if (cfg.ray_buffer_entries == 0)
        throw std::invalid_argument(
            "RtUnitConfig::ray_buffer_entries must be at least 1 (no "
            "slot could ever hold a ray)");
}

void
validate(const core::DatapathConfig &dp)
{
    if (dp.box_width != kBoxesPerOp)
        throw std::invalid_argument(
            "DatapathConfig::box_width must be " +
            std::to_string(kBoxesPerOp) + " in an RT unit (the arity of "
            "the BVH it traverses), not " + std::to_string(dp.box_width));
}

namespace
{

/** The configuration a unit runs: validated, out-of-range knobs
 *  clamped, and without a PacketConfig on a k-NN unit. */
RtUnitConfig
prepared(RtUnitConfig cfg, const core::DatapathConfig &dp, bool knn)
{
    validate(cfg);
    validate(dp);
    if (knn && !dp.extended)
        throw std::invalid_argument(
            "RtUnit k-NN mode: datapath lacks the extended distance "
            "opcodes (build it with an extended DatapathConfig)");
    if (knn)
        cfg.packet = {};
    cfg.packet.width = std::clamp(cfg.packet.width, 1u, kMaxPacketWidth);
    cfg.packet.compact_below =
        std::min(cfg.packet.compact_below, cfg.packet.width);
    cfg.issue_width = std::clamp(cfg.issue_width, 1u, kMaxIssueWidth);
    return cfg;
}

} // namespace

// ----- the schedulers --------------------------------------------------
//
// A scheduler owns the slots' contents and answers the core's hooks:
// slots(), state(i) and fetchItem(i) describe slot i;
// begin() resets per-run state; publish() sets the lanes' offers, and
// streaming() says whether a lane will offer with no slot Ready;
// accept(lane, beat) and drain(beat) are steps (a) and (b), and
// compact() runs after (b); holdFetch(i), fetchIssued(i) and
// fetchArrived(i) serve step (c), and refill() step (d). A lane carries
// the scheduler's Beat (with its `slot`), kept in inflight[lane][its
// delay-line position]; kItems names the work in stallReport(). The
// core refreshes a slot's lists after each per-slot hook; accept and
// drain return whether the slot's state may have changed, and the core
// refreshes it only then.

/** The ray scheduler: packets of PacketConfig::width rays
 *  (bvh/packet.hh), optionally repacked below
 *  PacketConfig::compact_below. A ray beat carries no operands: its
 *  packet tests a node's boxes or a leaf's triangles when the fetch
 *  arrives, and no operand changes before the item's last beat drains.
 *  The scheduler counts each packet's beats pending and outstanding
 *  itself, so accepting a beat is a count (an any-hit packet's cursor
 *  also moves) and so is a drain, unless it ends the item or retires
 *  an any-hit lane. */
class RtUnit::PacketScheduler
{
  public:
    /** A packet beat inside a lane, with its packet slot. */
    struct Beat
    {
        size_t slot = 0;
        PacketBeat beat;
    };
    static constexpr const char *kItems = "rays";

    PacketScheduler(RtUnit &unit, TraversalMode mode)
        : inflight(unit.lanes_.size()), unit_(unit),
          width_(unit.cfg_.packet.width), any_hit_(mode == TraversalMode::Any)
    {
        const RtUnitConfig &cfg = unit.cfg_;
        // The ray buffer holds the same number of rays at every width;
        // a packet slot stands in for `width` one-ray slots.
        const unsigned slots =
            std::max(1u, cfg.ray_buffer_entries / cfg.packet.width);
        packets_.reserve(slots);
        for (unsigned i = 0; i < slots; ++i)
            packets_.emplace_back(unit.bvh_, cfg.packet.width, mode,
                                  &unit.stats_.packet);
        compact_hold_.assign(slots, 0);
        beats_.assign(slots, Beats{});
    }

    size_t slots() const { return packets_.size(); }
    EntryState
    state(size_t i) const
    {
        const PacketTraversal &p = packets_[i];
        if (p.idle())
            return EntryState::Idle;
        if (p.needsFetch())
            return EntryState::NeedFetch;
        if (!p.issueReady())
            return EntryState::Fetching;
        return issuable(beats_[i]) ? EntryState::Ready : EntryState::InFlight;
    }
    WorkItem
    fetchItem(size_t i) const
    {
        const PacketTraversal &p = packets_[i];
        return {p.fetchIsLeaf(), p.fetchIndex(), p.fetchCount()};
    }
    void begin() { occupancy_last_ = ~uint64_t(0); }
    /** A packet lane offers only from a Ready slot. */
    bool streaming() const { return false; }

    /** Offer up to issue_width beats from the Ready packets in slot
     *  order (first-ready; round-robin would be fairer, first-ready is
     *  sufficient for utilization studies); one packet with several
     *  pending beats may fill several lanes in one cycle — the
     *  SIMD-style multi-ray beats of the wavefront scheduler. */
    void
    publish()
    {
        std::vector<Lane> &lanes = unit_.lanes_;
        const SlotSet &ready = unit_.in_state_[size_t(EntryState::Ready)];
        size_t lane = 0;
        for (size_t i = ready.next(0);
             i != SlotSet::npos && lane < lanes.size(); i = ready.next(i + 1)) {
            const Beats &c = beats_[i];
            const size_t end = std::min(lanes.size(), lane + issuable(c));
            const Opcode op = c.op;
            for (; lane < end; ++lane) {
                lanes[lane].offer = i;
                lanes[lane].op = op;
            }
        }
    }

    /** Count the offered beat taken. Only an any-hit beat can retire
     *  its lane when it drains, so only an any-hit packet's cursor is
     *  walked (takeBeat); a closest-hit beat carries its slot alone.
     *  The slot leaves Ready when its last pending beat goes, and at
     *  width 1 with every beat (rule (a)). */
    bool
    accept(size_t lane, Beat &b)
    {
        const size_t slot = unit_.lanes_[lane].offer;
        Beats &c = beats_[slot];
        --c.pending;
        ++c.outstanding;
        b = {slot, any_hit_ ? packets_[slot].takeBeat() : PacketBeat{}};
        return c.pending == 0 || width_ == 1;
    }

    /** The beat taken at acceptance names the result's packet and
     *  member lane. Most drains only count down: the packet is touched
     *  when the beat retires an any-hit lane (which prunes its later
     *  beats) or is the item's last, which completes the item, pushes
     *  children and retires lanes whose work ran out. A width-1 packet
     *  offers its next beat once the previous one drained (rule (a)),
     *  so each of its drains changes its state. */
    bool
    drain(const Beat &b)
    {
        Beats &c = beats_[b.slot];
        --c.outstanding;
        if (!b.beat.retires && (c.pending || c.outstanding))
            return width_ == 1;
        PacketTraversal &p = packets_[b.slot];
        if (b.beat.retires) {
            p.retireOnHit(b.beat.lane);
            c.pending = p.pendingBeats();
        }
        if (c.pending == 0 && c.outstanding == 0)
            p.completeItem();
        drainCompleted(p);
        return true;
    }

    /** Occupancy-driven compaction (packet.compact_below > 0): pair
     *  packets sitting at a fetch boundary whose live occupancy fell
     *  below the threshold and repack the donor's surviving lanes into
     *  the recipient, freeing the donor slot for fresh rays. Greedy in
     *  slot order, so the pairing is a pure function of packet state
     *  and the engine's determinism contract holds. Two thinned packets
     *  rarely reach a fetch boundary on the same cycle, so a
     *  below-threshold packet DEFERS its next fetch for up to
     *  kCompactWaitCycles (holdFetch) — the repacking window in which a
     *  partner can appear. @return true when any packet absorbed
     *  another. */
    bool
    compact()
    {
        const unsigned threshold = unit_.cfg_.packet.compact_below;
        if (threshold == 0)
            return false;
        // The compactable packets are the NeedFetch slots.
        const SlotSet &need = unit_.in_state_[size_t(EntryState::NeedFetch)];
        bool absorbed = false;
        for (size_t i = need.next(0); i != SlotSet::npos;
             i = need.next(i + 1)) {
            PacketTraversal &p = packets_[i];
            unsigned live = p.liveLanes();
            if (live == 0 || live >= threshold)
                continue;
            for (size_t j = need.next(i + 1);
                 j != SlotSet::npos && live < threshold;
                 j = need.next(j + 1)) {
                PacketTraversal &q = packets_[j];
                const unsigned ql = q.liveLanes();
                if (ql == 0 || ql >= threshold ||
                    live + ql > unit_.cfg_.packet.width)
                    continue;
                p.absorb(q);
                // The recipient's hold window restarts while it stays
                // in NeedFetch, so it is unparked here: the issue walk
                // must ask it to hold again. The donor goes Idle, which
                // unparks it.
                unit_.parked_.erase(i);
                unit_.refreshSlot(*this, i);
                unit_.refreshSlot(*this, j);
                absorbed = true;
                unit_.emit(obs::TraceEvent::PacketCompact, j, i);
                compact_hold_[i] = 0;
                compact_hold_[j] = 0;
                live += ql;
            }
        }
        return absorbed;
    }

    /** A below-threshold packet defers its fetch inside the repacking
     *  window, waiting for a partner to reach a fetch boundary
     *  (compact() pairs them). The window is bounded, so an unlucky
     *  packet resumes alone after it expires. */
    bool
    holdFetch(size_t i)
    {
        const unsigned threshold = unit_.cfg_.packet.compact_below;
        if (threshold == 0 || compact_hold_[i] >= kCompactWaitCycles)
            return false;
        const unsigned live = packets_[i].liveLanes();
        if (live == 0 || live >= threshold)
            return false;
        ++compact_hold_[i];
        return true;
    }

    void
    fetchIssued(size_t i)
    {
        packets_[i].fetchIssued();
        compact_hold_[i] = 0;
    }
    void
    fetchArrived(size_t i)
    {
        PacketTraversal &p = packets_[i];
        p.fetchArrived();
        beats_[i] = {p.pendingBeats(), 0, p.beatOp()};
    }

    /** Admit queued rays into the Idle slots, then sample the packet
     *  occupancy counter: live lanes across all packet slots, emitted
     *  on change only. Consecutive rays form one packet, so coherent
     *  submissions (camera batches) become coherent packets. A slot
     *  whose rays complete at admission (an empty scene) stays Idle;
     *  the walk moves on to the next. */
    bool
    refill()
    {
        const SlotSet &idle = unit_.in_state_[size_t(EntryState::Idle)];
        bool admitted = false;
        for (size_t i = idle.next(0); i != SlotSet::npos && !pending.empty();
             i = idle.next(i + 1)) {
            PacketTraversal &p = packets_[i];
            p.admit(pending);
            if (unit_.packetObserved())
                unit_.emit(obs::TraceEvent::PacketForm, i, p.liveLanes());
            drainCompleted(p);
            unit_.refreshSlot(*this, i);
            admitted = true;
        }
        if (unit_.trace_ && unit_.packetObserved()) {
            uint64_t occ = 0;
            for (const PacketTraversal &p : packets_)
                occ += p.liveLanes();
            if (occ != occupancy_last_) {
                occupancy_last_ = occ;
                unit_.emit(obs::TraceEvent::PacketOccupancy, occ, 0);
            }
        }
        return admitted;
    }

    std::vector<std::array<Beat, kPipelineLatency>> inflight;
    std::deque<PendingRay> pending;
    std::vector<HitRecord> results; ///< by ray id

  private:
    /** Repacking window: cycles a below-threshold packet defers its
     *  next fetch waiting for a compaction partner to reach a fetch
     *  boundary, before giving up and continuing alone. Sized to the
     *  order of one fetch round-trip, so a thinned packet can catch a
     *  partner that is still waiting on memory. */
    static constexpr unsigned kCompactWaitCycles = 16;

    /** A packet's beat counts in its issue phase: beats not yet taken
     *  and beats taken but not drained, and their opcode. */
    struct Beats
    {
        uint32_t pending = 0;
        uint32_t outstanding = 0;
        Opcode op = Opcode::RayBox;
    };

    /** Beats a packet may offer this cycle. The multi-issue unit offers
     *  pending beats 0..N-1 to its N datapath lanes in one cycle —
     *  SIMD-style back-to-back member-lane beats. Rule (a): a width-1
     *  packet keeps one beat in flight, so its leaf serializes on each
     *  triangle result. */
    uint32_t
    issuable(const Beats &c) const
    {
        if (width_ == 1)
            return c.outstanding == 0 && c.pending ? 1 : 0;
        return c.pending;
    }

    /** Move a packet's retired rays into the results. */
    void
    drainCompleted(PacketTraversal &p)
    {
        if (p.completed().empty())
            return;
        if (unit_.packetObserved())
            unit_.emit(obs::TraceEvent::PacketRetire,
                       uint64_t(&p - packets_.data()),
                       p.completed().size());
        for (const auto &[id, rec] : p.completed()) {
            results[id] = rec;
            --unit_.outstanding_;
            ++unit_.stats_.rays_completed;
        }
        p.completed().clear();
    }

    RtUnit &unit_;
    unsigned width_;
    bool any_hit_;
    std::vector<PacketTraversal> packets_; ///< ray slots
    std::vector<Beats> beats_;             ///< per packet slot
    /** Per-packet repacking-window progress. */
    std::vector<unsigned> compact_hold_;
    /** Last emitted PacketOccupancy sample (~0 = none yet), so the
     *  counter track only records changes. */
    uint64_t occupancy_last_ = ~uint64_t(0);
};

/** The k-NN scheduler: one query per slot, each walking its own
 *  KnnWalk. Node expansion is host-side at fetch arrival; every
 *  candidate distance streams down one lane as Euclidean or cosine
 *  beats, evaluated with core::nativeEval and the lane's accumulators
 *  when the lane accepts them. */
class RtUnit::KnnScheduler
{
  public:
    /** A k-NN beat inside a lane: its query's slot and candidate, and
     *  on the job's last beat the candidate's score. */
    struct Beat
    {
        size_t slot = 0;
        uint32_t tri = 0;
        bool last = false;
        float score = 0;
    };
    static constexpr const char *kItems = "queries";

    KnnScheduler(RtUnit &unit, const KnnIndex &index)
        : index(index), inflight(unit.lanes_.size()), unit_(unit),
          entries_(unit.cfg_.ray_buffer_entries), lanes_(unit.lanes_.size())
    {
    }

    size_t slots() const { return entries_.size(); }
    EntryState state(size_t i) const { return entries_[i].state; }
    WorkItem fetchItem(size_t i) const { return entries_[i].fetch; }
    void begin() { lanes_.assign(lanes_.size(), KnnLane{}); }
    /** A lane locked to a job offers its next beat whatever the slot
     *  states. */
    bool
    streaming() const
    {
        return std::any_of(lanes_.begin(), lanes_.end(),
                           [](const KnnLane &l) { return !l.job.free(); });
    }

    /** Each lane first finishes the candidate it is streaming (all
     *  beats of one job stay on one lane, in order, so the lane's
     *  accumulators only ever hold that job's partial sums); free lanes
     *  claim the first pending candidates in entry order, distinct
     *  candidates per lane. The lane always accepts what it is offered,
     *  so each beat is written into the lane's input exactly once. */
    void
    publish()
    {
        // Claims advance one cursor over Ready entries and their pending
        // candidates: every entry before it is fully claimed this cycle.
        const SlotSet &ready = unit_.in_state_[size_t(EntryState::Ready)];
        size_t i = ready.next(0);
        uint32_t cand = i != SlotSet::npos ? entries_[i].cand_next : 0;
        for (size_t l = 0; l < lanes_.size(); ++l) {
            KnnLane &lane = lanes_[l];
            Job &job = lane.job;
            if (job.free()) {
                while (i != SlotSet::npos && cand == entries_[i].cand_end)
                    if ((i = ready.next(i + 1)) != SlotSet::npos)
                        cand = entries_[i].cand_next;
                if (i == SlotSet::npos)
                    continue;
                job = {i, cand++, 0,
                       knnBeatsPerJob(index.dims, entries_[i].walk.metric())};
            }
            const KnnWalk &walk = entries_[job.slot].walk;
            const DataPoint &p = index.points[index.bvh.tris[job.tri].id];
            knnWriteBeat(walk.point(), p.coords.data(), index.dims,
                         walk.metric(), job.tri, job.next_beat, lane.in);
            unit_.lanes_[l].offer = job.slot;
            unit_.lanes_[l].op = lane.in.op;
        }
    }

    /** The beat is evaluated now, in place, with the lane's
     *  accumulators. A locked lane advances its candidate; a free lane
     *  starts the candidate it claimed, taking it off the entry, and
     *  locks on until the job's last beat is accepted. An entry's
     *  claims are a prefix of its pending candidates, in lane order,
     *  and lanes are accepted in ascending order, so each claim is the
     *  entry's front; once an entry's leaf work has fully issued it
     *  moves on to the next frontier item (the next fetch overlaps the
     *  in-flight scores). */
    bool
    accept(size_t lane, Beat &b)
    {
        ++unit_.stats_.knn.distance_beats;
        KnnLane &kl = lanes_[lane];
        bool moved = false; ///< the entry moved on to its next fetch
        if (kl.job.next_beat++ == 0) {
            Entry &e = entries_[kl.job.slot];
            ++e.cand_next;
            ++e.inflight_cands;
            ++unit_.stats_.knn.candidates;
            if (e.cand_next == e.cand_end) {
                nextFetch(e);
                moved = true;
            }
        }
        // Every beat of a job produces an output; only the last one
        // carries the fully accumulated distance.
        nativeEval(kl.in, kl.acc, out_);
        const bool last = kl.job.free();
        b = {kl.job.slot, kl.job.tri, last, last ? knnScore(out_) : 0.0f};
        return moved;
    }

    /** Only a job's last beat carries a score; it can finish a
     *  draining entry. */
    bool
    drain(const Beat &b)
    {
        if (!b.last)
            return false;
        Entry &e = entries_[b.slot];
        e.walk.offer(b.tri, b.score);
        --e.inflight_cands;
        return maybeFinish(e);
    }

    bool compact() { return false; }
    bool holdFetch(size_t) { return false; }
    void fetchIssued(size_t i) { entries_[i].state = EntryState::Fetching; }

    void
    fetchArrived(size_t i)
    {
        Entry &e = entries_[i];
        if (e.fetch.is_leaf) {
            e.cand_next = e.fetch.index;
            e.cand_end = e.fetch.index + e.fetch.count;
            e.state = EntryState::Ready;
            return;
        }
        // Node expansion (the double-precision box lower bound) is
        // host-side at fetch arrival; only candidate distances consume
        // datapath beats.
        e.walk.expand(e.fetch.index, unit_.stats_.knn);
        nextFetch(e);
    }

    /** Admit queued queries into the Idle slots. An Idle entry is at
     *  rest (no candidate pending or in flight), so admission only
     *  starts its walk. A query with nothing to visit (an empty index,
     *  k == 0) finishes at once and its slot stays Idle; the walk moves
     *  on to the next. */
    bool
    refill()
    {
        const SlotSet &idle = unit_.in_state_[size_t(EntryState::Idle)];
        bool admitted = false;
        for (size_t i = idle.next(0); i != SlotSet::npos && !pending.empty();
             i = idle.next(i + 1)) {
            Entry &e = entries_[i];
            e.query_id = pending.front().second;
            e.walk.start(index, std::move(pending.front().first),
                         unit_.stats_.knn);
            pending.pop_front();
            nextFetch(e);
            unit_.refreshSlot(*this, i);
            admitted = true;
        }
        return admitted;
    }

    const KnnIndex &index;
    std::vector<std::array<Beat, kPipelineLatency>> inflight;
    std::deque<std::pair<KnnQuery, uint32_t>> pending; ///< (query, id)
    std::vector<KnnResult> results;                    ///< by query id

  private:
    /** One in-flight query: its walk, fetch target and candidates. */
    struct Entry
    {
        /** InFlight once the walk is exhausted: the query waits on its
         *  in-flight scores. */
        EntryState state = EntryState::Idle;
        uint32_t query_id = 0;
        KnnWalk walk;
        WorkItem fetch;
        /** Fetched-leaf candidates not yet started: the triangle range
         *  [cand_next, cand_end) of the leaf, which is contiguous. */
        uint32_t cand_next = 0;
        uint32_t cand_end = 0;
        /** Candidates started on a lane, score not yet drained. */
        uint32_t inflight_cands = 0;
    };

    /** A candidate streaming down one lane: publish() writes its next
     *  beat into the lane's input each cycle. The lane is locked to the
     *  candidate from the first accepted beat until the last beat is
     *  accepted, so two jobs never interleave within one lane's
     *  accumulators. */
    struct Job
    {
        size_t slot = 0;      ///< the query's entry slot
        uint32_t tri = 0;     ///< the candidate (triangle index)
        size_t next_beat = 0; ///< beats accepted so far
        size_t beats = 0;     ///< beats of the job

        /** Every beat accepted (or none claimed): the lane is free. */
        bool free() const { return next_beat == beats; }
    };

    /** A lane's k-NN state: the beat on offer, written in place, and
     *  the accumulators its beats fold into. */
    struct KnnLane
    {
        DatapathInput in;
        DistanceAccumulators acc;
        Job job;
    };

    /** Pop the entry's next frontier item into its fetch target
     *  (NeedFetch), or drain the entry once its walk is exhausted. */
    void
    nextFetch(Entry &e)
    {
        KnnFrontierItem item;
        if (e.walk.next(item, unit_.stats_.knn)) {
            e.fetch = {item.is_leaf, item.index, item.count};
            e.state = EntryState::NeedFetch;
            return;
        }
        // No work left to fetch; the query finishes once every started
        // candidate's score has drained from the pipeline.
        e.state = EntryState::InFlight;
        maybeFinish(e);
    }

    /** Finish a draining entry once its last in-flight score landed.
     *  @return whether it finished. */
    bool
    maybeFinish(Entry &e)
    {
        if (e.state != EntryState::InFlight || e.inflight_cands > 0)
            return false;
        results[e.query_id] = KnnResult{e.walk.neighbors()};
        ++unit_.stats_.knn.queries;
        --unit_.outstanding_;
        e.state = EntryState::Idle;
        return true;
    }

    RtUnit &unit_;
    std::vector<Entry> entries_;
    std::vector<KnnLane> lanes_;
    DatapathOutput out_; ///< a beat's result, evaluated in place
};

RtUnit::RtUnit(const Bvh4 &bvh, core::RayFlexDatapath &dp,
               const RtUnitConfig &cfg, TraversalMode mode)
    : RtUnit(bvh, dp.config(), cfg, mode, nullptr)
{
}

RtUnit::RtUnit(const KnnIndex &index, core::RayFlexDatapath &dp,
               const RtUnitConfig &cfg)
    : RtUnit(index.bvh, dp.config(), cfg, TraversalMode::Closest, &index)
{
}

// The lanes implement dp's configuration; the datapath itself is never
// ticked (see Lane).
RtUnit::RtUnit(const Bvh4 &bvh, const core::DatapathConfig &dp,
               const RtUnitConfig &cfg, TraversalMode mode,
               const KnnIndex *index)
    : pipeline::Component("rt-unit"), bvh_(bvh),
      cfg_(prepared(cfg, dp, index != nullptr)),
      mem_(makeMemoryModel(cfg_.mem_backend, cfg_.mem_latency, cfg_.cache)),
      mshrs_(cfg_.mshrs),
      tri_base_(uint64_t(bvh.nodes.size()) * kNodeStrideBytes),
      lanes_(cfg_.issue_width),
      sched_(index ? std::make_unique<Scheduler>(
                         std::in_place_type<KnnScheduler>, *this, *index)
                   : std::make_unique<Scheduler>(
                         std::in_place_type<PacketScheduler>, *this, mode))
{
}

RtUnit::~RtUnit() = default;

// ----- the core --------------------------------------------------------

/** Step-(c) preamble: release completed MSHR entries (sampling the
 *  residency counter when it changed and tracing is on) and re-arm the
 *  MSHR-refusal count for this cycle's issue loop (classifyIdle reads
 *  last cycle's value in step (a), which runs before this). */
void
RtUnit::retireMshrs()
{
    const size_t before = mshrs_.inflightCount();
    mshrs_.retire(now_);
    if (mshrs_.inflightCount() != before)
        emit(obs::TraceEvent::MshrResidency, mshrs_.inflightCount(), 0);
    mshr_refusals_ = 0;
}

/** Exclusive cause of cycle `t`'s idle issue slots. The priority and
 * the phase-boundary walk are documented in obs/slot_accounting.hh.
 * Step (a) calls this before accepting any lane, and advance() runs
 * only while work is outstanding, so the answer is the same whichever
 * lane triggers the lazy evaluation and "no work at all" reduces to
 * the last fallback. Ready counts as in-datapath work next to
 * InFlight, as do beats still riding a lane (the lanes hold them
 * outside the slots; a lane streaming a k-NN candidate accepted a beat
 * last cycle, so it holds one). skipTo() passes cycles before every
 * fetch's completion, where only the phase walk depends on `t`. */
obs::Slot
RtUnit::classifyIdle(uint64_t t, uint64_t &until) const
{
    until = kNever;
    if (mshr_refusals_)
        return obs::Slot::StallMshrFull;
    if (!mem_queue_.empty()) {
        // The gating request: the earliest-completing in-flight fetch
        // (queue order breaks ties) — the one the unit is actually
        // waiting out. Attribute this cycle to the phase containing
        // it, clamped into the request's lifetime so a fetch retiring
        // later this same cycle still lands in its last real phase (a
        // clamped cause no longer changes with `t`).
        const MemRequest *g = &mem_queue_.front();
        for (const MemRequest &r : mem_queue_)
            if (r.done_cycle < g->done_cycle)
                g = &r;
        const bool clamped = t >= g->done_cycle;
        if (clamped)
            t = g->done_cycle ? g->done_cycle - 1 : 0;
        for (const auto &[end, cause] :
             {std::pair{g->l1_until, obs::Slot::StallL1Miss},
              std::pair{g->ring_until, obs::Slot::StallRingHop},
              std::pair{g->queue_until, obs::Slot::StallL2BankQueue}})
            if (t < end) {
                until = clamped ? kNever : end;
                return cause;
            }
        return obs::Slot::StallL2Fill;
    }
    if (!in_state_[size_t(EntryState::NeedFetch)].empty())
        return obs::Slot::StallL1Miss; // waiting on issue bandwidth
    bool in_datapath = !in_state_[size_t(EntryState::Ready)].empty() ||
                       !in_state_[size_t(EntryState::InFlight)].empty();
    for (const Lane &l : lanes_)
        in_datapath = in_datapath || l.size;
    return in_datapath ? obs::Slot::StallDrain : obs::Slot::IdleNoWork;
}

/** Route one slot's fetch to memory: straight to the L1 when the MSHR
 *  file is disabled (the legacy unbounded path, bit-for-bit), else
 *  merge-or-allocate through the file. One request reaches the L1 per
 *  cycle; `issued` says whether this cycle's has gone. Merges are free
 *  (they ride an in-flight fill instead of going to memory). The
 *  current cycle rides into MemoryModel::access so a chip-mode L1 can
 *  anchor its SharedL2 requests (bank queues, in-flight merges) on the
 *  lock-step chip clock; single-unit backends ignore it. The access's phase breakdown
 *  becomes absolute boundaries on the queued request — what
 *  classifyIdle() attributes stalled slots against. A refusal parks the
 *  slot. */
bool
RtUnit::issueFetch(size_t slot, bool &issued)
{
    const auto &[w, addr] = fetch_[slot];
    const uint32_t bytes =
        w.is_leaf ? w.count * kTriStrideBytes : kNodeStrideBytes;
    const bool mshr = mshrs_.enabled();
    if (const MshrFile::Entry *inflight =
            mshr ? mshrs_.lookup(addr) : nullptr) {
        // Duplicate of an in-flight fill: complete when it does, and
        // wait through the same phases it does.
        MemRequest req{slot, inflight->done_cycle, addr};
        req.l1_until = inflight->l1_until;
        req.ring_until = inflight->ring_until;
        req.queue_until = inflight->queue_until;
        mem_queue_.push_back(req);
        mem_next_done_ = std::min(mem_next_done_, req.done_cycle);
        ++stats_.mshr.merges;
        emit(obs::TraceEvent::MshrMerge, addr, uint64_t(slot));
        return true;
    }
    if (mshr && mshrs_.full()) {
        ++stats_.mshr.stalls_full;
        ++mshr_refusals_;
        if (park_)
            parked_.insert(slot);
        return false; // back-pressure: slot retries next cycle
    }
    if (mshr && issued)
        return false;
    AccessBreakdown bd;
    const unsigned lat = mem_->access(addr, bytes, now_, &bd);
    MemRequest req{slot, now_ + lat, addr};
    req.l1_until = now_ + bd.l1;
    req.ring_until = req.l1_until + bd.ring;
    req.queue_until = req.ring_until + bd.queue;
    mem_queue_.push_back(req);
    mem_next_done_ = std::min(mem_next_done_, req.done_cycle);
    ++stats_.mem_requests;
    issued = true;
    emit(obs::TraceEvent::FetchIssue, addr, uint64_t(slot));
    if (!mshr)
        return true;
    mshrs_.allocate(addr, req.done_cycle, req.l1_until, req.ring_until,
                    req.queue_until);
    ++stats_.mshr.allocations;
    // A slot parked on this address can merge now.
    parked_.eraseIf([&](size_t j) { return fetch_[j].addr == addr; });
    emit(obs::TraceEvent::MshrAlloc, addr, mshrs_.inflightCount());
    emit(obs::TraceEvent::MshrResidency, mshrs_.inflightCount(), 0);
    return true;
}

template <class S>
void
RtUnit::refreshSlot(const S &s, size_t i)
{
    const EntryState st = s.state(i);
    EntryState &kept = slot_state_[i];
    if (st != kept) {
        in_state_[size_t(kept)].erase(i);
        in_state_[size_t(st)].insert(i);
        kept = st;
        parked_.erase(i);
    }
    if (st != EntryState::NeedFetch)
        return;
    // The synthetic address map, shared by both schedulers: the whole
    // leaf for leaf work, one wide node otherwise. The address doubles
    // as the MSHR merge key — each node and leaf has a unique base
    // address. A slot that keeps its state and target (a k-NN query's
    // score draining while it waits to fetch) stays parked: its retry
    // would be refused as before.
    FetchTarget &f = fetch_[i];
    f.item = s.fetchItem(i);
    const uint64_t addr =
        f.item.is_leaf ? tri_base_ + uint64_t(f.item.index) * kTriStrideBytes
                       : uint64_t(f.item.index) * kNodeStrideBytes;
    if (addr != f.addr) {
        f.addr = addr;
        parked_.erase(i);
    }
}

/** The fetch-issue walk over the NeedFetch slots, in slot order. No
 *  entry retires during the walk, so once the MSHR file is full (at
 *  the start or after an allocation) it stays full: every parked slot
 *  from there on is refused, counted in one popcount, and the walk
 *  visits only the unparked slots (to merge or be refused and park).
 *  Once this cycle's one L1 request has gone, a parked slot left in the
 *  walk can neither allocate nor merge (its address is not in flight),
 *  so the walk skips the parked slots then too. A parked slot never
 *  holds for compaction: its hold was declined when it parked, and
 *  only an event that refreshes the slot restarts it. */
template <class S>
void
RtUnit::issueFetches(S &s, bool &changed)
{
    const SlotSet &need = in_state_[size_t(EntryState::NeedFetch)];
    bool issued = false;
    bool full = false;
    const auto fileFull = [&](size_t from) {
        full = true;
        const unsigned refused = unsigned(parked_.countFrom(from));
        stats_.mshr.stalls_full += refused;
        mshr_refusals_ += refused;
    };
    if (mshrs_.enabled() && mshrs_.full())
        fileFull(0);
    const auto from = [&](size_t i) {
        return full || issued ? need.nextNotIn(i, parked_) : need.next(i);
    };
    for (size_t i = from(0); i != SlotSet::npos; i = from(i + 1)) {
        if (!mshrs_.enabled() && issued)
            break;
        if (s.holdFetch(i)) {
            changed = true;
            continue;
        }
        if (!issueFetch(i, issued))
            continue;
        s.fetchIssued(i);
        refreshSlot(s, i);
        changed = true;
        if (!full && mshrs_.enabled() && mshrs_.full())
            fileFull(i + 1);
    }
    sampleRefusals();
}

void
RtUnit::sampleRefusals()
{
    if (mshr_refusals_ != refusals_sampled_) {
        refusals_sampled_ = mshr_refusals_;
        emit(obs::TraceEvent::MshrRefusals, mshr_refusals_, 0);
    }
}

bool
RtUnit::quietAt(uint64_t t) const
{
    // Nothing to accept: lanes offer from Ready slots. Nothing to drain
    // or retire (an MSHR entry retires with its allocating request).
    if (!in_state_[size_t(EntryState::Ready)].empty() || mem_next_done_ <= t)
        return false;
    for (const Lane &l : lanes_)
        if (l.dueAt(t))
            return false;
    // Nothing else to accept (a k-NN lane offers while it streams a
    // job), and nothing to admit.
    const bool busy = std::visit(
        [this](const auto &s) {
            return s.streaming() ||
                   (!s.pending.empty() &&
                    !in_state_[size_t(EntryState::Idle)].empty());
        },
        *sched_);
    if (busy)
        return false;
    // Nothing to issue, merge, hold or absorb: a parked slot's address
    // is never in flight, so only the unparked ones are looked up.
    const SlotSet &need = in_state_[size_t(EntryState::NeedFetch)];
    if (need.empty())
        return true;
    if (!mshrs_.enabled() || !mshrs_.full() || cfg_.packet.compact_below)
        return false;
    for (size_t i = need.nextNotIn(0, parked_); i != SlotSet::npos;
         i = need.nextNotIn(i + 1, parked_))
        if (mshrs_.lookup(fetch_[i].addr))
            return false;
    return true;
}

void
RtUnit::chargeQuietCycle()
{
    ++now_;
    ++stats_.cycles;
    uint64_t until;
    stats_.slots[classifyIdle(now_, until)] += lanes_.size();
    // retireMshrs() re-arms the count, and the issue walk refuses every
    // NeedFetch slot: the parked ones by popcount, the rest by asking
    // the file, parking them.
    const SlotSet &need = in_state_[size_t(EntryState::NeedFetch)];
    mshr_refusals_ = unsigned(need.countFrom(0));
    stats_.mshr.stalls_full += mshr_refusals_;
    if (park_)
        parked_.insertAll(need);
    sampleRefusals();
    live_ = false;
}

template <class S>
void
RtUnit::step(S &s)
{
    const uint64_t mshr_generation = mshrs_.generation();
    bool changed = false;

    // (a) Issue, per lane: every offer is accepted (a lane never
    // back-pressures), and every issue slot lands in exactly one
    // obs::Slot bucket. Idle slots share one cause, classified lazily
    // before any lane is accepted. Accepted beats are then taken in
    // ascending lane order: a slot's offers are a prefix of its pending
    // beats or candidates, so each take is the slot's front.
    obs::Slot idle_cause = obs::Slot::kCount;
    std::array<bool, kMaxIssueWidth> accepted{};
    std::array<typename S::Beat, kMaxIssueWidth> taken;
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const Lane &lane = lanes_[l];
        if (lane.offer != kNoOffer) {
            accepted[l] = true;
            ++stats_.datapath_beats;
            ++stats_.beats_by_op[size_t(lane.op)];
            ++stats_.slots[obs::Slot::Issued];
            changed = true;
        } else {
            if (idle_cause == obs::Slot::kCount) {
                uint64_t until;
                idle_cause = classifyIdle(now_, until);
            }
            ++stats_.slots[idle_cause];
        }
    }
    for (size_t l = 0; l < lanes_.size(); ++l)
        if (accepted[l] && s.accept(l, taken[l]))
            refreshSlot(s, lanes_[l].offer);

    // (b) Per lane, drain the beat due this cycle, then enter the beat
    // accepted in (a) into the delay line, due kPipelineLatency cycles
    // from now. Then occupancy-driven repacking at fetch boundaries,
    // before new fetches are issued for the packets involved.
    for (size_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        if (lane.dueAt(now_)) {
            const typename S::Beat &b = s.inflight[l][lane.head];
            if (s.drain(b))
                refreshSlot(s, b.slot);
            lane.pop();
            changed = true;
        }
        if (accepted[l])
            s.inflight[l][lane.push(now_ + kPipelineLatency)] = taken[l];
    }
    changed = s.compact() || changed;

    // (c) Memory: retire due responses, issue new fetches. Retirement
    // is completion-ordered, not FIFO: with the cache backend a cheap
    // hit issued behind an expensive miss completes first and must not
    // be held at the queue head, or the hit latency the cache model
    // exists to expose would be masked. (Under a uniform-latency
    // backend completion order equals issue order.) One fetch serves a
    // packet's whole active mask, and the MSHR file (when enabled)
    // merges duplicate in-flight targets across slots. A parked slot
    // is refused again, without consulting the file, while it is full.
    retireMshrs();
    if (mem_next_done_ <= now_) {
        size_t kept = 0;
        mem_next_done_ = kNever;
        for (const MemRequest &r : mem_queue_) {
            if (r.done_cycle > now_) {
                mem_next_done_ = std::min(mem_next_done_, r.done_cycle);
                mem_queue_[kept++] = r;
                continue;
            }
            emit(obs::TraceEvent::FetchFill, r.addr, uint64_t(r.entry));
            s.fetchArrived(r.entry);
            refreshSlot(s, r.entry);
            changed = true;
        }
        mem_queue_.resize(kept);
    }
    issueFetches(s, changed);

    // (d) Refill free slots from the submission queue.
    changed = s.refill() || changed;
    live_ = changed || mshrs_.generation() != mshr_generation;
}

void
RtUnit::publish(uint64_t)
{
    for (Lane &l : lanes_)
        l.offer = kNoOffer;
    std::visit([](auto &s) { s.publish(); }, *sched_);
}

void
RtUnit::advance(uint64_t cycle)
{
    // A finished unit idles: in chip mode the shared simulator keeps
    // ticking until the slowest unit drains, and a done unit must stop
    // accumulating cycles/idle-slot counters (its per-unit `cycles` is
    // the cycle its own work completed; skipTo() likewise charges it
    // nothing). Unreachable under run(), whose loop stops at
    // outstanding_ == 0 — single-unit schedules are bit-for-bit
    // unaffected. Queued work counts as outstanding.
    if (done())
        return;
    now_ = cycle;
    ++stats_.cycles;
    std::visit([this](auto &s) { step(s); }, *sched_);
}

uint64_t
RtUnit::nextEvent(uint64_t cycle) const
{
    if (done())
        return kNever;
    if (live_ && !quietAt(cycle))
        return cycle;
    // Every lane result due and every fetch complete by now_ was
    // handled, and a quiet `cycle` has none due, so the earliest
    // remaining one lies ahead.
    uint64_t next = mem_next_done_;
    for (const Lane &l : lanes_)
        if (l.size)
            next = std::min(next, l.due[l.head]);
    return next;
}

void
RtUnit::skipTo(uint64_t cycle)
{
    if (done())
        return;
    // nextEvent() lets the clock jump past a live cycle only onto its
    // quiet successor.
    if (live_)
        chargeQuietCycle();
    const uint64_t n = cycle - now_ - 1;
    stats_.cycles += n;
    stats_.mshr.stalls_full += uint64_t(mshr_refusals_) * n;
    for (uint64_t t = now_ + 1; t < cycle;) {
        uint64_t until;
        const obs::Slot cause = classifyIdle(t, until);
        const uint64_t end = std::min(until, cycle);
        stats_.slots[cause] += (end - t) * lanes_.size();
        t = end;
    }
}

size_t
RtUnit::SlotSet::countFrom(size_t i) const
{
    size_t w = i / 64;
    if (w >= words_.size())
        return 0;
    size_t n = size_t(std::popcount(words_[w] & (~uint64_t(0) << (i % 64))));
    while (++w < words_.size())
        n += size_t(std::popcount(words_[w]));
    return n;
}

const char *
RtUnit::stateName(EntryState st)
{
    switch (st) {
    case EntryState::Idle:
        return "Idle";
    case EntryState::NeedFetch:
        return "NeedFetch";
    case EntryState::Fetching:
        return "Fetching";
    case EntryState::Ready:
        return "Ready";
    case EntryState::InFlight:
        return "InFlight";
    }
    return "?"; // unreachable: every state has a case above
}

std::string
RtUnit::stallReport() const
{
    const char *items =
        std::visit([](const auto &s) { return s.kItems; }, *sched_);
    const std::string msg =
        std::to_string(outstanding_) + " " + items + " outstanding";
    for (size_t i = 0; i < slot_state_.size(); ++i)
        if (slot_state_[i] != EntryState::Idle)
            return msg + ", slot " + std::to_string(i) + " " +
                   stateName(slot_state_[i]);
    return msg + ", every slot idle";
}

void
RtUnit::registerWith(pipeline::Simulator &sim)
{
    sim.add(this);
}

void
RtUnit::beginRun()
{
    stats_ = {};
    mshrs_.reset();
    mshr_refusals_ = 0;
    refusals_sampled_ = 0;
    live_ = true;
    for (Lane &l : lanes_)
        l = Lane{};
    std::visit(
        [this](auto &s) {
            const size_t slots = s.slots();
            fetch_.assign(slots, FetchTarget{});
            slot_state_.assign(slots, EntryState::Idle);
            for (SlotSet &set : in_state_)
                set.assign(slots);
            parked_.assign(slots);
            for (size_t i = 0; i < slots; ++i) {
                in_state_[size_t(EntryState::Idle)].insert(i);
                refreshSlot(s, i);
            }
            s.begin();
        },
        *sched_);
    mem_->reset(); // cold cache per run: runs are reproducible
}

RtUnitStats
RtUnit::endRun()
{
    stats_.mem = mem_->stats();
    if (!packetObserved())
        stats_.packet = {};
    if (outstanding_ > 0)
        throw std::runtime_error("RtUnit::run: did not complete: " +
                                 stallReport());
    return stats_;
}

RtUnitStats
RtUnit::run(uint64_t max_cycles)
{
    pipeline::Simulator sim;
    registerWith(sim);
    beginRun();
    while (outstanding_ > 0 && sim.cycle() < max_cycles)
        if (!sim.step(max_cycles))
            break; // nothing left to wait on: endRun reports the hang
    return endRun();
}

void
RtUnit::submit(const core::Ray &ray, uint32_t ray_id, uint32_t job)
{
    auto *s = std::get_if<PacketScheduler>(&*sched_);
    if (!s)
        throw std::logic_error(
            "RtUnit::submit: unit was constructed over a KnnIndex (use "
            "submitKnn)");
    s->pending.push_back(PendingRay{ray, ray_id, job});
    if (s->results.size() <= ray_id)
        s->results.resize(ray_id + 1);
    ++outstanding_;
}

void
RtUnit::submitKnn(const KnnQuery &query, uint32_t query_id)
{
    auto *s = std::get_if<KnnScheduler>(&*sched_);
    if (!s)
        throw std::logic_error(
            "RtUnit::submitKnn: unit was not constructed over a "
            "KnnIndex");
    if (!s->index.points.empty() && query.point.size() != s->index.dims)
        throw std::invalid_argument("knn: query dimension mismatch");
    s->pending.emplace_back(query, query_id);
    if (s->results.size() <= query_id)
        s->results.resize(query_id + 1);
    ++outstanding_;
}

const std::vector<HitRecord> &
RtUnit::results() const
{
    return std::get<PacketScheduler>(*sched_).results;
}

const std::vector<KnnResult> &
RtUnit::knnResults() const
{
    return std::get<KnnScheduler>(*sched_).results;
}

} // namespace rayflex::bvh
