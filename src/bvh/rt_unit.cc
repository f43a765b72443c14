/**
 * @file
 * Cycle-level RT-unit implementation.
 *
 * Per cycle the unit (a) drives up to issue_width beats into the
 * datapath lanes from ready rays, (b) drains one datapath result per
 * lane, (c) retires memory responses and issues new node fetches
 * through the shared L1 (optionally via the bounded MSHR file), and
 * (d) refills free ray-buffer slots from the submission queue. A lane
 * is a delay line, not a skid chain: the unit always accepts results,
 * so the chain could never back-pressure, and a beat's result is
 * evaluated once and drains core::kPipelineLatency cycles after its
 * lane accepts it (RtUnit::Lane).
 *
 * advance() is the one cycle loop for both schedulers. It does the
 * slot accounting, MSHR retirement, completion-ordered fill and fetch
 * issue itself, and reaches the scheduler only through per-slot
 * hooks: slotState, acceptLane, drainLane, fetchItem, fetchIssued,
 * fetchArrived and refill. A ray run's slots are PacketTraversal
 * packets (bvh/packet.hh) — a packet in NeedFetch issues ONE fetch for
 * its whole active mask, and a packet with fetched data issues one
 * beat per active lane, up to issue_width of them in the same cycle; a
 * width-1 packet is the scalar one-ray-per-slot schedule. A k-NN run's
 * slots are KnnEntry queries. With packet.compact_below > 0 a step
 * between (b) and (c) repacks divergence-thinned packets at their
 * fetch boundaries. Only publish() keeps one offer policy per
 * scheduler.
 *
 * The loop reads slot states from lists kept at each slot's
 * transitions (refreshSlot): the state of every slot, the slots in
 * each state and the slots with a beat to offer. publish(), the
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
 * walk the parked slots still ahead are counted in one popcount. Any
 * event on the slot, or an allocation of its address, unparks it. A
 * cycle that changed no state — no lane accepted or drained, no
 * fetch retired, issued or merged, no MSHR entry allocated or freed,
 * no slot refilled, no compaction hold or absorb — repeats until the
 * earliest lane due cycle or fetch completion, so nextEvent() reports
 * that cycle and skipTo() charges the cycles in between in bulk (the
 * refusals, and the idle slots split at the gating fetch's phase
 * boundaries with the same classifyIdle()). A traced run neither parks
 * nor skips: its events are emitted cycle by cycle.
 */
#include "bvh/rt_unit.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;

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

RtUnit::RtUnit(const Bvh4 &bvh, core::RayFlexDatapath &dp,
               const RtUnitConfig &cfg)
    : pipeline::Component("rt-unit"), bvh_(bvh), cfg_(cfg),
      mem_(makeMemoryModel(cfg.mem_backend, cfg.mem_latency, cfg.cache)),
      mshrs_(cfg.mshrs),
      tri_base_(uint64_t(bvh.nodes.size()) * kNodeStrideBytes)
{
    validate(cfg_);
    validate(dp.config());
    cfg_.packet.width =
        std::clamp(cfg_.packet.width, 1u, kMaxPacketWidth);
    cfg_.issue_width =
        std::clamp(cfg_.issue_width, 1u, kMaxIssueWidth);
    // The lanes implement dp's configuration; dp itself is never
    // ticked (see Lane).
    lanes_.resize(cfg_.issue_width);
    // The ray buffer holds the same number of rays at every width; a
    // packet slot stands in for `width` one-ray slots.
    const unsigned slots =
        std::max(1u, cfg_.ray_buffer_entries / cfg_.packet.width);
    packets_.reserve(slots);
    for (unsigned i = 0; i < slots; ++i)
        packets_.emplace_back(bvh_, cfg_.packet.width, cfg_.mode,
                              &stats_.packet);
    cfg_.packet.compact_below =
        std::min(cfg_.packet.compact_below, cfg_.packet.width);
    compact_hold_.assign(slots, 0);
}

RtUnit::RtUnit(const KnnIndex &index, core::RayFlexDatapath &dp,
               const RtUnitConfig &cfg)
    : RtUnit(index.bvh, dp, cfg)
{
    if (!dp.config().extended)
        throw std::invalid_argument(
            "RtUnit k-NN mode: datapath lacks the extended distance "
            "opcodes (build it with an extended DatapathConfig)");
    // PacketConfig does not apply to k-NN queries: drop it and the
    // packets the delegated constructor built.
    cfg_.packet = {};
    packets_.clear();
    compact_hold_.clear();
    knn_index_ = &index;
    knn_entries_.resize(cfg_.ray_buffer_entries);
}

/** Step-(c) preamble: release completed MSHR entries (sampling the
 *  residency counter when it changed and tracing is on) and re-arm the
 *  MSHR-refusal count for this cycle's issue loop (classifyIdle reads
 *  last cycle's value in step (a), which runs before this). */
void
RtUnit::retireMshrs()
{
    if (trace_) {
        const size_t before = mshrs_.inflightCount();
        mshrs_.retire(now_);
        if (mshrs_.inflightCount() != before)
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::MshrResidency,
                            mshrs_.inflightCount(), 0});
    } else {
        mshrs_.retire(now_);
    }
    mshr_refusals_ = 0;
}

/** Exclusive cause of cycle `t`'s idle issue slots. The priority and
 * the phase-boundary walk are documented in obs/slot_accounting.hh.
 * Step (a) calls this before accepting any lane, and advance() runs
 * only while work is outstanding, so the answer is the same whichever
 * lane triggers the lazy evaluation and "no work at all" reduces to
 * the last fallback. ReadyTri counts as in-datapath work next to
 * InFlight, as do beats still riding a lane (the lanes hold them
 * outside the slots). skipTo() passes cycles before every fetch's
 * completion, where only the phase walk depends on `t`. */
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
    bool in_datapath = !in_state_[size_t(EntryState::ReadyTri)].empty() ||
                       !in_state_[size_t(EntryState::InFlight)].empty();
    for (const Lane &l : lanes_)
        in_datapath = in_datapath || l.size || l.knn.streaming();
    return in_datapath ? obs::Slot::StallDrain : obs::Slot::IdleNoWork;
}

/** The synthetic address map, shared by both schedulers: the whole
 *  leaf for leaf work, one wide node otherwise. The address doubles as
 *  the MSHR merge key — each node and leaf has a unique base
 *  address. */
uint64_t
RtUnit::fetchAddr(const WorkItem &w) const
{
    return w.is_leaf ? tri_base_ + uint64_t(w.index) * kTriStrideBytes
                     : uint64_t(w.index) * kNodeStrideBytes;
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
 *  slot unless a trace sink wants the event of every retry. */
bool
RtUnit::issueFetch(size_t slot, const WorkItem &w, uint64_t addr,
                   bool &issued)
{
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
        if (trace_)
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::MshrMerge, addr,
                            uint64_t(slot)});
        return true;
    }
    if (mshr && mshrs_.full()) {
        ++stats_.mshr.stalls_full;
        ++mshr_refusals_;
        if (trace_)
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::MshrStallFull, addr,
                            uint64_t(slot)});
        else
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
    if (trace_)
        trace_->record({now_, trace_unit_, obs::TraceEvent::FetchIssue,
                        addr, uint64_t(slot)});
    if (!mshr)
        return true;
    mshrs_.allocate(addr, req.done_cycle, req.l1_until, req.ring_until,
                    req.queue_until);
    ++stats_.mshr.allocations;
    // A slot parked on this address can merge now.
    for (size_t j = parked_.next(0); j != SlotSet::npos;
         j = parked_.next(j + 1))
        if (fetch_[j].addr == addr)
            parked_.erase(j);
    if (trace_) {
        trace_->record({now_, trace_unit_, obs::TraceEvent::MshrAlloc,
                        addr, mshrs_.inflightCount()});
        trace_->record({now_, trace_unit_,
                        obs::TraceEvent::MshrResidency,
                        mshrs_.inflightCount(), 0});
    }
    return true;
}

void
RtUnit::submit(const core::Ray &ray, uint32_t ray_id, uint32_t job)
{
    pending_rays_.push_back(PendingRay{ray, ray_id, job});
    if (results_.size() <= ray_id)
        results_.resize(ray_id + 1);
    ++outstanding_;
}

void
RtUnit::submitKnn(const KnnQuery &query, uint32_t query_id)
{
    if (!knnMode())
        throw std::logic_error(
            "RtUnit::submitKnn: unit was not constructed over a "
            "KnnIndex");
    if (!knn_index_->points.empty() &&
        query.point.size() != knn_index_->dims)
        throw std::invalid_argument("knn: query dimension mismatch");
    pending_knn_.push_back({query, query_id});
    if (knn_results_.size() <= query_id)
        knn_results_.resize(query_id + 1);
    ++outstanding_;
}

/** k-NN publish: each lane first finishes the candidate it is
 *  streaming (all beats of one job stay on one lane, in order, so the
 *  lane's accumulator only ever holds that job's partial sums); free
 *  lanes claim the first pending candidates in entry order, distinct
 *  candidates per lane. The lane always accepts what it is offered, so
 *  each beat is written into the lane's input exactly once. */
void
RtUnit::publishKnn()
{
    // Claims advance one cursor over offerable entries and their
    // pending candidates: every entry before it is fully claimed this
    // cycle.
    size_t i = offerable_.next(0);
    uint32_t cand = i != SlotSet::npos ? knn_entries_[i].cand_next : 0;
    for (Lane &lane : lanes_) {
        KnnLaneJob &job = lane.knn;
        if (job.free()) {
            while (i != SlotSet::npos && cand == knn_entries_[i].cand_end)
                if ((i = offerable_.next(i + 1)) != SlotSet::npos)
                    cand = knn_entries_[i].cand_next;
            if (i == SlotSet::npos)
                continue;
            job = {i, cand++, 0,
                   knnBeatsPerJob(knn_index_->dims, knn_entries_[i].metric)};
        }
        const KnnEntry &e = knn_entries_[job.slot];
        const DataPoint &p = knn_index_->points[bvh_.tris[job.tri].id];
        // The tag routes the out-of-order final beat back to its query
        // and candidate: entry slot in the high half, triangle index
        // (unique per candidate) in the low half.
        knnWriteBeat(e.point.data(), p.coords.data(), knn_index_->dims,
                     e.metric, (uint64_t(job.slot) << 32) | job.tri,
                     job.next_beat, lane.in);
        lane.offer = job.slot;
        lane.op = lane.in.op;
    }
}

void
RtUnit::finishKnnQuery(KnnEntry &e)
{
    knn_results_[e.query_id] = KnnResult{e.topk.sorted()};
    ++stats_.knn.queries;
    --outstanding_;
    e.state = EntryState::Idle;
    e.draining = false;
}

void
RtUnit::popKnnFrontier(KnnEntry &e)
{
    const bool prune = e.metric == KnnMetric::Euclidean;
    while (!e.frontier.empty()) {
        std::pop_heap(e.frontier.begin(), e.frontier.end(),
                      KnnFrontierAfter{});
        const KnnFrontierItem item = e.frontier.back();
        e.frontier.pop_back();
        if (prune && e.topk.full() &&
            knnPrunable(item.lb, e.topk.radius())) {
            // Heap-ordered frontier: once the best remaining item is
            // prunable, so is everything behind it.
            stats_.knn.pruned += 1 + e.frontier.size();
            e.frontier.clear();
            break;
        }
        e.fetch = {item.is_leaf, item.index, item.count};
        e.state = EntryState::NeedFetch;
        return;
    }
    // No work left to fetch; the query finishes once every started
    // candidate's score has drained from the pipeline.
    e.state = EntryState::InFlight;
    e.draining = true;
    maybeFinishKnn(e);
}

void
RtUnit::expandKnnNode(KnnEntry &e)
{
    ++stats_.knn.nodes_visited;
    const bool prune = e.metric == KnnMetric::Euclidean;
    const WideNode &node = bvh_.nodes[e.fetch.index];
    for (const WideNode::Child &c : node.child) {
        if (c.kind == WideNode::Kind::Empty)
            continue;
        const double lb =
            prune ? knnBoxLowerBound(c.bounds, e.point.data(),
                                     knn_index_->dims)
                  : 0.0;
        if (prune && e.topk.full() &&
            knnPrunable(lb, e.topk.radius())) {
            ++stats_.knn.pruned;
            continue;
        }
        e.frontier.push_back({lb, c.kind == WideNode::Kind::Leaf,
                              c.index, c.count, e.seq++});
        std::push_heap(e.frontier.begin(), e.frontier.end(),
                       KnnFrontierAfter{});
    }
    if (e.frontier.size() > stats_.knn.frontier_peak)
        stats_.knn.frontier_peak = e.frontier.size();
}

void
RtUnit::handleKnnResult(const core::DatapathOutput &out)
{
    // Every beat of a job produces an output; only the final beat
    // (reset echo set) carries the fully accumulated distance.
    const bool final_beat = out.op == Opcode::Euclidean
                                ? out.euclidean_reset
                                : out.angular_reset;
    if (!final_beat)
        return;
    KnnEntry &e = knn_entries_[size_t(out.tag >> 32)];
    const uint32_t tri = uint32_t(out.tag);
    const float score =
        out.op == Opcode::Euclidean
            ? fromBits(out.euclidean_accumulator)
            : golden::knnAngularScore(
                  fromBits(out.angular_dot_product),
                  fromBits(out.angular_norm));
    e.topk.offer(score, knn_index_->points[bvh_.tris[tri].id].id);
    --e.inflight_cands;
    maybeFinishKnn(e);
}

/** k-NN accept: a locked lane advances its candidate; a free lane
 *  starts the candidate it claimed, taking it off the entry, and locks
 *  on until the job's last beat is accepted. An entry's claims are a
 *  prefix of its pending candidates, in lane order, and lanes are
 *  accepted in ascending order, so each claim is the entry's front;
 *  once an entry's leaf work has fully issued it moves on to the next
 *  frontier item (the next fetch overlaps the in-flight scores). */
void
RtUnit::acceptKnnBeat(size_t l)
{
    ++stats_.knn.distance_beats;
    KnnLaneJob &job = lanes_[l].knn;
    if (job.next_beat++ > 0)
        return;
    KnnEntry &e = knn_entries_[lanes_[l].offer];
    ++e.cand_next;
    ++e.inflight_cands;
    ++stats_.knn.candidates;
    if (e.cand_next == e.cand_end)
        popKnnFrontier(e);
}

/** Move a packet's retired rays into the unit's results. */
void
RtUnit::drainCompleted(PacketTraversal &p)
{
    if (p.completed().empty())
        return;
    if (trace_ && packetObserved())
        trace_->record({now_, trace_unit_,
                        obs::TraceEvent::PacketRetire,
                        uint64_t(&p - packets_.data()),
                        p.completed().size()});
    for (const auto &[id, rec] : p.completed()) {
        results_[id] = rec;
        --outstanding_;
        ++stats_.rays_completed;
    }
    p.completed().clear();
}

/** Occupancy-driven compaction (packet.compact_below > 0): pair
 *  packets sitting at a fetch boundary whose live occupancy fell
 *  below the threshold and repack the donor's surviving lanes into
 *  the recipient, freeing the donor slot for fresh rays. Greedy in
 *  slot order, so the pairing is a pure function of packet state and
 *  the engine's determinism contract holds. Two thinned packets
 *  rarely reach a fetch boundary on the same cycle, so a
 *  below-threshold packet DEFERS its next fetch for up to
 *  kCompactWaitCycles (see holdForCompaction) — the
 *  repacking window in which a partner can appear. */
bool
RtUnit::compactPackets()
{
    const unsigned threshold = cfg_.packet.compact_below;
    if (threshold == 0)
        return false;
    // The compactable packets are the NeedFetch slots.
    const SlotSet &need = in_state_[size_t(EntryState::NeedFetch)];
    bool absorbed = false;
    for (size_t i = need.next(0); i != SlotSet::npos; i = need.next(i + 1)) {
        PacketTraversal &p = packets_[i];
        unsigned live = p.liveLanes();
        if (live == 0 || live >= threshold)
            continue;
        for (size_t j = need.next(i + 1);
             j != SlotSet::npos && live < threshold; j = need.next(j + 1)) {
            PacketTraversal &q = packets_[j];
            const unsigned ql = q.liveLanes();
            if (ql == 0 || ql >= threshold ||
                live + ql > cfg_.packet.width)
                continue;
            p.absorb(q);
            // The recipient's hold window restarts, so it is unparked
            // too: the issue walk must ask it to hold again.
            refreshSlot(i);
            refreshSlot(j);
            absorbed = true;
            if (trace_)
                trace_->record({now_, trace_unit_,
                                obs::TraceEvent::PacketCompact,
                                uint64_t(j), uint64_t(i)});
            compact_hold_[i] = 0;
            compact_hold_[j] = 0;
            live += ql;
        }
    }
    return absorbed;
}

/** Packet publish: offer up to issue_width beats from the offerable
 *  packets in slot order (first-ready; round-robin would be fairer,
 *  first-ready is sufficient for utilization studies); one packet with
 *  several pending beats may fill several lanes in one cycle — the
 *  SIMD-style multi-ray beats of the wavefront scheduler. A ray beat
 *  carries no operands: the lane records only its slot and opcode. */
void
RtUnit::publishPacket()
{
    size_t lane = 0;
    for (size_t i = offerable_.next(0);
         i != SlotSet::npos && lane < lanes_.size();
         i = offerable_.next(i + 1)) {
        const PacketTraversal &p = packets_[i];
        const size_t end = std::min(lanes_.size(), lane + p.issuableCount());
        const Opcode op = p.beatOp();
        for (; lane < end; ++lane) {
            lanes_[lane].offer = i;
            lanes_[lane].op = op;
        }
    }
}

void
RtUnit::publish(uint64_t)
{
    for (Lane &l : lanes_)
        l.offer = kNoOffer;
    if (knnMode())
        publishKnn();
    else
        publishPacket();
}

bool
RtUnit::SlotSet::empty() const
{
    return std::all_of(words_.begin(), words_.end(),
                       [](uint64_t w) { return w == 0; });
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

size_t
RtUnit::slotCount() const
{
    return knnMode() ? knn_entries_.size() : packets_.size();
}

RtUnit::EntryState
RtUnit::slotState(size_t i) const
{
    if (knnMode())
        return knn_entries_[i].state;
    const PacketTraversal &p = packets_[i];
    if (p.idle())
        return EntryState::Idle;
    if (p.needsFetch())
        return EntryState::NeedFetch;
    return p.issueReady() ? EntryState::InFlight : EntryState::Fetching;
}

void
RtUnit::refreshSlot(size_t i)
{
    const EntryState st = slotState(i);
    EntryState &kept = slot_state_[i];
    if (st != kept) {
        in_state_[size_t(kept)].erase(i);
        in_state_[size_t(st)].insert(i);
        kept = st;
    }
    parked_.erase(i);
    if (st == EntryState::NeedFetch) {
        FetchTarget &f = fetch_[i];
        f.item = fetchItem(i);
        f.addr = fetchAddr(f.item);
    }
    const bool offers = knnMode() ? st == EntryState::ReadyTri
                                  : st == EntryState::InFlight &&
                                        packets_[i].issuableCount() > 0;
    if (offers)
        offerable_.insert(i);
    else
        offerable_.erase(i);
}

RtUnit::InflightBeat
RtUnit::acceptLane(size_t l)
{
    const size_t slot = lanes_[l].offer;
    InflightBeat taken{slot, {}};
    if (knnMode())
        acceptKnnBeat(l);
    else
        taken.beat = packets_[slot].takeBeat();
    refreshSlot(slot);
    return taken;
}

void
RtUnit::drainLane(const core::DatapathOutput &out,
                  const InflightBeat &packet)
{
    if (knnMode()) {
        handleKnnResult(out);
    } else {
        // The beat taken at acceptance names the result's packet,
        // member lane and triangle. A result can complete the packet's
        // current item, push children and retire lanes whose work ran
        // out.
        PacketTraversal &p = packets_[packet.slot];
        p.handleResult(packet.beat);
        drainCompleted(p);
    }
    refreshSlot(packet.slot);
}

RtUnit::WorkItem
RtUnit::fetchItem(size_t i) const
{
    if (knnMode())
        return knn_entries_[i].fetch;
    const PacketTraversal &p = packets_[i];
    return {p.fetchIsLeaf(), p.fetchIndex(), p.fetchCount()};
}

void
RtUnit::fetchIssued(size_t i)
{
    if (knnMode()) {
        knn_entries_[i].state = EntryState::Fetching;
    } else {
        packets_[i].fetchIssued();
        compact_hold_[i] = 0;
    }
    refreshSlot(i);
}

void
RtUnit::fetchArrived(size_t i)
{
    if (!knnMode()) {
        packets_[i].fetchArrived();
    } else if (KnnEntry &e = knn_entries_[i]; e.fetch.is_leaf) {
        ++stats_.knn.leaves_visited;
        e.cand_next = e.fetch.index;
        e.cand_end = e.fetch.index + e.fetch.count;
        e.state = EntryState::ReadyTri;
    } else {
        // Node expansion (the double-precision box lower bound) is
        // host-side at fetch arrival; only candidate distances consume
        // datapath beats.
        expandKnnNode(e);
        popKnnFrontier(e);
    }
    refreshSlot(i);
}

/** A below-threshold packet defers its fetch inside the repacking
 *  window, waiting for a partner to reach a fetch boundary
 *  (compactPackets pairs them). The window is bounded, so an unlucky
 *  packet resumes alone after it expires. */
bool
RtUnit::holdForCompaction(size_t i)
{
    if (cfg_.packet.compact_below == 0 ||
        compact_hold_[i] >= kCompactWaitCycles)
        return false;
    const unsigned live = packets_[i].liveLanes();
    if (live == 0 || live >= cfg_.packet.compact_below)
        return false;
    ++compact_hold_[i];
    return true;
}

/** The fetch-issue walk over the NeedFetch slots, in slot order. No
 *  entry retires during the walk, so once the MSHR file is full (at
 *  the start or after an allocation) it stays full: every parked slot
 *  from there on is refused, counted in one popcount, and the walk
 *  visits only the unparked slots (to merge or be refused and park). A
 *  parked slot never holds for compaction: its hold was declined when
 *  it parked, and only an event that refreshes the slot restarts it. */
void
RtUnit::issueFetches(bool &changed)
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
    for (size_t i = full ? need.nextNotIn(0, parked_) : need.next(0);
         i != SlotSet::npos;
         i = full ? need.nextNotIn(i + 1, parked_) : need.next(i + 1)) {
        if (!mshrs_.enabled() && issued)
            break;
        if (holdForCompaction(i)) {
            changed = true;
            continue;
        }
        const FetchTarget &f = fetch_[i];
        if (!issueFetch(i, f.item, f.addr, issued))
            continue;
        fetchIssued(i);
        changed = true;
        if (!full && mshrs_.enabled() && mshrs_.full())
            fileFull(i + 1);
    }
}

void
RtUnit::refill()
{
    // A slot whose admission completes at once (an empty scene or
    // index, k == 0) stays Idle; the walk moves on to the next.
    const SlotSet &idle = in_state_[size_t(EntryState::Idle)];
    if (knnMode()) {
        for (size_t i = idle.next(0);
             i != SlotSet::npos && !pending_knn_.empty();
             i = idle.next(i + 1)) {
            KnnEntry &e = knn_entries_[i];
            PendingKnn pk = std::move(pending_knn_.front());
            pending_knn_.pop_front();
            e = KnnEntry{};
            e.query_id = pk.query_id;
            e.k = pk.query.k;
            e.metric = pk.query.metric;
            e.point = std::move(pk.query.point);
            e.topk.reset(e.k);
            if (knn_index_->points.empty() || e.k == 0) {
                finishKnnQuery(e); // degenerate queries finish at admission
                continue;
            }
            e.frontier.push_back({0.0, false, 0, 0, e.seq++});
            if (e.frontier.size() > stats_.knn.frontier_peak)
                stats_.knn.frontier_peak = e.frontier.size();
            popKnnFrontier(e);
            refreshSlot(i);
        }
        return;
    }
    // Consecutive rays form one packet, so coherent submissions
    // (camera batches) become coherent packets.
    for (size_t i = idle.next(0);
         i != SlotSet::npos && !pending_rays_.empty(); i = idle.next(i + 1)) {
        PacketTraversal &p = packets_[i];
        p.admit(pending_rays_);
        if (trace_ && packetObserved())
            trace_->record({now_, trace_unit_, obs::TraceEvent::PacketForm,
                            uint64_t(i), p.liveLanes()});
        drainCompleted(p); // empty-scene rays complete at admission
        refreshSlot(i);
    }
}

void
RtUnit::advance(uint64_t cycle)
{
    // A finished unit idles: in chip mode the shared simulator keeps
    // ticking until the slowest unit drains, and a done unit must stop
    // accumulating cycles/idle-slot counters (its per-unit `cycles` is
    // the cycle its own rays completed; skipTo() likewise charges it
    // nothing). Unreachable under run(), whose loop stops at
    // outstanding_ == 0 — single-unit schedules are bit-for-bit
    // unaffected.
    if (outstanding_ == 0 && pending_rays_.empty() &&
        pending_knn_.empty())
        return;
    now_ = cycle;
    ++stats_.cycles;
    const uint64_t mshr_generation = mshrs_.generation();
    const size_t queued = pending_rays_.size() + pending_knn_.size();
    bool changed = false;

    // (a) Issue, per lane: every offer is accepted (a lane never
    // back-pressures), and every issue slot lands in exactly one
    // obs::Slot bucket. Idle slots share one cause, classified lazily
    // before any lane is accepted. Accepted beats are then taken in
    // ascending lane order: a slot's offers are a prefix of its pending
    // beats or candidates, so each take is the slot's front.
    obs::Slot idle_cause = obs::Slot::kCount;
    std::array<bool, kMaxIssueWidth> accepted{};
    std::array<InflightBeat, kMaxIssueWidth> taken{};
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
        if (accepted[l])
            taken[l] = acceptLane(l);

    // (b) Per lane, drain the result due this cycle, then enter the
    // beat accepted in (a) into the delay line, due kPipelineLatency
    // cycles from now. A k-NN beat (still where publish() put it) is
    // evaluated in place into its entry now, so the lane's
    // accumulators see beats in acceptance order; a ray beat carries
    // only its packet beat, which its packet evaluates. Then
    // occupancy-driven repacking at fetch boundaries, before new
    // fetches are issued for the packets involved.
    for (size_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        if (const Lane::Pending *due = lane.dueAt(now_)) {
            drainLane(due->out, due->packet);
            lane.pop();
            changed = true;
        }
        if (accepted[l]) {
            Lane::Pending &entry = lane.push();
            entry.due = now_ + kPipelineLatency;
            entry.packet = taken[l];
            if (knnMode())
                nativeEval(lane.in, lane.acc, entry.out);
        }
    }
    changed = compactPackets() || changed;

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
            if (trace_)
                trace_->record({now_, trace_unit_,
                                obs::TraceEvent::FetchFill, r.addr,
                                uint64_t(r.entry)});
            fetchArrived(r.entry);
            changed = true;
        }
        mem_queue_.resize(kept);
    }
    issueFetches(changed);

    // (d) Refill free slots from the submission queue, then sample the
    // packet occupancy counter: live lanes across all packet slots,
    // emitted on change only (tracing off costs one pointer test).
    refill();
    live_ = changed || mshrs_.generation() != mshr_generation ||
            pending_rays_.size() + pending_knn_.size() != queued;
    if (trace_ && packetObserved()) {
        uint64_t occ = 0;
        for (const PacketTraversal &p : packets_)
            occ += p.liveLanes();
        if (occ != trace_occupancy_last_) {
            trace_occupancy_last_ = occ;
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::PacketOccupancy, occ, 0});
        }
    }
}

uint64_t
RtUnit::nextEvent(uint64_t cycle) const
{
    if (done())
        return kNever;
    if (live_ || trace_)
        return cycle;
    // Every lane result due and every fetch complete by now_ was
    // handled in the dead cycle, so the earliest remaining one lies
    // ahead.
    uint64_t next = mem_next_done_;
    for (const Lane &l : lanes_)
        if (l.size)
            next = std::min(next, l.line[l.head].due);
    return next;
}

void
RtUnit::skipTo(uint64_t cycle)
{
    if (done())
        return;
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
    case EntryState::ReadyTri:
        return "ReadyTri";
    case EntryState::InFlight:
        return "InFlight";
    }
    return "?"; // unreachable: every state has a case above
}

std::string
RtUnit::stallReport() const
{
    std::string msg = std::to_string(outstanding_) +
                      (knnMode() ? " queries" : " rays") + " outstanding";
    for (size_t i = 0; i < slotCount(); ++i) {
        const EntryState st = slotState(i);
        if (st != EntryState::Idle)
            return msg + ", slot " + std::to_string(i) + " " +
                   stateName(st);
    }
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
    live_ = true;
    fetch_.assign(slotCount(), FetchTarget{});
    slot_state_.assign(slotCount(), EntryState::Idle);
    for (SlotSet &set : in_state_)
        set.assign(slotCount());
    offerable_.assign(slotCount());
    parked_.assign(slotCount());
    for (size_t i = 0; i < slotCount(); ++i) {
        in_state_[size_t(EntryState::Idle)].insert(i);
        refreshSlot(i);
    }
    trace_occupancy_last_ = ~uint64_t(0);
    for (Lane &l : lanes_)
        l = Lane{};
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

} // namespace rayflex::bvh
