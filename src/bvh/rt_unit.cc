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
 * computed once when its lane accepts it and drains
 * core::kPipelineLatency cycles later (RtUnit::Lane).
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
 */
#include "bvh/rt_unit.hh"

#include <algorithm>
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
    if (cfg.mem_requests_per_cycle == 0)
        throw std::invalid_argument(
            "RtUnitConfig::mem_requests_per_cycle must be at least 1 (no "
            "node fetch could ever issue)");
}

RtUnit::RtUnit(const Bvh4 &bvh, core::RayFlexDatapath &dp,
               const RtUnitConfig &cfg)
    : pipeline::Component("rt-unit"), bvh_(bvh),
      box_width_(dp.config().box_width), cfg_(cfg),
      mem_(makeMemoryModel(cfg.mem_backend, cfg.mem_latency, cfg.cache)),
      mshrs_(cfg.mshrs),
      tri_base_(uint64_t(bvh.nodes.size()) * kNodeStrideBytes)
{
    validate(cfg_);
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
    const auto mode = cfg_.mode == TraversalMode::Any
                          ? PacketTraversal::Mode::Any
                          : PacketTraversal::Mode::Closest;
    packets_.reserve(slots);
    for (unsigned i = 0; i < slots; ++i)
        packets_.emplace_back(bvh_, cfg_.packet.width, mode,
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
 *  MSHR-refusal flag for this cycle's issue loop (classifyIdle reads
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
    mshr_refused_ = false;
}

/** Exclusive cause of this cycle's idle issue slots. The priority and
 * the phase-boundary walk are documented in obs/slot_accounting.hh.
 * Step (a) calls this before accepting any lane, and advance() runs
 * only while work is outstanding, so the answer is the same whichever
 * lane triggers the lazy evaluation and "no work at all" reduces to
 * the last fallback. ReadyTri counts as in-datapath work next to
 * InFlight, as do beats still riding a lane (the lanes hold them
 * outside the slots). */
obs::Slot
RtUnit::classifyIdle() const
{
    if (mshr_refused_)
        return obs::Slot::StallMshrFull;
    if (!mem_queue_.empty()) {
        // The gating request: the earliest-completing in-flight fetch
        // (queue order breaks ties) — the one the unit is actually
        // waiting out. Attribute this cycle to the phase containing
        // it, clamped into the request's lifetime so a fetch retiring
        // later this same cycle still lands in its last real phase.
        const MemRequest *g = &mem_queue_.front();
        for (const MemRequest &r : mem_queue_)
            if (r.done_cycle < g->done_cycle)
                g = &r;
        const uint64_t t =
            now_ < g->done_cycle
                ? now_
                : (g->done_cycle ? g->done_cycle - 1 : 0);
        if (t < g->l1_until)
            return obs::Slot::StallL1Miss;
        if (t < g->ring_until)
            return obs::Slot::StallRingHop;
        if (t < g->queue_until)
            return obs::Slot::StallL2BankQueue;
        return obs::Slot::StallL2Fill;
    }
    bool in_datapath = false;
    for (size_t i = 0; i < slotCount(); ++i) {
        const EntryState st = slotState(i);
        if (st == EntryState::NeedFetch)
            return obs::Slot::StallL1Miss; // waiting on issue bandwidth
        in_datapath = in_datapath || st == EntryState::ReadyTri ||
                      st == EntryState::InFlight;
    }
    for (const Lane &l : lanes_)
        in_datapath = in_datapath || l.size || l.knn.streaming();
    return in_datapath ? obs::Slot::StallDrain : obs::Slot::IdleNoWork;
}

/** Route one slot's fetch to memory: straight to the L1 when the MSHR
 *  file is disabled (the legacy unbounded path, bit-for-bit), else
 *  merge-or-allocate through the file. `issued` is the memory-issue
 *  bandwidth consumed this cycle; merges are free (they ride an
 *  in-flight fill instead of going to memory). The current cycle rides
 *  into MemoryModel::access so a chip-mode L1 can anchor its SharedL2
 *  requests (bank queues, in-flight merges) on the lock-step chip
 *  clock; single-unit backends ignore it. The access's phase breakdown
 *  becomes absolute boundaries on the queued request — what
 *  classifyIdle() attributes stalled slots against. */
bool
RtUnit::issueFetch(size_t slot, const WorkItem &w, unsigned &issued)
{
    // The synthetic address map, shared by both schedulers: the whole
    // leaf for leaf work, one wide node otherwise. The address doubles
    // as the MSHR merge key — each node and leaf has a unique base
    // address.
    const uint64_t addr =
        w.is_leaf ? tri_base_ + uint64_t(w.index) * kTriStrideBytes
                  : uint64_t(w.index) * kNodeStrideBytes;
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
        ++stats_.mshr.merges;
        if (trace_)
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::MshrMerge, addr,
                            uint64_t(slot)});
        return true;
    }
    if (mshr && mshrs_.full()) {
        ++stats_.mshr.stalls_full;
        mshr_refused_ = true;
        if (trace_)
            trace_->record({now_, trace_unit_,
                            obs::TraceEvent::MshrStallFull, addr,
                            uint64_t(slot)});
        return false; // back-pressure: slot retries next cycle
    }
    if (mshr && issued >= cfg_.mem_requests_per_cycle)
        return false;
    AccessBreakdown bd;
    const unsigned lat = mem_->access(addr, bytes, now_, &bd);
    MemRequest req{slot, now_ + lat, addr};
    req.l1_until = now_ + bd.l1;
    req.ring_until = req.l1_until + bd.ring;
    req.queue_until = req.ring_until + bd.queue;
    mem_queue_.push_back(req);
    ++stats_.mem_requests;
    ++issued;
    if (trace_)
        trace_->record({now_, trace_unit_, obs::TraceEvent::FetchIssue,
                        addr, uint64_t(slot)});
    if (!mshr)
        return true;
    mshrs_.allocate(addr, req.done_cycle, req.l1_until, req.ring_until,
                    req.queue_until);
    ++stats_.mshr.allocations;
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

std::vector<core::DatapathInput>
RtUnit::knnCandidateBeats(size_t slot, uint32_t tri) const
{
    const KnnEntry &e = knn_entries_[slot];
    const DataPoint &p = knn_index_->points[bvh_.tris[tri].id];
    // The tag routes the out-of-order final beat back to its query and
    // candidate: entry slot in the high half, triangle index (unique
    // per candidate) in the low half.
    return knnJobBeats(e.point.data(), p.coords.data(),
                       knn_index_->dims, e.metric,
                       (uint64_t(slot) << 32) | tri);
}

/** k-NN publish: each lane first finishes the candidate it is
 *  streaming (all beats of one job stay on one lane, in order, so the
 *  lane's accumulator only ever holds that job's partial sums); free
 *  lanes claim the first pending candidates in entry order, distinct
 *  candidates per lane. A claim builds the candidate's beats once,
 *  into the lane's job: the lane always accepts what it is offered. */
void
RtUnit::publishKnn()
{
    // Claims advance one cursor over (entry, pending position): every
    // entry before it is ineligible or fully claimed this cycle.
    size_t i = 0;
    size_t pos = 0;
    for (Lane &lane : lanes_) {
        KnnLaneJob &job = lane.knn;
        if (!job.free()) {
            lane.offer.entry = size_t(job.beats[job.next_beat].tag >> 32);
            continue;
        }
        for (; i < knn_entries_.size(); ++i, pos = 0) {
            const KnnEntry &e = knn_entries_[i];
            if (e.state == EntryState::ReadyTri &&
                pos < e.pending_cands.size())
                break;
        }
        if (i == knn_entries_.size())
            continue;
        job.beats = knnCandidateBeats(i, knn_entries_[i].pending_cands[pos]);
        job.next_beat = 0;
        lane.offer = {i, pos++};
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
 *  on until the job's last beat is accepted. Lanes are accepted in
 *  descending order, so a shared entry's pending positions (claimed
 *  ascending in publishKnn) stay valid; once an entry's leaf work has
 *  fully issued it moves on to the next frontier item (the next fetch
 *  overlaps the in-flight scores). */
void
RtUnit::acceptKnnBeat(size_t l)
{
    ++stats_.knn.distance_beats;
    KnnLaneJob &job = lanes_[l].knn;
    if (job.next_beat++ > 0)
        return;
    KnnEntry &e = knn_entries_[lanes_[l].offer.entry];
    e.pending_cands.erase(e.pending_cands.begin() +
                          ptrdiff_t(lanes_[l].offer.beat));
    ++e.inflight_cands;
    ++stats_.knn.candidates;
    if (e.pending_cands.empty())
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
void
RtUnit::compactPackets()
{
    const unsigned threshold = cfg_.packet.compact_below;
    if (threshold == 0)
        return;
    for (size_t i = 0; i < packets_.size(); ++i) {
        PacketTraversal &p = packets_[i];
        if (!p.compactable())
            continue;
        unsigned live = p.liveLanes();
        if (live == 0 || live >= threshold)
            continue;
        for (size_t j = i + 1;
             j < packets_.size() && live < threshold; ++j) {
            PacketTraversal &q = packets_[j];
            if (!q.compactable())
                continue;
            const unsigned ql = q.liveLanes();
            if (ql == 0 || ql >= threshold ||
                live + ql > cfg_.packet.width)
                continue;
            p.absorb(q);
            if (trace_)
                trace_->record({now_, trace_unit_,
                                obs::TraceEvent::PacketCompact,
                                uint64_t(j), uint64_t(i)});
            compact_hold_[i] = 0;
            compact_hold_[j] = 0;
            live += ql;
        }
    }
}

/** Packet publish: offer up to issue_width beats, scanning packets
 *  first-ready (round-robin would be fairer; first-ready is sufficient
 *  for utilization studies); one packet with several pending beats may
 *  fill several lanes in one cycle — the SIMD-style multi-ray beats of
 *  the wavefront scheduler. */
void
RtUnit::publishPacket()
{
    size_t lane = 0;
    for (size_t i = 0; i < packets_.size() && lane < lanes_.size();
         ++i) {
        PacketTraversal &p = packets_[i];
        if (!p.issueReady())
            continue;
        p.pruneDeadBeats();
        const size_t nb = p.issuableCount();
        for (size_t j = 0; j < nb && lane < lanes_.size();
             ++j, ++lane) {
            lanes_[lane].in = p.makeBeatAt(j, i);
            lanes_[lane].offer = {i, j};
        }
    }
}

void
RtUnit::publish(uint64_t)
{
    for (Lane &l : lanes_)
        l.offer = LaneOffer{};
    if (knnMode())
        publishKnn();
    else
        publishPacket();
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

RtUnit::InflightBeat
RtUnit::acceptLane(size_t l)
{
    const LaneOffer o = lanes_[l].offer;
    if (knnMode()) {
        acceptKnnBeat(l);
        return {};
    }
    return {o.entry, packets_[o.entry].takeBeatAt(o.beat)};
}

void
RtUnit::drainLane(const core::DatapathOutput &out,
                  const InflightBeat &packet)
{
    if (knnMode()) {
        handleKnnResult(out);
        return;
    }
    // The beat taken at acceptance names the result's packet, member
    // lane and triangle. A result can complete the packet's current
    // item, push children and retire lanes whose work ran out.
    PacketTraversal &p = packets_[packet.slot];
    p.handleResult(out, packet.beat);
    drainCompleted(p);
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
}

void
RtUnit::fetchArrived(size_t i)
{
    if (!knnMode()) {
        packets_[i].fetchArrived();
        return;
    }
    KnnEntry &e = knn_entries_[i];
    if (e.fetch.is_leaf) {
        ++stats_.knn.leaves_visited;
        for (uint32_t t = 0; t < e.fetch.count; ++t)
            e.pending_cands.push_back(e.fetch.index + t);
        e.state = EntryState::ReadyTri;
    } else {
        // Node expansion (the double-precision box lower bound) is
        // host-side at fetch arrival; only candidate distances consume
        // datapath beats.
        expandKnnNode(e);
        popKnnFrontier(e);
    }
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

void
RtUnit::refill()
{
    if (knnMode()) {
        for (size_t i = 0;
             i < knn_entries_.size() && !pending_knn_.empty(); ++i) {
            KnnEntry &e = knn_entries_[i];
            if (e.state != EntryState::Idle)
                continue;
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
        }
        return;
    }
    // Consecutive rays form one packet, so coherent submissions
    // (camera batches) become coherent packets.
    for (size_t i = 0; i < packets_.size() && !pending_rays_.empty();
         ++i) {
        PacketTraversal &p = packets_[i];
        if (!p.idle())
            continue;
        p.admit(pending_rays_);
        if (trace_ && packetObserved())
            trace_->record({now_, trace_unit_, obs::TraceEvent::PacketForm,
                            uint64_t(i), p.liveLanes()});
        drainCompleted(p); // empty-scene rays complete at admission
    }
}

void
RtUnit::advance(uint64_t cycle)
{
    // A finished unit idles: in chip mode the shared simulator keeps
    // ticking until the slowest unit drains, and a done unit must stop
    // accumulating cycles/idle-slot counters (its per-unit `cycles` is
    // the cycle its own rays completed). Unreachable under run(),
    // whose loop stops at outstanding_ == 0 — single-unit schedules
    // are bit-for-bit unaffected.
    if (outstanding_ == 0 && pending_rays_.empty() &&
        pending_knn_.empty())
        return;
    now_ = cycle;
    ++stats_.cycles;

    // (a) Issue, per lane: every offer is accepted (a lane never
    // back-pressures), and every issue slot lands in exactly one
    // obs::Slot bucket. Idle slots share one cause, classified lazily
    // before any lane is accepted. Accepted beats are then taken in
    // descending lane order, so a slot's remaining pending positions
    // (offered ascending by publish) stay valid.
    obs::Slot idle_cause = obs::Slot::kCount;
    std::array<const core::DatapathInput *, kMaxIssueWidth> accepted{};
    std::array<InflightBeat, kMaxIssueWidth> taken{};
    for (size_t l = 0; l < lanes_.size(); ++l) {
        const Lane &lane = lanes_[l];
        if (lane.offer.entry != kNoOffer) {
            accepted[l] = knnMode() ? &lane.knn.beats[lane.knn.next_beat]
                                    : &lane.in;
            ++stats_.datapath_beats;
            ++stats_.beats_by_op[size_t(accepted[l]->op)];
            ++stats_.slots[obs::Slot::Issued];
        } else {
            if (idle_cause == obs::Slot::kCount)
                idle_cause = classifyIdle();
            ++stats_.slots[idle_cause];
        }
    }
    for (size_t l = lanes_.size(); l-- > 0;)
        if (accepted[l])
            taken[l] = acceptLane(l);

    // (b) Per lane, drain the result due this cycle, then evaluate the
    // beat accepted in (a) (still where publish() put it) into the
    // delay line, due kPipelineLatency cycles from now. Then
    // occupancy-driven repacking at fetch boundaries, before new
    // fetches are issued for the packets involved.
    for (size_t l = 0; l < lanes_.size(); ++l) {
        Lane &lane = lanes_[l];
        if (const Lane::Pending *due = lane.dueAt(now_)) {
            drainLane(due->out, due->packet);
            lane.pop();
        }
        if (accepted[l])
            lane.push({now_ + kPipelineLatency,
                       nativeEval(*accepted[l], lane.acc, box_width_),
                       taken[l]});
    }
    compactPackets();

    // (c) Memory: retire due responses, issue new fetches. Retirement
    // is completion-ordered, not FIFO: with the cache backend a cheap
    // hit issued behind an expensive miss completes first and must not
    // be held at the queue head, or the hit latency the cache model
    // exists to expose would be masked. (Under a uniform-latency
    // backend completion order equals issue order.) One fetch serves a
    // packet's whole active mask, and the MSHR file (when enabled)
    // merges duplicate in-flight targets across slots.
    retireMshrs();
    for (auto it = mem_queue_.begin(); it != mem_queue_.end();) {
        if (it->done_cycle > now_) {
            ++it;
            continue;
        }
        if (trace_)
            trace_->record({now_, trace_unit_, obs::TraceEvent::FetchFill,
                            it->addr, uint64_t(it->entry)});
        fetchArrived(it->entry);
        it = mem_queue_.erase(it);
    }
    unsigned issued = 0;
    for (size_t i = 0; i < slotCount(); ++i) {
        if (slotState(i) != EntryState::NeedFetch)
            continue;
        if (!mshrs_.enabled() && issued >= cfg_.mem_requests_per_cycle)
            break;
        if (holdForCompaction(i))
            continue;
        if (issueFetch(i, fetchItem(i), issued))
            fetchIssued(i);
    }

    // (d) Refill free slots from the submission queue, then sample the
    // packet occupancy counter: live lanes across all packet slots,
    // emitted on change only (tracing off costs one pointer test).
    refill();
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
    mshr_refused_ = false;
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
    while (outstanding_ > 0 && stats_.cycles < max_cycles)
        sim.tick();
    return endRun();
}

} // namespace rayflex::bvh
