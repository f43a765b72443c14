/**
 * @file
 * Packet traversal implementation.
 *
 * Lifecycle of one work item, packet-wide: popNext() pops the shared
 * stack, applying the one-ray pruning rule per lane (a lane whose best
 * hit already beats the item's entry distance is masked off, not the
 * whole item); the unit fetches the node or leaf once for the surviving
 * mask; fetchArrived() evaluates the item — a node's four child boxes
 * against every active lane's ray at once, or a leaf's triangles
 * against every active lane's ray in leaf order — and sets the beat
 * cursor over its datapath beats (one ray-box beat per active lane, or
 * one ray-triangle beat per (triangle, active lane) pair,
 * triangle-major so each lane sees the leaf in leaf order); takeBeat()
 * walks the cursor, retireOnHit() retires an any-hit lane when its
 * first hit's beat drains and prunes its later beats; once the last
 * beat drains, completeItem() turns the node visit into child items
 * (mask = lanes whose slab test hit the child, pushed farthest-first by
 * minimum entry distance, or in the datapath's order at width 1) and
 * retires lanes whose pending work dropped to zero.
 *
 * All decisions are pure functions of the admitted rays and the BVH:
 * no clocks, no host pointers, no randomness — the packet inherits the
 * engine's determinism contract unchanged.
 */
#include "bvh/packet.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;
using fp::toBits;

PacketTraversal::PacketTraversal(const Bvh4 &bvh, unsigned width,
                                 TraversalMode mode, PacketStats *stats)
    : bvh_(bvh), width_(width), mode_(mode), stats_(stats)
{
    assert(width_ >= 1 && width_ <= kMaxPacketWidth);
}

unsigned
PacketTraversal::admit(std::deque<PendingRay> &queue)
{
    assert(state_ == State::Idle);
    n_lanes_ = 0;
    while (n_lanes_ < width_ && !queue.empty()) {
        const PendingRay pr = queue.front();
        queue.pop_front();
        Lane &ln = lanes_[n_lanes_];
        ln = Lane{};
        ln.ray = pr.ray;
        ln.slab = golden::SlabRay(pr.ray);
        ln.tri = golden::TriRay(pr.ray);
        ln.ray_id = pr.ray_id;
        ln.job = pr.job;
        ln.t_beg = fromBits(pr.ray.t_beg);
        ln.t_max = fromBits(pr.ray.t_end);
        prune_t_[n_lanes_] = std::numeric_limits<float>::infinity();
        ++n_lanes_;
    }
    retired_ = 0;
    if (n_lanes_ == 0)
        return 0;
    one_job_ = true;
    for (unsigned r = 1; r < n_lanes_; ++r)
        one_job_ = one_job_ && lanes_[r].job == lanes_[0].job;

    if (bvh_.tris.empty()) {
        // Nothing to traverse: every lane completes with a miss, the
        // packet never forms.
        for (unsigned r = 0; r < n_lanes_; ++r)
            completed_.emplace_back(lanes_[r].ray_id, HitRecord{});
        unsigned admitted = n_lanes_;
        n_lanes_ = 0;
        return admitted;
    }

    ++stats_->packets_formed;
    Item root;
    root.is_leaf = false;
    root.index = 0;
    root.mask = (1u << n_lanes_) - 1u; // n_lanes_ <= kMaxPacketWidth
    for (unsigned r = 0; r < n_lanes_; ++r) {
        root.entry[r] = 0.0f;
        pending_[r] = 1;
    }
    stack_.clear();
    stack_.push_back(root);
    popNext();
    return n_lanes_;
}

void
PacketTraversal::retireLane(unsigned lane, const HitRecord &rec)
{
    stats_->occupancy_at_retire += liveLanes(); // includes `lane`
    ++stats_->rays_retired;
    retired_ |= 1u << lane;
    completed_.emplace_back(lanes_[lane].ray_id, rec);
}

void
PacketTraversal::dropLaneFromItem(unsigned lane)
{
    if (--pending_[lane] == 0 && !(retired_ & (1u << lane)))
        retireLane(lane, lanes_[lane].best);
}

void
PacketTraversal::popNext()
{
    for (;;) {
        if (stack_.empty()) {
            // Every lane's pending work is gone, so every lane retired
            // through dropLaneFromItem/completeItem on the way here.
            state_ = State::Idle;
            n_lanes_ = 0;
            return;
        }
        const Item &it = stack_.back();
        // The one-ray pruning rule, applied per lane: a retired or
        // pruned lane leaves the item; the item survives for the rest.
        // A lane's decision reads only its own state, so the lanes to
        // drop are found first and dropped in lane order.
        uint32_t drop = it.mask & retired_;
        for (uint32_t m = it.mask & ~retired_; m; m &= m - 1) {
            const unsigned r = unsigned(std::countr_zero(m));
            if (it.entry[r] > prune_t_[r])
                drop |= 1u << r;
        }
        const uint32_t live = it.mask & ~drop;
        if (live != 0) {
            cur_ = it;
            live_ = live;
            state_ = State::NeedFetch;
        }
        stack_.pop_back();
        for (uint32_t m = drop; m; m &= m - 1)
            dropLaneFromItem(unsigned(std::countr_zero(m)));
        if (live != 0)
            return;
        // Pruned packet-wide: no fetch, no beats; pop the next item.
    }
}

void
PacketTraversal::fetchIssued()
{
    assert(state_ == State::NeedFetch);
    state_ = State::Fetching;
    const unsigned active = unsigned(std::popcount(live_));
    ++stats_->node_visits;
    stats_->active_ray_visits += active;
    stats_->fetches_shared += active - 1; // fetches scalar would issue
    if (one_job_)
        return;
    // Attribute the shared fetches: the lowest active lane "owns" the
    // fetch, and every other active lane from a DIFFERENT job shares
    // it across a job boundary. Pure accounting — the fetch itself is
    // identical whatever the tags.
    const unsigned owner = unsigned(std::countr_zero(live_));
    for (unsigned r = owner + 1; r < n_lanes_; ++r)
        if ((live_ & (1u << r)) &&
            lanes_[r].job != lanes_[owner].job)
            ++stats_->cross_job_fetches_shared;
}

void
PacketTraversal::fetchArrived()
{
    assert(state_ == State::Fetching);
    state_ = State::Issue;
    row_mask_ = live_;
    beat_lanes_ = live_;
    row_ = cur_.index;
    assert(!cur_.is_leaf || cur_.count > 0);
    rows_left_ = cur_.is_leaf ? cur_.count - 1 : 0;
    if (cur_.is_leaf)
        visitLeaf();
    else
        visitNode();
}

void
PacketTraversal::visitLeaf()
{
    // Triangle-major: each lane sees the leaf's triangles in leaf
    // order, exactly as a lone ray does, so a closest-hit lane's best
    // record ends where beat-by-beat folding would leave it. An
    // any-hit lane stops at its first in-extent hit. Each triangle is
    // tested against four live lanes at a time (golden::rayTriangle4;
    // a short group repeats its first lane), and a lane whose result
    // holds a NaN takes core::nativeTriangle's functional path.
    const bool any = mode_ == TraversalMode::Any;
    if (any)
        first_hit_.fill(kNoHit);
    uint32_t todo = live_;
    for (uint32_t t = cur_.index; t < cur_.index + cur_.count && todo; ++t) {
        const SceneTriangle &tri = bvh_.tris[t];
        const float tv[3][3] = {{tri.v0.x, tri.v0.y, tri.v0.z},
                                {tri.v1.x, tri.v1.y, tri.v1.z},
                                {tri.v2.x, tri.v2.y, tri.v2.z}};
        for (uint32_t m = todo; m;) {
            std::array<unsigned, 4> group;
            std::array<const golden::TriRay *, 4> rays;
            unsigned n = 0;
            for (; n < 4 && m; ++n, m &= m - 1) {
                group[n] = unsigned(std::countr_zero(m));
                rays[n] = &lanes_[group[n]].tri;
            }
            for (unsigned k = n; k < 4; ++k)
                rays[k] = rays[0];
            const golden::Tri4 q = golden::rayTriangle4(rays, tv);
            const golden::M32x4 nan = q.nan();
            for (unsigned k = 0; k < n; ++k) {
                const unsigned r = group[k];
                Lane &ln = lanes_[r];
                TriangleResult res;
                if (nan[k]) {
                    nativeTriangle(ln.ray, tri.toIoTriangle(), res);
                } else {
                    res.hit = q.hit[k] != 0;
                    res.t_num = toBits(q.t_num[k]);
                    res.t_den = toBits(q.det[k]);
                    res.uvw = {toBits(q.u[k]), toBits(q.v[k]),
                               toBits(q.w[k])};
                }
                if (!res.hit)
                    continue;
                const float den = fromBits(res.t_den);
                if (den == 0.0f)
                    continue;
                const float th = fromBits(res.t_num) / den;
                if (!(th >= ln.t_beg && th <= ln.t_max &&
                      replacesBest(th, tri.id, ln.best)))
                    continue;
                if (any) {
                    // Its beat retires the lane when it drains (the
                    // any-hit contract: the record carries only the
                    // flag).
                    first_hit_[r] = t;
                    todo &= ~(1u << r);
                    continue;
                }
                ln.best.hit = true;
                ln.best.t = th;
                prune_t_[r] = th;
                ln.best.triangle_id = tri.id;
                ln.best.u = fromBits(res.uvw[0]) / den;
                ln.best.v = fromBits(res.uvw[1]) / den;
                ln.best.w = fromBits(res.uvw[2]) / den;
            }
        }
    }
}

void
PacketTraversal::visitNode()
{
    const golden::Box4 box4 = bvh_.box4(cur_.index);

    // One 4-wide slab test per live lane, inverted into per-slot
    // tables: the lanes that hit each child, and the nearest of their
    // entry distances, where a later lane replaces only a strictly
    // nearer one.
    visit_.hit = {};
    visit_.nearest = golden::splat(std::numeric_limits<float>::infinity());
    for (uint32_t m = live_; m; m &= m - 1) {
        const unsigned r = unsigned(std::countr_zero(m));
        const golden::Slab4 s = golden::slab4(lanes_[r].slab, box4);
        const golden::M32x4 hit = s.hit();
        visit_.entry[r] = s.near;
        visit_.nearest = golden::blend(hit & (s.near < visit_.nearest),
                                       s.near, visit_.nearest);
        for (size_t c = 0; c < 4; ++c)
            visit_.hit[c] |= uint32_t(hit[c] & 1) << r;
        if (width_ == 1) {
            const auto recs = golden::quadSortSlots(s);
            for (size_t k = 0; k < 4; ++k)
                visit_.order[k] = recs[k].payload;
        }
    }
}

PacketBeat
PacketTraversal::takeBeat()
{
    assert(row_mask_ != 0);
    PacketBeat b;
    b.lane = uint8_t(std::countr_zero(row_mask_));
    b.retires = cur_.is_leaf && mode_ == TraversalMode::Any &&
                first_hit_[b.lane] == row_;
    row_mask_ &= row_mask_ - 1;
    nextRow();
    return b;
}

void
PacketTraversal::retireOnHit(unsigned lane)
{
    HitRecord occluded;
    occluded.hit = true;
    retireLane(lane, occluded);
    // Beats for a lane retired mid-leaf are never issued. Pruning every
    // row (not just the current one) never changes the issued-beat
    // sequence — dead beats would be skipped on their way to the front
    // anyway — and keeps pendingBeats() dense for the multi-issue
    // offer loop.
    const uint32_t keep = ~(1u << lane);
    row_mask_ &= keep;
    beat_lanes_ &= keep;
    if (beat_lanes_ == 0)
        rows_left_ = 0;
    nextRow();
}

void
PacketTraversal::completeItem()
{
    if (!cur_.is_leaf)
        mergeBoxResults();
    // The item is done for every lane that was testing it; lanes left
    // with no pending work retire out of the packet independently.
    for (uint32_t m = live_; m; m &= m - 1)
        dropLaneFromItem(unsigned(std::countr_zero(m)));
    popNext();
}

unsigned
PacketTraversal::liveLanes() const
{
    return unsigned(std::popcount(~retired_ & ((1u << n_lanes_) - 1u)));
}

void
PacketTraversal::scrubRetiredLanes()
{
    // An item's mask can still name lanes that retired after it was
    // pushed; popNext() would drop them lazily (dropLaneFromItem on a
    // retired lane only decrements its dead pending counter). Clearing
    // the bits eagerly is equivalent — and required before a retired
    // lane's slot is handed to an absorbed lane, or stale masks would
    // apply old work items to the new occupant.
    const uint32_t retired = retired_;
    if (retired == 0)
        return;
    for (Item &it : stack_)
        it.mask &= ~retired;
    cur_.mask &= ~retired;
    std::erase_if(stack_, [](const Item &it) { return it.mask == 0; });
}

void
PacketTraversal::absorb(PacketTraversal &donor)
{
    assert(compactable() && donor.compactable());
    assert(donor.completed_.empty());
    ++stats_->compactions;

    scrubRetiredLanes();
    donor.scrubRetiredLanes();

    // Map each surviving donor lane onto a free slot here: retired
    // slots are re-used first, then the packet widens toward width_.
    std::array<int, kMaxPacketWidth> remap;
    remap.fill(-1);
    unsigned next_free = 0;
    auto claimSlot = [&]() -> unsigned {
        while (next_free < n_lanes_ && !(retired_ & (1u << next_free)))
            ++next_free;
        const unsigned slot = next_free++;
        assert(slot < width_);
        return slot;
    };
    for (unsigned r = 0; r < donor.n_lanes_; ++r) {
        if (donor.retired_ & (1u << r))
            continue;
        const unsigned slot = claimSlot();
        remap[r] = int(slot);
        lanes_[slot] = donor.lanes_[r];
        pending_[slot] = donor.pending_[r];
        prune_t_[slot] = donor.prune_t_[r];
        retired_ &= ~(1u << slot);
        if (slot >= n_lanes_)
            n_lanes_ = slot + 1;
        ++stats_->lanes_repacked;
    }
    const uint32_t live = ~retired_ & ((1u << n_lanes_) - 1u);
    one_job_ = true;
    for (uint32_t m = live; m; m &= m - 1)
        one_job_ = one_job_ &&
                   lanes_[std::countr_zero(m)].job ==
                       lanes_[std::countr_zero(live)].job;

    // Translate the donor's pending work into this packet's lane
    // numbering: its stack bottom-to-top, then its current (nearest)
    // item on top. Per-lane entry distances and pending counts move
    // verbatim, so every lane still prunes and retires exactly as it
    // would have in the donor — only the fetch grouping changes. A
    // donor item naming the same node (or leaf run) as an item
    // already on this stack FUSES into it instead — lane masks are
    // disjoint, so the union visits the target once for both groups:
    // this is the shared fetch (and the beat-slot occupancy) that
    // compaction recovers after divergence.
    auto place = [&](const Item &it, uint32_t mask) {
        Item t;
        t.is_leaf = it.is_leaf;
        t.index = it.index;
        t.count = it.count;
        for (unsigned r = 0; r < donor.n_lanes_; ++r) {
            if (!(mask & (1u << r)) || remap[r] < 0)
                continue;
            t.mask |= 1u << unsigned(remap[r]);
            t.entry[unsigned(remap[r])] = it.entry[r];
        }
        if (t.mask == 0)
            return;
        // The recipient's own current item is a fuse target too — the
        // headline pairing has both packets at a fetch boundary about
        // to visit the same node, and cur_'s fetch has not issued yet,
        // so the newcomers simply join its active mask. (They skip the
        // pop-time prune check, which is conservative: a would-have-
        // been-pruned subtree can only yield strictly-worse hits.)
        if (cur_.is_leaf == t.is_leaf && cur_.index == t.index &&
            cur_.count == t.count) {
            for (unsigned r = 0; r < width_; ++r)
                if (t.mask & (1u << r))
                    cur_.entry[r] = t.entry[r];
            cur_.mask |= t.mask;
            live_ |= t.mask;
            return;
        }
        for (Item &mine : stack_) {
            if (mine.is_leaf == t.is_leaf && mine.index == t.index &&
                mine.count == t.count) {
                for (unsigned r = 0; r < width_; ++r)
                    if (t.mask & (1u << r))
                        mine.entry[r] = t.entry[r];
                mine.mask |= t.mask;
                return;
            }
        }
        stack_.push_back(t);
    };
    for (const Item &it : donor.stack_)
        place(it, it.mask);
    place(donor.cur_, donor.live_);

    donor.stack_.clear();
    donor.row_mask_ = donor.beat_lanes_ = donor.rows_left_ = 0;
    donor.n_lanes_ = 0;
    donor.state_ = State::Idle;
}

void
PacketTraversal::mergeBoxResults()
{
    const WideNode &node = bvh_.nodes[cur_.index];

    // One candidate child per slot some lane hit. Rule (b): a width-1
    // packet takes its children in the QuadSort network's nearest-first
    // order, ties as the network leaves them; wider packets order the
    // candidates by (key, slot) as they are found, an insertion into at
    // most four.
    const bool datapath_order = width_ == 1;
    struct Cand
    {
        float key; ///< nearest entry distance over member lanes
        size_t slot;
    };
    std::array<Cand, 4> cands;
    size_t n_cands = 0;
    bool split = false;
    for (size_t k = 0; k < 4; ++k) {
        const size_t slot = datapath_order ? visit_.order[k] : k;
        if (node.child[slot].kind == WideNode::Kind::Empty ||
            visit_.hit[slot] == 0)
            continue;
        if (visit_.hit[slot] != live_)
            split = true; // the children partition the packet
        // Keys are never NaN (a NaN slab is a miss keyed +inf), so
        // (key, slot) is a strict total order. Candidates arrive in
        // slot order, so a tie stays behind the lower slot.
        const float key = visit_.nearest[slot];
        size_t at = n_cands++;
        if (!datapath_order)
            for (; at > 0 && key < cands[at - 1].key; --at)
                cands[at] = cands[at - 1];
        cands[at] = {key, slot};
    }
    if (split)
        ++stats_->divergence_splits;

    // Push farthest-first so the packet-nearest child pops first.
    for (size_t i = n_cands; i-- > 0;) {
        const size_t slot = cands[i].slot;
        const WideNode::Child &child = node.child[slot];
        Item &it = stack_.emplace_back();
        it.is_leaf = child.kind == WideNode::Kind::Leaf;
        it.index = child.index;
        it.count = it.is_leaf ? child.count : 0;
        it.mask = visit_.hit[slot];
        for (uint32_t m = it.mask; m; m &= m - 1) {
            const unsigned r = unsigned(std::countr_zero(m));
            it.entry[r] = visit_.entry[r][slot];
            ++pending_[r];
        }
    }
}

} // namespace rayflex::bvh
