/**
 * @file
 * Packet/wavefront traversal: coherent ray packets with shared BVH
 * fetches.
 *
 * The paper models only the intersection-test datapath and defers warp
 * management to the enclosing RT unit. PacketTraversal is that unit's
 * one ray scheduler: up to PacketConfig::width rays share ONE
 * traversal stack and ONE MemoryModel fetch per node visited — every
 * member ray consumes the fetched data — with per-ray active masks
 * tracking divergence. The datapath interface is unchanged: a packet
 * visiting a node issues one ray-box beat per active ray (SIMD-style
 * multi-ray AABB beats, pipelined back-to-back), and a leaf issues the
 * usual ray-triangle beats per (triangle, active ray) pair. The beats
 * carry only timing: an item is evaluated once, when its fetch
 * arrives. A node visit is one 4-wide slab test per active ray against
 * the node's four child boxes (core::golden::slab4); a leaf visit tests
 * every active ray against each triangle in leaf order, where a
 * closest-hit lane folds its hits into its best record and an any-hit
 * lane records its first in-extent hit. Neither operand can change in
 * between: a packet stays in its issue phase until every beat has
 * drained. The beats themselves are counters: a row mask, a lane mask
 * and the rows left say which (triangle, lane) beats are still to
 * issue, and only an any-hit lane's first hit changes the packet when
 * its beat drains (the lane retires there and its later beats are
 * pruned).
 *
 * A width-1 packet is the scalar schedule — one independent ray per
 * ray-buffer slot, a full node fetch per ray — under two rules keyed
 * on the width: (a) a leaf issues its next triangle beat only after
 * the previous result drained (one beat in flight per ray), and (b)
 * hit children are pushed in the datapath's own QuadSort order, which
 * is not stable on distance ties, instead of the (distance, slot)
 * order a wider packet sorts its members' children into.
 *
 * Contract: the packet width changes timing and memory traffic, never
 * hits. Every width produces bit-identical hit records: each ray
 * prunes by its own condition (entry > best.t masks the ray off a work
 * item instead of popping it), accepts triangles by the same per-ray
 * test, and sees a leaf's triangles in leaf order. Rays retire out of
 * a packet independently: a ray whose pending work drops to zero
 * completes even while its packet continues traversing for the other
 * lanes.
 *
 * PacketStats counts the wavefront-level quantities (packets formed,
 * occupancy, fetches shared, divergence splits) and merges with the
 * same commutative sums as every other stats struct, so sharded
 * engine runs stay bit-identical at every worker count. The RT unit
 * reports it (and the Packet* trace events) for packets of two or
 * more rays only.
 */
#ifndef RAYFLEX_BVH_PACKET_HH
#define RAYFLEX_BVH_PACKET_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "bvh/traversal.hh"
#include "core/golden.hh"
#include "core/io_spec.hh"

namespace rayflex::bvh
{

/** Widest packet the mask/lane bookkeeping supports. */
inline constexpr unsigned kMaxPacketWidth = 16;

/** One ray awaiting admission into a packet (the RT unit's refill
 *  queue element). `job` tags which submission stream the ray belongs
 *  to (sim::StreamingService packs rays of several concurrent jobs
 *  into one batch); the tag NEVER influences packet formation or
 *  traversal — packets admit rays strictly in queue order whatever
 *  their tags, which is what keeps job-tagged runs bit-identical to
 *  untagged ones — it only attributes shared fetches to
 *  PacketStats::cross_job_fetches_shared. */
struct PendingRay
{
    core::Ray ray;
    uint32_t ray_id = 0;
    uint32_t job = 0;
};

/** One datapath beat of a packet's current work item: which member
 *  lane it tests and whether its drain retires that lane (an any-hit
 *  lane's first in-extent hit). The RT unit holds the accepted beat in
 *  its per-datapath-lane in-flight queue and reads it back when it
 *  drains, so result routing never depends on cross-lane arrival order
 *  (the multi-issue datapath drains several lanes per cycle). */
struct PacketBeat
{
    uint8_t lane = 0;
    bool retires = false; ///< drain calls retireOnHit(lane)
};

/** Packet-mode configuration of the RT unit. */
struct PacketConfig
{
    /** Rays grouped per packet. 1 (the default) is the scalar
     *  one-ray-per-slot schedule (rules (a) and (b) above); widths
     *  2..kMaxPacketWidth share a stack and each node fetch across
     *  the member rays. */
    unsigned width = 1;

    /** Occupancy-driven compaction threshold. 0 (the default)
     *  disables compaction, preserving the pre-compaction schedule
     *  bit-for-bit. When > 0, a packet whose live occupancy has
     *  fallen below this value repacks at its next fetch boundary
     *  with the surviving lanes of another below-threshold packet
     *  (combined occupancy permitting), recovering beat slots lost to
     *  divergence and freeing the donor slot to admit fresh rays.
     *  Hit records never change — only the schedule does. */
    unsigned compact_below = 0;

    friend bool operator==(const PacketConfig &,
                           const PacketConfig &) = default;
};

/** Per-run packet counters. All fields are sums of uint64 counts, so
 *  merging is commutative and associative like RtUnitStats: aggregates
 *  over many batches are identical no matter which worker ran which
 *  batch or in what order merges happen. All-zero at width 1 (the
 *  scalar schedule). */
struct PacketStats
{
    uint64_t packets_formed = 0;   ///< packets admitted from the queue
    uint64_t node_visits = 0;      ///< shared work items fetched
    uint64_t active_ray_visits = 0;///< sum of active lanes over visits
    uint64_t fetches_shared = 0;   ///< fetches avoided vs scalar:
                                   ///< sum(active lanes - 1) per visit
    /** Subset of fetches_shared where the sharing lanes carry
     *  different PendingRay::job tags — one job's coherent rays
     *  filling another's packets (cross-job packing). Zero whenever
     *  every admitted ray carries the same tag (every non-streaming
     *  path). */
    uint64_t cross_job_fetches_shared = 0;
    uint64_t divergence_splits = 0;///< node visits whose hit children
                                   ///< partition the active mask
    uint64_t rays_retired = 0;     ///< lanes retired from packets
    uint64_t occupancy_at_retire = 0; ///< unretired lanes (incl. self)
                                      ///< summed at each retirement
    uint64_t compactions = 0;      ///< donor packets absorbed
    uint64_t lanes_repacked = 0;   ///< live lanes moved by compaction

    /** Mean active lanes per shared node visit. */
    double
    avgOccupancy() const
    {
        return node_visits ? double(active_ray_visits) /
                                 double(node_visits)
                           : 0.0;
    }

    /** Mean packet occupancy observed at ray retirement. */
    double
    avgOccupancyAtRetire() const
    {
        return rays_retired ? double(occupancy_at_retire) /
                                  double(rays_retired)
                            : 0.0;
    }

    PacketStats &
    merge(const PacketStats &o)
    {
        packets_formed += o.packets_formed;
        node_visits += o.node_visits;
        active_ray_visits += o.active_ray_visits;
        fetches_shared += o.fetches_shared;
        cross_job_fetches_shared += o.cross_job_fetches_shared;
        divergence_splits += o.divergence_splits;
        rays_retired += o.rays_retired;
        occupancy_at_retire += o.occupancy_at_retire;
        compactions += o.compactions;
        lanes_repacked += o.lanes_repacked;
        return *this;
    }

    friend bool operator==(const PacketStats &,
                           const PacketStats &) = default;
};

/**
 * One ray packet: the shared-stack traversal state machine for up to
 * PacketConfig::width rays. The RT unit owns a vector of these and
 * drives them through four service points — memory
 * (needsFetch/fetchIssued/fetchArrived), datapath issue
 * (pendingBeats/beatOp/takeBeat, up to issue_width beats per cycle),
 * datapath drain (retireOnHit/completeItem) and refill (admit) — and
 * reads the packet's state only after one of them changed it. Between work
 * items (compactable()) a divergence-thinned packet can absorb()
 * another's surviving lanes, so the beat slots divergence emptied are
 * recovered instead of riding along dead.
 *
 * The class is a pure function of the admitted rays and the shared BVH
 * (no clocks, no host pointers in decisions), which is what lets the
 * engine keep its bit-identical-across-worker-counts contract in
 * packet mode. Its issue phase keeps no beat counts of its own: the
 * unit counts the item's beats issued and outstanding (from
 * pendingBeats() at fetch arrival) and calls back only for the drains
 * that change the packet — an any-hit lane's first hit (retireOnHit)
 * and the item's last beat (completeItem).
 */
class PacketTraversal
{
  public:
    PacketTraversal(const Bvh4 &bvh, unsigned width, TraversalMode mode,
                    PacketStats *stats);

    /** True when the packet holds no rays and can admit new ones. */
    bool idle() const { return state_ == State::Idle; }

    /** Form a packet from up to width rays at the front of `queue`.
     *  Rays against an empty BVH complete immediately (miss records
     *  land in completed()). Job tags ride along per lane; they never
     *  affect which rays are grouped. @return rays admitted. */
    unsigned
    admit(std::deque<PendingRay> &queue);

    // ---- memory service ------------------------------------------------
    /** True when the packet's current work item awaits its fetch. */
    bool needsFetch() const { return state_ == State::NeedFetch; }
    /** Current work item the fetch targets (valid in NeedFetch). */
    bool fetchIsLeaf() const { return cur_.is_leaf; }
    uint32_t fetchIndex() const { return cur_.index; }
    uint32_t fetchCount() const { return cur_.count; }
    /** The fetch left for memory; counts the visit into PacketStats. */
    void fetchIssued();
    /** The fetch returned: the item is evaluated here and its beats
     *  become pending. A node visit tests every live lane's ray against
     *  its four child boxes, into nodeVisit(); a leaf visit tests every
     *  live lane's ray against each triangle in leaf order, four lanes
     *  at a time (core::golden::rayTriangle4, or core::nativeTriangle
     *  for a lane whose result holds a NaN), into the lane's best record
     *  (closest-hit) or its first in-extent hit, acted on when that
     *  beat drains (any-hit). */
    void fetchArrived();

    // ---- datapath service ----------------------------------------------
    /** True when the packet is in its issue phase (fetched data
     *  present; beats pending and/or results outstanding). */
    bool issueReady() const { return state_ == State::Issue; }
    /** Beats of the current item not yet taken: one per live lane for
     *  a node, one per (triangle, live lane) for a leaf. The unit
     *  counts them down as it takes beats and re-reads them after
     *  retireOnHit(). */
    uint32_t
    pendingBeats() const
    {
        return uint32_t(std::popcount(row_mask_)) +
               rows_left_ * uint32_t(std::popcount(beat_lanes_));
    }
    /** The opcode of the current item's beats. */
    core::Opcode
    beatOp() const
    {
        return cur_.is_leaf ? core::Opcode::RayTriangle
                            : core::Opcode::RayBox;
    }
    /** The next pending beat was accepted by a datapath lane. Beats go
     *  triangle-major (a leaf's row per triangle, its live lanes in
     *  ascending order), so each lane sees the leaf in leaf order; a
     *  cycle's offers are a prefix of the pending beats and every
     *  offer is accepted, so the unit takes them front first. Only an
     *  any-hit beat can change the packet when it drains, so the unit
     *  takes beats from any-hit packets only and counts the rest
     *  itself. @return the beat, which rides the lane's delay line
     *  beside its result. */
    PacketBeat takeBeat();
    /** An any-hit lane's first in-extent hit drained (a beat whose
     *  `retires` is set): the lane retires with the occluded flag and
     *  its beats not yet taken are pruned, never issued. */
    void retireOnHit(unsigned lane);
    /** Every beat of the current item was taken and has drained: turn
     *  a node visit into child items, retire the lanes whose pending
     *  work ran out, and pop the next item. */
    void completeItem();

    /** One node visit's slab results, written when the node's fetch
     *  arrives and read when its last box beat drains (completeItem). */
    struct NodeVisit
    {
        /** Per child slot, the live lanes whose ray hit its box. */
        std::array<uint32_t, 4> hit{};
        /** Per child slot, the nearest entry distance of those lanes
         *  (taken in lane order, +inf when none hit). */
        core::golden::F32x4 nearest;
        /** Per live lane, its entry distance to each child slot
         *  (meaningful where the lane hit). */
        std::array<core::golden::F32x4, kMaxPacketWidth> entry;
        /** Width 1 only: the slots in the datapath's QuadSort order,
         *  misses last (rule (b)). */
        std::array<uint8_t, 4> order{};
    };
    /** The current node visit (valid in the issue phase of a node). */
    const NodeVisit &nodeVisit() const { return visit_; }

    // ---- occupancy-driven compaction -----------------------------------
    /** Lanes admitted and not yet retired. */
    unsigned liveLanes() const;
    /** True when the packet sits at a fetch boundary (NeedFetch): no
     *  beats pending or in flight, so its lanes and stack can be
     *  repacked without disturbing any in-flight state. */
    bool compactable() const { return state_ == State::NeedFetch; }
    /** Move `donor`'s live lanes and their pending work into this
     *  packet's free lane slots (the caller checks the combined live
     *  count fits the width). Both packets must be compactable().
     *  Donor becomes Idle and can admit fresh rays. Per-lane
     *  traversal state moves verbatim, so hit records are unchanged —
     *  only the schedule (and the shared-fetch grouping) moves. */
    void absorb(PacketTraversal &donor);

    // ---- retirement ----------------------------------------------------
    /** Rays completed since the last drain, as (ray_id, record) pairs
     *  in retirement order. The unit moves these into its results. */
    std::vector<std::pair<uint32_t, HitRecord>> &
    completed()
    {
        return completed_;
    }

  private:
    enum class State : uint8_t {
        Idle,      ///< no rays admitted
        NeedFetch, ///< work item chosen, fetch not yet issued
        Fetching,  ///< waiting on node/leaf memory
        Issue,     ///< beats pending issue and/or results outstanding
    };

    /** One shared unit of traversal work with its member-lane mask. */
    struct Item
    {
        bool is_leaf = false;
        uint32_t index = 0; ///< node index or first triangle
        uint32_t count = 0; ///< triangle count when leaf
        uint32_t mask = 0;  ///< lanes this item belongs to
        /** Per-lane child entry distance (for scalar-equivalent
         *  pruning); only lanes in `mask` are meaningful. */
        std::array<float, kMaxPacketWidth> entry{};
    };

    /** One ray slot of the packet. */
    struct Lane
    {
        core::Ray ray;
        core::golden::SlabRay slab; ///< the ray's slab form
        core::golden::TriRay tri;   ///< the ray's triangle-test form
        uint32_t ray_id = 0;
        uint32_t job = 0; ///< submission stream (stats only)
        HitRecord best;
        float t_beg = 0;
        float t_max = 0;
    };

    void popNext();
    /** Test every live lane's ray against the current node's four
     *  child boxes into visit_ (one 4-wide slab test per lane). */
    void visitNode();
    /** Test every live lane's ray against the current leaf's
     *  triangles, in leaf order (closest-hit: fold into best; any-hit:
     *  record the first in-extent hit in first_hit_). */
    void visitLeaf();
    /** Push the visited node's hit children as stack items. */
    void mergeBoxResults();
    /** Step the beat cursor to the next row once the current one is
     *  fully taken. */
    void
    nextRow()
    {
        if (row_mask_ == 0 && rows_left_ != 0) {
            row_mask_ = beat_lanes_;
            ++row_;
            --rows_left_;
        }
    }
    void dropLaneFromItem(unsigned lane);
    void retireLane(unsigned lane, const HitRecord &rec);
    /** Clear retired lanes out of this packet's stack masks (and
     *  cur_), so their lane slots can be re-used by absorbed lanes. */
    void scrubRetiredLanes();

    // The issue-phase beat cursor first: takeBeat() touches nothing
    // else. Rows are the leaf's triangles (a node item has one row);
    // the beats not yet taken are row_mask_'s lanes in row row_, then
    // beat_lanes_'s lanes in each of the rows_left_ rows after it.
    uint32_t row_mask_ = 0;   ///< lanes of row row_ not yet taken
    uint32_t beat_lanes_ = 0; ///< lanes with beats in the later rows
    uint32_t rows_left_ = 0;  ///< rows after row row_
    uint32_t row_ = 0;        ///< current row: triangle index of a leaf
    /** Any-hit leaf: per lane, the triangle of its first in-extent hit
     *  (kNoHit when none); its beat retires the lane. */
    std::array<uint32_t, kMaxPacketWidth> first_hit_{};
    static constexpr uint32_t kNoHit = ~uint32_t(0);

    const Bvh4 &bvh_;
    unsigned width_;
    TraversalMode mode_;
    PacketStats *stats_;
    /** Every admitted lane carries the same job tag, so no shared fetch
     *  crosses a job boundary (fetchIssued skips the attribution). */
    bool one_job_ = true;

    State state_ = State::Idle;
    std::vector<Item> stack_; ///< shared stack, nearest on top
    Item cur_;                ///< item being fetched/tested
    uint32_t live_ = 0;       ///< cur_'s mask minus retired/pruned lanes
    unsigned n_lanes_ = 0;
    /** Lanes whose result is recorded (dead lanes), among n_lanes_. */
    uint32_t retired_ = 0;
    /** Per lane, the stack items (+ current) naming it. */
    std::array<uint32_t, kMaxPacketWidth> pending_{};
    /** Per lane, the entry distance beyond which it prunes an item:
     *  its best hit's t, or +inf before a hit. */
    std::array<float, kMaxPacketWidth> prune_t_{};
    std::array<Lane, kMaxPacketWidth> lanes_;

    NodeVisit visit_;

    std::vector<std::pair<uint32_t, HitRecord>> completed_;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_PACKET_HH
