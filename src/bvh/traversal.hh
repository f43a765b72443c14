/**
 * @file
 * BVH traversal driven by the RayFlex datapath operations.
 *
 * Implements the traversal loop that the RT unit performs around the
 * datapath (Fig. 3): internal nodes issue one ray-box beat testing the
 * four child boxes (the datapath returns hit flags and children sorted
 * by entry distance), leaves issue one ray-triangle beat per triangle.
 * The datapath is invoked through core::nativeEval, which returns
 * core::functionalEval's result bit for bit, so every intersection
 * decision is taken by exactly the arithmetic the hardware model
 * implements.
 */
#ifndef RAYFLEX_BVH_TRAVERSAL_HH
#define RAYFLEX_BVH_TRAVERSAL_HH

#include <optional>

#include "bvh/builder.hh"
#include "core/stages.hh"

namespace rayflex::bvh
{

/** What a traversal resolves per ray (RtUnitConfig::mode). */
enum class TraversalMode : uint8_t {
    /** Resolve the closest hit inside the ray extent. */
    Closest,
    /** Retire the ray on the first hit inside the ray extent
     *  (shadow/occlusion queries). The result record carries only the
     *  `hit` flag; t, triangle id and barycentrics stay zero. */
    Any,
};

/** Result of tracing one ray. */
struct HitRecord
{
    bool hit = false;
    float t = 0;           ///< distance along the (unnormalized) ray
    uint32_t triangle_id = 0;
    float u = 0, v = 0, w = 0; ///< normalized barycentrics

    friend bool operator==(const HitRecord &,
                           const HitRecord &) = default;
};

/** Whether an in-extent hit at distance `t` on triangle `id` replaces
 *  `best`: it is nearer, or as near on a lower id. The tie rule makes
 *  the closest hit independent of the order triangles are tested in,
 *  so every traversal model and schedule reports the same record (a
 *  ray starting on a shared vertex hits all its triangles at t = 0). */
inline bool
replacesBest(float t, uint32_t id, const HitRecord &best)
{
    return !best.hit || t < best.t ||
           (t == best.t && id < best.triangle_id);
}

/** Traversal statistics (datapath beats issued). */
struct TraversalStats
{
    uint64_t box_ops = 0;  ///< ray-box beats (4 boxes each)
    uint64_t tri_ops = 0;  ///< ray-triangle beats
    uint64_t nodes_visited = 0;
    uint64_t max_stack = 0;

    /** Accumulate another traverser's counters; counts sum, the stack
     *  high-water mark takes the maximum. Both are commutative and
     *  associative, so merge order never changes the aggregate. */
    TraversalStats &
    merge(const TraversalStats &o)
    {
        box_ops += o.box_ops;
        tri_ops += o.tri_ops;
        nodes_visited += o.nodes_visited;
        max_stack = max_stack > o.max_stack ? max_stack : o.max_stack;
        return *this;
    }

    friend bool operator==(const TraversalStats &,
                           const TraversalStats &) = default;
};

/** BVH traversal engine. */
class Traverser
{
  public:
    explicit Traverser(const Bvh4 &bvh) : bvh_(bvh) {}

    /** Find the closest hit with t inside the ray extent
     *  [t_beg, t_end], or miss. Triangles in front of t_beg are
     *  rejected exactly like triangles beyond t_end (the contract
     *  shadow and secondary rays rely on). */
    HitRecord closestHit(const core::Ray &ray);

    /** True as soon as any hit with t in [t_beg, t_end] exists
     *  (shadow-ray style early out). */
    bool anyHit(const core::Ray &ray);

    /** Statistics accumulated over all queries since construction. */
    const TraversalStats &stats() const { return stats_; }

    /**
     * Brute-force closest hit testing every triangle through the
     * datapath (no BVH). Used by the tests as the traversal oracle.
     */
    HitRecord bruteForceClosest(const core::Ray &ray) const;

  private:
    const Bvh4 &bvh_;
    TraversalStats stats_;
    core::DistanceAccumulators acc_; // unused by box/tri beats
};

/** An always-miss box for padding empty child slots: +inf corners make
 *  every slab interval empty for any ray. */
core::Box emptySlotBox();

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_TRAVERSAL_HH
