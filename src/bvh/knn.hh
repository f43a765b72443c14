/**
 * @file
 * Exact k-nearest-neighbor traversal over the BVH substrate.
 *
 * The paper's Section V-A case study motivates the extended datapath
 * with nearest-neighbor search: instead of reformulating k-NN as ray
 * tracing (the RTNN / Arkade line of work), the extended pipeline
 * computes exact Euclidean and cosine distances of arbitrary dimension
 * in 16-wide (Euclidean) or 8-wide (cosine) beats with multi-beat
 * accumulation. This module supplies the query engine around those
 * beats:
 *
 *   * KnnIndex — the point cloud behind the existing 4-wide BVH. Each
 *     DataPoint becomes a degenerate proxy triangle at its first three
 *     coordinates, so the unmodified builder, validator and the RT
 *     unit's synthetic node/leaf address map all apply verbatim; a
 *     leaf "triangle" is one 48-byte candidate record.
 *   * KnnTraversal — the functional engine: best-first node visits
 *     ordered by a point-to-box lower bound, a search radius that
 *     shrinks as better neighbors arrive, and candidate distances
 *     evaluated through core::nativeEval — exactly the arithmetic
 *     the pipelined datapath implements. bvh::RtUnit runs the same
 *     algorithm cycle-accurately (see RtUnit's k-NN constructor) and
 *     returns bit-identical results.
 *
 * Exactness contract: pruning only ever skips a subtree whose 3-D
 * lower bound (a true lower bound of every member's full-dimension
 * distance, since the remaining dimensions contribute nonnegatively)
 * strictly exceeds the current k-th best score with kKnnPruneSlack of
 * headroom for FP32 beat rounding — so the result set is the exact
 * k smallest (score, id) pairs, identical to the brute-force
 * core::golden::knnScan, no matter how much is pruned or in what
 * order candidates complete. The cosine metric has no valid box bound
 * in the 3-D proxy space, so cosine queries visit every leaf (still
 * exact, just unpruned); the radius-shrink early-out is Euclidean
 * only.
 */
#ifndef RAYFLEX_BVH_KNN_HH
#define RAYFLEX_BVH_KNN_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "core/golden.hh"
#include "core/io_spec.hh"
#include "core/stages.hh"

namespace rayflex::bvh
{

/** Distance metric of one k-NN query (selects the datapath opcode). */
enum class KnnMetric : uint8_t {
    /** Squared Euclidean distance, 16 dimensions per beat. */
    Euclidean,
    /** Angular distance 1 - cos(q, c), 8 dimensions per beat. The
     *  query norm is a positive per-query constant and cancels in the
     *  ranking, so the score uses only the datapath's dot and
     *  candidate-norm accumulators (core::golden::knnAngularScore). */
    Cosine,
};

/** One k-NN query: a point, how many neighbors, which metric. The
 *  point must have exactly KnnIndex::dims coordinates. */
struct KnnQuery
{
    std::vector<float> point;
    uint32_t k = 1;
    KnnMetric metric = KnnMetric::Euclidean;
};

/** A scored neighbor (shared with the golden reference). */
using KnnNeighbor = core::golden::KnnNeighbor;

/** Result of one query: the k nearest neighbors sorted ascending by
 *  (score, id) — ties at equal distance order by id, which makes the
 *  result a pure function of the point set and never of traversal or
 *  completion order. Shorter than k when the index holds fewer
 *  points. */
struct KnnResult
{
    std::vector<KnnNeighbor> neighbors;

    friend bool operator==(const KnnResult &,
                           const KnnResult &) = default;
};

/** k-NN traversal statistics. Lives inside RtUnitStats (cycle model)
 *  and stands alone for the functional KnnTraversal; all-zero for ray
 *  workloads. */
struct KnnStats
{
    uint64_t queries = 0;        ///< queries completed
    uint64_t candidates = 0;     ///< point distances evaluated
    uint64_t distance_beats = 0; ///< Euclidean + cosine beats issued
    uint64_t nodes_visited = 0;  ///< internal nodes expanded
    uint64_t leaves_visited = 0; ///< leaves fetched
    uint64_t pruned = 0;         ///< frontier items cut by the radius
    uint64_t frontier_peak = 0;  ///< priority-queue high-water mark

    /** Accumulate another run's counters: sums except the frontier
     *  high-water mark, which takes the maximum. Both are commutative
     *  and associative, so sharded aggregation is order-independent
     *  (the same contract as the rest of RtUnitStats). */
    KnnStats &
    merge(const KnnStats &o)
    {
        queries += o.queries;
        candidates += o.candidates;
        distance_beats += o.distance_beats;
        nodes_visited += o.nodes_visited;
        leaves_visited += o.leaves_visited;
        pruned += o.pruned;
        frontier_peak =
            frontier_peak > o.frontier_peak ? frontier_peak
                                            : o.frontier_peak;
        return *this;
    }

    friend bool operator==(const KnnStats &, const KnnStats &) = default;
};

/** The searchable point cloud: the unmodified 4-wide BVH over
 *  degenerate proxy triangles plus the full-dimension coordinates.
 *  bvh.tris[i].id indexes `points` (the caller's order); the reported
 *  neighbor ids are the caller's DataPoint::id labels, which must be
 *  unique for the tie-ordering contract to be meaningful. */
struct KnnIndex
{
    Bvh4 bvh;                      ///< proxy BVH; leaves are candidates
    std::vector<DataPoint> points; ///< caller order, indexed by tris.id
    unsigned dims = 0;             ///< coordinates per point
};

/** Build a k-NN index over a point cloud. Every point must have the
 *  same nonzero dimension count (throws std::invalid_argument
 *  otherwise); an empty cloud yields an empty index every query
 *  answers with zero neighbors. */
KnnIndex buildKnnIndex(std::vector<DataPoint> points,
                       const BuildParams &params = {});

/** Beats per candidate distance job. */
size_t knnBeatsPerJob(size_t dims, KnnMetric metric);

/**
 * The datapath beats of one query-vs-candidate distance job — the
 * single source of truth for beat packing (mask covers exactly the
 * valid dimensions of each chunk, reset_accumulator set on the last
 * beat only), shared by the functional traversal, the cycle-accurate
 * RT unit, examples/knn_search.cpp and the golden-pinning tests.
 */
std::vector<core::DatapathInput> knnJobBeats(const float *query,
                                             const float *candidate,
                                             size_t dims,
                                             KnnMetric metric,
                                             uint64_t tag);

/** Squared point-to-box lower bound in the 3-D proxy space, computed
 *  in double from the FP32 inputs. A true lower bound of every member
 *  point's full-dimension squared distance (missing dimensions only
 *  add), so pruning against it is exact for the Euclidean metric. */
double knnBoxLowerBound(const Aabb &box, const float *query,
                        size_t dims);

/** Relative headroom the pruning test concedes to FP32 beat rounding:
 *  the datapath's accumulated score can undershoot the real-valued
 *  distance by at most ~dims * 2^-24 relative, so a subtree is pruned
 *  only when its lower bound clears the radius by more than this. */
inline constexpr double kKnnPruneSlack = 1e-5;

/** True when a frontier item at lower bound `lb` cannot contain any
 *  neighbor better than the current k-th best score `radius`. */
inline bool
knnPrunable(double lb, float radius)
{
    return lb * (1.0 - kKnnPruneSlack) > double(radius);
}

/** One frontier entry of the best-first walk: a subtree (or leaf) and
 *  its lower bound. The insertion sequence number breaks lower-bound
 *  ties, so the visit order — and with it every statistic — is a pure
 *  function of the query, never of container internals. Shared by the
 *  functional KnnTraversal and the cycle-accurate RtUnit so the two
 *  walks cannot diverge structurally. */
struct KnnFrontierItem
{
    double lb = 0.0;
    bool is_leaf = false;
    uint32_t index = 0; ///< node index, or first-triangle index
    uint32_t count = 0; ///< triangle count when leaf
    uint64_t seq = 0;
};

/** Min-heap comparator: true when `a` is visited after `b`. */
struct KnnFrontierAfter
{
    bool
    operator()(const KnnFrontierItem &a, const KnnFrontierItem &b) const
    {
        return a.lb != b.lb ? a.lb > b.lb : a.seq > b.seq;
    }
};

/** Bounded best-k set ordered by (score, id). The kept set is a pure
 *  function of the offered multiset — offer order never matters —
 *  which is what keeps out-of-order candidate completion in the
 *  cycle-accurate unit bit-identical to the sequential scan. */
class KnnTopK
{
  public:
    KnnTopK() = default;

    /** Start a query keeping the best `k`. */
    void
    reset(size_t k)
    {
        k_ = k;
        heap_.clear();
    }

    void offer(float score, uint32_t id);

    bool full() const { return heap_.size() >= k_; }

    /** Current k-th best score: the shrinking search radius. +inf
     *  until k candidates have been seen. */
    float
    radius() const
    {
        return full() && k_ > 0
                   ? heap_.front().score
                   : std::numeric_limits<float>::infinity();
    }

    /** The kept neighbors sorted ascending by (score, id). */
    std::vector<KnnNeighbor> sorted() const;

  private:
    size_t k_ = 0;
    std::vector<KnnNeighbor> heap_; ///< max-heap on (score, id)
};

/**
 * The functional k-NN engine: same node visits, same pruning bound and
 * bit-identical scores as the cycle-accurate RT unit, without timing.
 * Statistics accumulate over all queries since construction.
 */
class KnnTraversal
{
  public:
    explicit KnnTraversal(const KnnIndex &index) : index_(index) {}

    /** Exact k nearest neighbors of one query.
     *  @throws std::invalid_argument when the query dimension does not
     *          match the index. */
    KnnResult search(const KnnQuery &query);

    const KnnStats &stats() const { return stats_; }

  private:
    const KnnIndex &index_;
    KnnStats stats_;
    core::DistanceAccumulators acc_;
};

} // namespace rayflex::bvh

#endif // RAYFLEX_BVH_KNN_HH
