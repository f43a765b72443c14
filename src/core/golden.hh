/**
 * @file
 * Golden software models (Section IV-A).
 *
 * Two layers of reference:
 *
 *  1. The *golden* model: host IEEE FP32 arithmetic mirroring the
 *     datapath's exact operation order, rounding and NaN semantics.
 *     Hardware results must match it bit-for-bit; this is the ground
 *     truth the paper verifies against with hundreds of thousands of
 *     random cases.
 *
 *  2. The *geometric reference*: double-precision, algorithm-independent
 *     implementations used by property tests to check that the golden
 *     model itself is geometrically sane away from degenerate inputs.
 */
#ifndef RAYFLEX_CORE_GOLDEN_HH
#define RAYFLEX_CORE_GOLDEN_HH

#include <cmath>
#include <limits>
#include <optional>
#include <vector>

#include "core/io_spec.hh"
#include "core/quadsort.hh"

namespace rayflex::core::golden
{

/** Golden result of one slab test. */
struct BoxHit
{
    bool hit = false;
    F32 t_near = 0; ///< entry distance (meaningful when hit)
};

/** Four binary32 lanes, one per child slot of a 4-wide node. A GCC/Clang
 *  vector extension type: the slab test below is one 4-wide operation
 *  on any target, with no intrinsics and no target flags. */
typedef float F32x4 __attribute__((vector_size(16)));
/** A lane mask of F32x4: all ones where the lane's predicate holds. */
typedef int32_t M32x4 __attribute__((vector_size(16)));

/** Per lane, `a` where `m` is set, else `b`: a mask blend, so signed
 *  zeros and NaN payloads pass through unchanged. Blending on a
 *  compare of the same operands, as in slab4's selects, compiles to
 *  one min or max instruction where the target has one that keeps the
 *  select's operand order (SSE's minps/maxps). */
inline F32x4
blend(M32x4 m, F32x4 a, F32x4 b)
{
    return m ? a : b;
}

/** `x` in every lane. */
inline F32x4
splat(float x)
{
    return F32x4{x, x, x, x};
}

/** A ray's slab-test operands as host floats: its slab form, converted
 *  once per ray. */
struct SlabRay
{
    float org[3] = {}, inv[3] = {};
    float t_beg = 0, t_end = 0;
    bool nan = false; ///< t_beg or t_end is NaN

    SlabRay() = default;
    explicit SlabRay(const Ray &ray);
};

/** Four boxes in slab form: each corner coordinate of the four slots
 *  as one vector, converted once per node. */
struct Box4
{
    F32x4 lo[3], hi[3];

    Box4() = default;
    /** Slots 0..3 from boxes[0..3]. */
    explicit Box4(const Box *boxes);
};

/** One ray's slab test against four boxes, per slot. */
struct Slab4
{
    F32x4 near; ///< entry distance
    F32x4 far;  ///< exit distance
    M32x4 nan;  ///< all ones where a NaN reached the slot's test

    /** All ones where the slot hits: no NaN and near <= far. */
    M32x4 hit() const { return ~nan & (near <= far); }
    /** Stage 10's sort key per slot, as F32 bits: the entry distance
     *  on a hit, else +inf. A hit's distance is never NaN, and the host
     *  `>` orders every other key exactly as stage 10's fp::gtF32. */
    M32x4
    key() const
    {
        return (M32x4)blend(hit(), near,
                            splat(std::numeric_limits<float>::infinity()));
    }
};

/**
 * The slab test of stages 2-4 for one ray against four boxes, as one
 * 4-wide operation with no branch on the data. The hardware's min/max
 * propagate a NaN operand (minProp/maxProp); here the folds are mask
 * blends in the operand order of the selects `a > b ? b : a` and
 * `a < b ? b : a`, which agree with them whenever no operand is NaN,
 * and a NaN anywhere in a slot's test sets that slot's lane of one
 * mask instead. A NaN near or far distance is a miss in both models,
 * so the mask is all the verdict needs. The one slab body of the
 * golden model: rayBox, rayBoxN and a packet's node visit run it.
 */
inline Slab4
slab4(const SlabRay &r, const Box4 &b)
{
    const auto selMin = [](F32x4 a, F32x4 c) { return blend(a > c, c, a); };
    const auto selMax = [](F32x4 a, F32x4 c) { return blend(a < c, c, a); };
    F32x4 near_d[3], far_d[3];
    const int32_t ray_nan = -int32_t(r.nan);
    M32x4 nan = {ray_nan, ray_nan, ray_nan, ray_nan};
    for (int d = 0; d < 3; ++d) {
        // Same op order as stages 2-4: translate, multiply, swap.
        const F32x4 org = splat(r.org[d]), inv = splat(r.inv[d]);
        const F32x4 t0 = (b.lo[d] - org) * inv;
        const F32x4 t1 = (b.hi[d] - org) * inv;
        nan |= (t0 != t0) | (t1 != t1);
        near_d[d] = selMin(t0, t1);
        far_d[d] = selMax(t0, t1);
    }
    return {selMax(selMax(near_d[0], near_d[1]),
                   selMax(near_d[2], splat(r.t_beg))),
            selMin(selMin(far_d[0], far_d[1]),
                   selMin(far_d[2], splat(r.t_end))),
            nan};
}

/** The four slots of a slab test as stage 10's sort records (key(),
 *  slot), sorted by the QuadSort network on the host `>`: the
 *  datapath's child order, misses last. */
std::array<SortRecord<uint8_t>, kBoxesPerOp> quadSortSlots(const Slab4 &s);

/** Golden slab ray-box test in FP32 with hardware NaN semantics. A NaN
 *  anywhere in the test is a miss with t_near = kDefaultNaN. */
BoxHit rayBox(const Ray &ray, const Box &box);

/** Golden multi-box test plus the stage-10 sort, written into every
 *  field of `out`. Slots at index >= width are reported as misses with
 *  +inf keys. The slab tests run four slots at a time through slab4,
 *  and the sort network's compare-exchanges are selects, so nothing
 *  branches on the data. */
void rayBoxN(const Ray &ray, const std::array<Box, kMaxBoxesPerOp> &boxes,
             unsigned width, BoxResult &out);

/** rayBoxN, returning the result. */
inline BoxResult
rayBoxN(const Ray &ray, const std::array<Box, kMaxBoxesPerOp> &boxes,
        unsigned width)
{
    BoxResult out;
    rayBoxN(ray, boxes, width, out);
    return out;
}

/** Golden 4-box test (the RDNA3 default width). */
inline BoxResult
rayBox4(const Ray &ray, const std::array<Box, kMaxBoxesPerOp> &boxes)
{
    return rayBoxN(ray, boxes, kBoxesPerOp);
}

/** Golden watertight ray-triangle test in FP32, written into every
 *  field of `out`. */
void rayTriangle(const Ray &ray, const Triangle &tri, TriangleResult &out);

/** A ray's triangle-test operands as host floats, its origin read
 *  along its permuted axes (kx, ky, kz): converted once per ray. */
struct TriRay
{
    float org[3] = {};   ///< origin[kx], origin[ky], origin[kz]
    float shear[3] = {}; ///< Sx, Sy, Sz
    uint8_t k[3] = {0, 1, 2}; ///< kx, ky, kz

    TriRay() = default;
    explicit TriRay(const Ray &ray);
};

/** rayTriangle's results for four rays, one per lane, as host floats:
 *  the barycentric numerators, t_den (det) and t_num, and the hit
 *  mask. */
struct Tri4
{
    F32x4 u, v, w, det, t_num;
    M32x4 hit;

    /** All ones where a NaN reached a result: there nativeTriangle
     *  takes the functional path, not rayTriangle's. */
    M32x4
    nan() const
    {
        return (u != u) | (v != v) | (w != w) | (det != det) |
               (t_num != t_num);
    }
};

/** rayTriangle for the rays `r[0..3]` against one triangle, its
 *  vertices `tri` as host floats, as 4-wide operations in the same
 *  operation order: each lane is bit-identical to rayTriangle's. */
Tri4 rayTriangle4(const std::array<const TriRay *, 4> &r,
                  const float (&tri)[3][3]);

/** rayTriangle, returning the result. */
inline TriangleResult
rayTriangle(const Ray &ray, const Triangle &tri)
{
    TriangleResult out;
    rayTriangle(ray, tri, out);
    return out;
}

/** Golden 16-wide Euclidean beat partial sum (same reduction tree). */
F32 euclideanBeat(const std::array<F32, kEuclideanWidth> &a,
                  const std::array<F32, kEuclideanWidth> &b, uint16_t mask);

/** Golden 8-wide cosine beat partial sums (dot, norm). */
struct CosineBeat
{
    F32 dot = 0;
    F32 norm = 0;
};
CosineBeat cosineBeat(const std::array<F32, kEuclideanWidth> &a,
                      const std::array<F32, kEuclideanWidth> &b,
                      uint16_t mask);

// ----- unrounded-intermediate variants (Section III-F study) -----
//
// RayFlex rounds to binary32 after every addition/multiplication; the
// paper flags "forgo rounding at some or all stages" as an unexplored
// trade for area/frequency. These variants model the no-intermediate-
// rounding datapath: identical operation order, but intermediates keep
// extra precision (modelled with double) and a single rounding to FP32
// happens at the output converter. Used by bench_ablation_rounding to
// quantify how far the unrounded results drift from the rounded
// ("golden") ones - the verification complication the paper predicts.

/** Slab test with unrounded intermediates. */
BoxHit rayBoxUnrounded(const Ray &ray, const Box &box);

/** Watertight triangle test with unrounded intermediates. */
TriangleResult rayTriangleUnrounded(const Ray &ray, const Triangle &tri);

/** Euclidean beat partial sum with unrounded intermediates. */
F32 euclideanBeatUnrounded(const std::array<F32, kEuclideanWidth> &a,
                           const std::array<F32, kEuclideanWidth> &b,
                           uint16_t mask);

// ----- k-NN brute-force reference (Section V-A case study) -----
//
// Golden-model layer for the k-NN query engines: the per-candidate
// score walks the vectors in datapath beat order (euclideanBeat /
// cosineBeat chunks accumulated one FP32 addition per beat), so the
// pipelined datapath, the functional traversal and this brute-force
// scan all agree bit-for-bit — knnScan is the ground truth every k-NN
// result in the repo is pinned against.

/** A scored neighbor: the metric score and the caller's point label. */
struct KnnNeighbor
{
    float score = 0;
    uint32_t id = 0;

    friend bool operator==(const KnnNeighbor &,
                           const KnnNeighbor &) = default;
};

/** Strict total order on neighbors: ascending (score, id). Ids are
 *  unique per point set, so ties at equal distance resolve
 *  deterministically and every top-k set has exactly one sorted form. */
inline bool
knnCloser(const KnnNeighbor &a, const KnnNeighbor &b)
{
    return a.score < b.score || (a.score == b.score && a.id < b.id);
}

/** One candidate point offered to knnScan: a borrowed coordinate
 *  pointer (dims floats) and its label. */
struct KnnCandidate
{
    const float *coords = nullptr;
    uint32_t id = 0;
};

/** Angular score from the datapath's two cosine accumulators. The
 *  query norm is a positive per-query constant, so dropping it
 *  preserves the neighbor ranking; a zero-norm candidate scores a
 *  sentinel 2 (beyond any true angular distance). Shared by golden,
 *  functional and cycle-accurate paths so the score arithmetic cannot
 *  diverge. */
inline float
knnAngularScore(float dot, float norm)
{
    return norm > 0.0f ? 1.0f - dot / std::sqrt(norm) : 2.0f;
}

/** Golden distance of one query/candidate pair: beat-ordered FP32
 *  partial sums, one accumulation per beat — bit-identical to the
 *  extended pipeline evaluating the same job. Squared Euclidean
 *  distance, or the knnAngularScore when `cosine` is set. */
float knnScore(const float *query, const float *candidate, size_t dims,
               bool cosine);

/** Brute-force exact k-NN: score every candidate with knnScore, sort
 *  ascending by (score, id), keep the first min(k, n). */
std::vector<KnnNeighbor> knnScan(const float *query, size_t dims,
                                 const std::vector<KnnCandidate> &candidates,
                                 size_t k, bool cosine);

// ----- double-precision geometric references (property tests) -----

/** Double-precision slab test; returns entry distance when the ray
 *  segment [t_beg, t_end] intersects the box, nullopt otherwise.
 *  Boundary cases are resolved with closed intervals. */
std::optional<double> refRayBox(const Ray &ray, const Box &box);

/** Double-precision Moller-Trumbore style test with backface culling;
 *  returns t when hit. */
std::optional<double> refRayTriangle(const Ray &ray, const Triangle &tri);

/** Double-precision masked squared Euclidean distance. */
double refEuclidean(const std::array<F32, kEuclideanWidth> &a,
                    const std::array<F32, kEuclideanWidth> &b,
                    uint16_t mask);

} // namespace rayflex::core::golden

#endif // RAYFLEX_CORE_GOLDEN_HH
