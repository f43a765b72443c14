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
#include <optional>
#include <vector>

#include "core/io_spec.hh"

namespace rayflex::core::golden
{

/** Golden result of one slab test. */
struct BoxHit
{
    bool hit = false;
    F32 t_near = 0; ///< entry distance (meaningful when hit)
};

/** Golden slab ray-box test in FP32 with hardware NaN semantics. A NaN
 *  anywhere in the test is a miss with t_near = kDefaultNaN. */
BoxHit rayBox(const Ray &ray, const Box &box);

/** Golden multi-box test plus the stage-10 sort, written into every
 *  field of `out`. Slots at index >= width are reported as misses with
 *  +inf keys. The slab test and the sort network run without a branch
 *  on the data: a NaN slab is one flag that makes the slot a miss, and
 *  the compare-exchanges are selects. */
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
