/**
 * @file
 * Random workload generation for verification and power stimulus.
 *
 * The paper verifies RayFlex with "hundreds of thousands of random test
 * cases" and measures power from testbenches of 100 random cases per
 * operating mode (Section VI). This module generates those stimuli:
 * random rays, boxes, triangles and distance vectors with controllable
 * geometry so that both hits and misses are well represented, plus
 * adversarial generators that target boundary conditions (coplanar rays,
 * shared corners, degenerate triangles, zero direction components).
 */
#ifndef RAYFLEX_CORE_WORKLOADS_HH
#define RAYFLEX_CORE_WORKLOADS_HH

#include <cstdint>
#include <random>
#include <vector>

#include "core/io_spec.hh"

namespace rayflex::core
{

/** A contiguous [begin, end) slice of a workload. */
struct BatchRange
{
    size_t begin = 0;
    size_t end = 0;

    size_t size() const { return end - begin; }

    friend bool operator==(const BatchRange &,
                           const BatchRange &) = default;
};

/**
 * Shard `total` items into contiguous batches of at most `batch_size`
 * items (the last batch may be short). The decomposition depends only
 * on (total, batch_size) - never on who executes the batches - which is
 * what makes sharded simulation results reproducible across worker
 * counts. A zero batch_size yields one batch spanning everything; a
 * zero total yields no batches.
 */
std::vector<BatchRange> sliceBatches(size_t total, size_t batch_size);

/** Slice a generated beat workload into per-batch vectors (power and
 *  throughput stimuli are replayed batch-at-a-time). */
std::vector<std::vector<DatapathInput>>
sliceWorkload(const std::vector<DatapathInput> &beats, size_t batch_size);

/** Deterministic workload generator. */
class WorkloadGen
{
  public:
    explicit WorkloadGen(uint64_t seed = 1) : rng_(seed) {}

    /** Uniform float in [lo, hi). */
    float uniform(float lo, float hi);

    /** A random ray with origin in [-s,s]^3 and a nonzero direction.
     *  About one direction component in eight is forced to exactly zero
     *  to exercise the infinite-inverse paths. */
    Ray ray(float s = 10.0f);

    /** A random box with corners in [-s,s]^3 (lo <= hi per dimension). */
    Box box(float s = 10.0f);

    /** A random triangle with vertices in [-s,s]^3. */
    Triangle triangle(float s = 10.0f);

    /** One special binary32 operand: ±0, a subnormal, ±inf, a NaN
     *  (quiet or signaling, random payload and sign) or, half the
     *  time, a normal of magnitude 2^-8..2^7. */
    F32 specialValue();

    /** A ray-box input beat with four random boxes; roughly half the
     *  rays are aimed at one of the boxes so hits are frequent. */
    DatapathInput rayBoxOp(uint64_t tag = 0);

    /** A ray-triangle input beat; roughly half the rays are aimed at a
     *  point inside the triangle. */
    DatapathInput rayTriangleOp(uint64_t tag = 0);

    /** A Euclidean-distance beat with random vectors and, occasionally,
     *  a random mask. */
    DatapathInput euclideanOp(bool reset = true, uint64_t tag = 0);

    /** A cosine-distance beat. */
    DatapathInput cosineOp(bool reset = true, uint64_t tag = 0);

    /** Adversarial ray-box beat: the ray origin is placed exactly on a
     *  box face, corner or edge, and/or direction components are zeroed,
     *  hitting the NaN corner cases of Section IV-A. */
    DatapathInput adversarialRayBoxOp(uint64_t tag = 0);

    /** Adversarial ray-triangle beat: coplanar rays, edge/vertex hits,
     *  degenerate (zero-area) triangles. */
    DatapathInput adversarialRayTriangleOp(uint64_t tag = 0);

    /** A batch of beats for one operating mode (power stimulus). */
    std::vector<DatapathInput> batch(Opcode op, size_t n);

    /** The underlying engine, for tests that need raw randomness. */
    std::mt19937_64 &engine() { return rng_; }

  private:
    std::mt19937_64 rng_;
};

} // namespace rayflex::core

#endif // RAYFLEX_CORE_WORKLOADS_HH
