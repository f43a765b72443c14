/**
 * @file
 * RayFlex IO specification (Section III-A of the paper).
 *
 * The interface follows the RDNA3 IMAGE_BVH_INTERSECT_RAY instruction:
 * each beat carries one opcode, one ray, one triangle and four boxes;
 * depending on the opcode either the triangle or the box data is valid.
 * The ray format follows RDNA3 (origin, direction inverse, extent) plus
 * the six extra values the paper adds: the 3-dimensional k (axis
 * permutation) and S (shear constants) of the watertight triangle test,
 * pre-computed at ray-creation time on the general-purpose GPU core so
 * that RayFlex needs no dividers.
 *
 * The extended datapath (case study, Section V-A) adds two 16-element
 * FP32 vectors, a 16-bit dimension mask and a reset_accumulator flag on
 * the input side, and the Euclidean/angular accumulator outputs with
 * their reset echoes on the output side.
 */
#ifndef RAYFLEX_CORE_IO_SPEC_HH
#define RAYFLEX_CORE_IO_SPEC_HH

#include <array>
#include <cstdint>

#include "fp/float32.hh"

namespace rayflex::core
{

using fp::F32;

/** Operation selected by each input beat. */
enum class Opcode : uint8_t {
    RayBox,      ///< four parallel ray-box slab tests + QuadSort
    RayTriangle, ///< watertight ray-triangle test
    Euclidean,   ///< 16-wide squared-Euclidean-distance partial sum
    Cosine,      ///< 8-wide dot-product and norm partial sums
};

/** Number of distinct opcodes (used for per-op statistics tables). */
inline constexpr size_t kNumOpcodes = 4;

/** Human-readable opcode name. */
const char *opcodeName(Opcode op);

/**
 * A ray in the RDNA3-style format used by RayFlex.
 *
 * k and shear are properties of the ray only (they involve divisions) and
 * are produced by makeRay() at ray-creation time, mirroring the paper's
 * decision to keep division out of the datapath.
 */
struct Ray
{
    std::array<F32, 3> origin{};  ///< ray origin point
    std::array<F32, 3> dir{};     ///< ray direction vector
    std::array<F32, 3> inv_dir{}; ///< element-wise reciprocal of dir
    F32 t_beg = 0;                ///< start of the ray extent
    F32 t_end = 0;                ///< end of the ray extent
    uint8_t kx = 0;               ///< permuted x axis index
    uint8_t ky = 1;               ///< permuted y axis index
    uint8_t kz = 2;               ///< axis where |dir| is maximal
    std::array<F32, 3> shear{};   ///< watertight shear constants Sx,Sy,Sz
};

/** An axis-aligned bounding box: minimum and maximum corner. */
struct Box
{
    std::array<F32, 3> lo{};
    std::array<F32, 3> hi{};
};

/** A triangle given by three vertices in counter-clockwise front-face
 *  order (the datapath applies backface culling). */
struct Triangle
{
    std::array<std::array<F32, 3>, 3> v{};
};

/** Default boxes tested per ray-box beat (RDNA3 4-wide BVH node). The
 *  paper stresses that the IO interface is decoupled from the datapath
 *  so other node widths are easy to model - e.g. the 6-wide BVH used by
 *  Mesa; DatapathConfig::box_width selects the instantiated width. */
inline constexpr size_t kBoxesPerOp = 4;

/** Maximum supported BVH node width. */
inline constexpr size_t kMaxBoxesPerOp = 8;

/** Width of one Euclidean-distance beat. */
inline constexpr size_t kEuclideanWidth = 16;

/** Width of one cosine-distance beat. */
inline constexpr size_t kCosineWidth = 8;

/** One input beat of the datapath. */
struct DatapathInput
{
    Opcode op = Opcode::RayBox;
    uint64_t tag = 0; ///< opaque user tag carried to the output

    Ray ray;                              ///< valid for box/triangle ops
    Triangle tri;                         ///< valid for RayTriangle
    std::array<Box, kMaxBoxesPerOp> boxes{}; ///< valid for RayBox

    // --- extended-pipeline fields (Section V-A) ---
    std::array<F32, kEuclideanWidth> vec_a{}; ///< query coordinates
    std::array<F32, kEuclideanWidth> vec_b{}; ///< candidate coordinates
    uint16_t mask = 0xFFFF; ///< set bits keep the dimension, clear drop it
    bool reset_accumulator = false; ///< set on the last beat of a job
};

/** Result of the four parallel ray-box tests, sorted by entry distance. */
struct BoxResult
{
    /** Hit flag per input box slot (unsorted). Slots beyond the
     *  datapath's box width always read as misses. */
    std::array<bool, kMaxBoxesPerOp> hit{};
    /** Input slot indices ("child pointers") sorted by order of
     *  intersection; misses sort after all hits. */
    std::array<uint8_t, kMaxBoxesPerOp> order{};
    /** Entry distance per sorted position (+inf for misses). */
    std::array<F32, kMaxBoxesPerOp> sorted_dist{};

    friend bool operator==(const BoxResult &, const BoxResult &) = default;
};

/**
 * Result of the watertight ray-triangle test. The intersection distance
 * is returned as a numerator/denominator pair (t = t_num / t_den); the
 * division happens on the GPU core, not in the datapath.
 */
struct TriangleResult
{
    bool hit = false;
    F32 t_num = 0;                ///< distance numerator (T)
    F32 t_den = 0;                ///< distance denominator (determinant)
    std::array<F32, 3> uvw{};     ///< scaled barycentric coordinates

    friend bool operator==(const TriangleResult &,
                           const TriangleResult &) = default;
};

/** One output beat of the datapath, 11 cycles after its input beat. */
struct DatapathOutput
{
    Opcode op = Opcode::RayBox;
    uint64_t tag = 0;

    BoxResult box;      ///< valid for RayBox
    TriangleResult tri; ///< valid for RayTriangle

    // --- extended-pipeline fields ---
    F32 euclidean_accumulator = 0; ///< running squared distance
    bool euclidean_reset = false;  ///< reset_accumulator echoed (11 cyc)
    F32 angular_dot_product = 0;   ///< running dot-product accumulator
    F32 angular_norm = 0;          ///< running candidate-norm accumulator
    bool angular_reset = false;    ///< reset_accumulator echoed (11 cyc)

    /** Field-wise equality. F32 is the raw bit pattern, so NaN payloads
     *  and signed zeros compare bit-exactly. */
    friend bool operator==(const DatapathOutput &,
                           const DatapathOutput &) = default;
};

/**
 * Ray-creation routine (the shaded steps 1-3 of Fig. 4b, performed on the
 * GPU core): computes the inverse direction, the winding-preserving axis
 * permutation k, and the shear constants S. All arithmetic is IEEE FP32
 * with round-to-nearest-even and subnormals kept: host binary32, with a
 * NaN quotient recomputed by fp::divF32 so its bits are the datapath's.
 *
 * @param origin Ray origin.
 * @param dir    Ray direction (need not be normalized, must be nonzero).
 * @param t_beg  Start of ray extent.
 * @param t_end  End of ray extent.
 */
Ray makeRay(const std::array<F32, 3> &origin, const std::array<F32, 3> &dir,
            F32 t_beg, F32 t_end);

/** Convenience: makeRay from host floats. */
Ray makeRay(float ox, float oy, float oz, float dx, float dy, float dz,
            float t_beg, float t_end);

/** Convenience: build a Box from host floats. */
Box makeBox(float lx, float ly, float lz, float hx, float hy, float hz);

/** Convenience: build a Triangle from host floats. */
Triangle makeTriangle(float ax, float ay, float az, float bx, float by,
                      float bz, float cx, float cy, float cz);

} // namespace rayflex::core

#endif // RAYFLEX_CORE_IO_SPEC_HH
