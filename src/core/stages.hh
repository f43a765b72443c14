/**
 * @file
 * The combinational logic of the eleven RayFlex pipeline stages.
 *
 * Each stage is the combinational logic from its input bundle to its
 * output bundle, matching the mapping of BVH-operation steps to stages
 * in Fig. 4c (baseline ops) and Fig. 6c (extended ops). Stages 2-10
 * update the SRFDS in place (fields a stage does not touch pass
 * through, the blank cells of the figures), so a single-shot
 * evaluation runs the whole chain on one bundle and the pipelined
 * model copies the bundle once per stage register:
 *
 *  stage 1  format conversion FP32 -> rec33
 *  stage 2  24 adders    box translate (24) / tri translate (9) /
 *                        euclidean difference (16)
 *  stage 3  24 mults     box t-planes (24) / tri shear products (9) /
 *                        euclidean squares (16) / cosine products (16)
 *  stage 4  40 cmps, 6(+2) adders
 *                        box slab min/max trees + hit (40) /
 *                        tri shear subtract (6) / distance reduce (8)
 *  stage 5  6 mults      tri barycentric products
 *  stage 6  3(+1) adders tri U,V,W / distance reduce (4)
 *  stage 7  3 mults      tri distance products
 *  stage 8  2 adders     tri det,T partials / distance reduce (2)
 *  stage 9  2 adders (+2 regs)
 *                        tri det,T / euclidean final reduce (1) /
 *                        cosine accumulate (2, stateful)
 *  stage 10 2 QuadSorts + 5 cmps (+1 adder, +1 reg)
 *                        box sort / tri hit test / euclidean accumulate
 *  stage 11 format conversion rec33 -> FP32
 *
 * Stages 9 and 10 of the extended pipeline hold the distance
 * accumulators; their state lives in DistanceAccumulators, owned by the
 * enclosing datapath and captured by the stage's skid-buffer logic
 * (the paper notes that programmer-supplied logic may be stateful).
 */
#ifndef RAYFLEX_CORE_STAGES_HH
#define RAYFLEX_CORE_STAGES_HH

#include "core/io_spec.hh"
#include "core/srfds.hh"

namespace rayflex::core
{

/** Accumulator registers of the extended pipeline (Section V-A).
 *  Euclidean and cosine jobs use separate registers, so multi-beat jobs
 *  of the two kinds may be freely interleaved. */
struct DistanceAccumulators
{
    Rec32 euclid = fp::recZero(); ///< stage-10 register
    Rec32 dot = fp::recZero();    ///< stage-9 register
    Rec32 norm = fp::recZero();   ///< stage-9 register
};

namespace stages
{

/** Stage 1: convert the external IO layout into the SRFDS (FP32 ->
 *  recoded). box_width is the instantiated BVH node width. */
Srfds stage1(const DatapathInput &in, unsigned box_width = kBoxesPerOp);

/** Stage 2: translation subtractions / Euclidean differences. */
void stage2(Srfds &s);

/** Stage 3: slab / shear / square / product multiplications. */
void stage3(Srfds &s);

/** Stage 4: slab compare trees and box hit; triangle shear subtracts;
 *  first distance reduction level. */
void stage4(Srfds &s);

/** Stage 5: barycentric cross products. */
void stage5(Srfds &s);

/** Stage 6: barycentric subtractions; distance reduction level 2. */
void stage6(Srfds &s);

/** Stage 7: hit-distance products. */
void stage7(Srfds &s);

/** Stage 8: determinant/distance partial sums; distance reduction
 *  level 3. */
void stage8(Srfds &s);

/** Stage 9: determinant/distance final sums; Euclidean final reduction;
 *  cosine accumulation (stateful). */
void stage9(Srfds &s, DistanceAccumulators &acc);

/** Stage 10: QuadSort; triangle hit test; Euclidean accumulation
 *  (stateful). */
void stage10(Srfds &s, DistanceAccumulators &acc);

/** Stage 11: convert the SRFDS into the external output layout
 *  (recoded -> FP32). */
DatapathOutput stage11(const Srfds &s);

} // namespace stages

/**
 * Single-shot functional evaluation of the whole datapath: applies the
 * eleven stages back to back, in place on one SRFDS, without
 * pipelining. Used by the golden cross-checks, fast workload
 * generation and as nativeEval's NaN fallback; it is the oracle the
 * engines' evaluator is pinned against. Accumulator state behaves
 * exactly as in the pipelined model (beats are observed in call order).
 */
DatapathOutput functionalEval(const DatapathInput &in,
                              DistanceAccumulators &acc,
                              unsigned box_width = kBoxesPerOp);

/**
 * The engines' evaluator: the same result as functionalEval, output and
 * accumulators bit for bit, computed with the golden host-float kernels
 * (core::golden) instead of the softfloat stage chain. Used by the RT
 * unit's issue lanes and the functional BVH and k-NN traversals. It
 * writes every field of the caller's `out`, so a reused destination
 * keeps nothing of an earlier beat.
 *
 * Host binary32 arithmetic under -ffp-contract=off rounds every add and
 * mul exactly as the datapath does, so every non-NaN result is
 * bit-exact, and whether a result is NaN follows IEEE in both models.
 * Only a NaN's payload and sign differ (x86 produces 0xFFC00000 where
 * the datapath produces kDefaultNaN and keeps first-operand payloads),
 * so a triangle beat with a NaN output, or a distance beat whose new
 * accumulator value is NaN, is re-evaluated with functionalEval from
 * the unmodified accumulators. A box beat needs no fallback: a NaN slab
 * is a miss keyed +inf in both models. Infinite inputs never fall back;
 * an infinite inv_dir is the normal case for an axis-aligned ray, and
 * infinities are exact values in both models.
 */
void nativeEval(const DatapathInput &in, DistanceAccumulators &acc,
                DatapathOutput &out, unsigned box_width = kBoxesPerOp);

/** nativeEval of one ray-triangle beat, straight from its operands:
 *  golden::rayTriangle, re-evaluated with functionalEval when an
 *  output is NaN. Writes every field of `out`. */
void nativeTriangle(const Ray &ray, const Triangle &tri,
                    TriangleResult &out);

/** nativeEval, returning the result. */
inline DatapathOutput
nativeEval(const DatapathInput &in, DistanceAccumulators &acc,
           unsigned box_width = kBoxesPerOp)
{
    DatapathOutput out;
    nativeEval(in, acc, out, box_width);
    return out;
}

} // namespace rayflex::core

#endif // RAYFLEX_CORE_STAGES_HH
