/**
 * @file
 * Implementation of the eleven pipeline stage functions.
 *
 * Every floating-point operation here corresponds to one functional-unit
 * activation in the RTL: an adder (addRec/subRec), a multiplier (mulRec)
 * or a comparator (compareRec and the min/max select trees). Rounding to
 * binary32 precision happens inside every addRec/subRec/mulRec call,
 * matching the paper's per-operation rounding (Section III-F).
 */
#include "core/stages.hh"

#include "core/golden.hh"
#include "core/quadsort.hh"

namespace rayflex::core
{

using namespace rayflex::fp;

namespace stages
{

Srfds
stage1(const DatapathInput &in, unsigned box_width)
{
    Srfds s;
    s.box_width = static_cast<uint8_t>(box_width);
    s.op = in.op;
    s.tag = in.tag;
    s.reset_accumulator = in.reset_accumulator;
    s.mask = in.mask;

    for (int d = 0; d < 3; ++d) {
        s.org[d] = recode(in.ray.origin[d]);
        s.inv[d] = recode(in.ray.inv_dir[d]);
        s.shear[d] = recode(in.ray.shear[d]);
    }
    s.t_beg = recode(in.ray.t_beg);
    s.t_end = recode(in.ray.t_end);
    s.kx = in.ray.kx;
    s.ky = in.ray.ky;
    s.kz = in.ray.kz;

    switch (in.op) {
      case Opcode::RayBox:
        for (size_t b = 0; b < box_width; ++b) {
            for (int d = 0; d < 3; ++d) {
                s.box_lo[b][d] = recode(in.boxes[b].lo[d]);
                s.box_hi[b][d] = recode(in.boxes[b].hi[d]);
            }
        }
        break;
      case Opcode::RayTriangle:
        for (int v = 0; v < 3; ++v)
            for (int d = 0; d < 3; ++d)
                s.tri_v[v][d] = recode(in.tri.v[v][d]);
        break;
      case Opcode::Euclidean:
        for (size_t i = 0; i < kEuclideanWidth; ++i) {
            s.dvec[i] = recode(in.vec_a[i]);
            s.dvec_b[i] = recode(in.vec_b[i]);
        }
        break;
      case Opcode::Cosine:
        for (size_t i = 0; i < kCosineWidth; ++i) {
            s.dvec[i] = recode(in.vec_a[i]);
            s.dvec_b[i] = recode(in.vec_b[i]);
        }
        break;
    }
    return s;
}

void
stage2(Srfds &s)
{
    switch (s.op) {
      case Opcode::RayBox:
        // Translate box corners to the ray origin (24 subtractions at
        // the default width: 6 per box).
        for (size_t b = 0; b < s.box_width; ++b) {
            for (int d = 0; d < 3; ++d) {
                s.box_lo[b][d] = subRec(s.box_lo[b][d], s.org[d]);
                s.box_hi[b][d] = subRec(s.box_hi[b][d], s.org[d]);
            }
        }
        break;
      case Opcode::RayTriangle:
        // Translate triangle vertices to the ray origin
        // (9 subtractions).
        for (int v = 0; v < 3; ++v)
            for (int d = 0; d < 3; ++d)
                s.tri_v[v][d] = subRec(s.tri_v[v][d], s.org[d]);
        break;
      case Opcode::Euclidean:
        // Element-wise difference; masked dimensions contribute zero
        // (16 subtractions).
        for (size_t i = 0; i < kEuclideanWidth; ++i) {
            if (s.mask & (1u << i))
                s.dvec[i] = subRec(s.dvec[i], s.dvec_b[i]);
            else
                s.dvec[i] = recZero();
        }
        break;
      case Opcode::Cosine:
        break; // nothing at this stage
    }
}

void
stage3(Srfds &s)
{
    switch (s.op) {
      case Opcode::RayBox:
        // Slab t-values: translated corner times inverse direction
        // (24 multiplications). A zero corner against an infinite
        // inverse direction produces NaN here, which later poisons the
        // compare trees into a miss (Section IV-A).
        for (size_t b = 0; b < s.box_width; ++b) {
            for (int d = 0; d < 3; ++d) {
                s.box_lo[b][d] = mulRec(s.box_lo[b][d], s.inv[d]);
                s.box_hi[b][d] = mulRec(s.box_hi[b][d], s.inv[d]);
            }
        }
        break;
      case Opcode::RayTriangle:
        // Shear products S * v[kz] per vertex (9 multiplications).
        for (int v = 0; v < 3; ++v) {
            Rec32 vkz = s.tri_v[v][s.kz];
            for (int c = 0; c < 3; ++c)
                s.shear_prod[v][c] = mulRec(s.shear[c], vkz);
        }
        break;
      case Opcode::Euclidean:
        // Squares of the differences (16 multiplications, all squarers).
        for (size_t i = 0; i < kEuclideanWidth; ++i)
            s.dvec[i] = mulRec(s.dvec[i], s.dvec[i]);
        break;
      case Opcode::Cosine:
        // Dot products a*b and candidate squares b*b; masked dimensions
        // contribute zero (16 multiplications, 8 of them squarers).
        for (size_t i = 0; i < kCosineWidth; ++i) {
            if (s.mask & (1u << i)) {
                s.cos_dot[i] = mulRec(s.dvec[i], s.dvec_b[i]);
                s.cos_sq[i] = mulRec(s.dvec_b[i], s.dvec_b[i]);
            } else {
                s.cos_dot[i] = recZero();
                s.cos_sq[i] = recZero();
            }
        }
        break;
    }
}

void
stage4(Srfds &s)
{
    switch (s.op) {
      case Opcode::RayBox: {
        // Per box: 3 swap comparators + two balanced 4-input select
        // trees (3 comparators each) + 1 hit comparator = 10; 40 total
        // at the default 4-wide configuration.
        for (size_t b = 0; b < s.box_width; ++b) {
            Rec32 near_d[3], far_d[3];
            for (int d = 0; d < 3; ++d) {
                near_d[d] = minPropRec(s.box_lo[b][d], s.box_hi[b][d]);
                far_d[d] = maxPropRec(s.box_lo[b][d], s.box_hi[b][d]);
            }
            Rec32 near = maxPropRec(maxPropRec(near_d[0], near_d[1]),
                                    maxPropRec(near_d[2], s.t_beg));
            Rec32 far = minPropRec(minPropRec(far_d[0], far_d[1]),
                                   minPropRec(far_d[2], s.t_end));
            s.box_near[b] = near;
            s.box_far[b] = far;
            s.box_hit[b] = leRec(near, far);
        }
        break;
      }
      case Opcode::RayTriangle:
        // Shear the permuted x/y coordinates (6 subtractions) and pick
        // up the scaled z coordinates.
        for (int v = 0; v < 3; ++v) {
            s.txy[v][0] = subRec(s.tri_v[v][s.kx], s.shear_prod[v][0]);
            s.txy[v][1] = subRec(s.tri_v[v][s.ky], s.shear_prod[v][1]);
            s.tz[v] = s.shear_prod[v][2];
        }
        break;
      case Opcode::Euclidean:
        // Reduction 16 -> 8 (8 additions; needs the 2 extra extended
        // adders on top of the 6 baseline ones).
        for (int i = 0; i < 8; ++i)
            s.dvec[i] = addRec(s.dvec[2 * i], s.dvec[2 * i + 1]);
        break;
      case Opcode::Cosine:
        // Reductions 8 -> 4 on both lanes (8 additions).
        for (int i = 0; i < 4; ++i) {
            s.cos_dot[i] = addRec(s.cos_dot[2 * i], s.cos_dot[2 * i + 1]);
            s.cos_sq[i] = addRec(s.cos_sq[2 * i], s.cos_sq[2 * i + 1]);
        }
        break;
    }
}

void
stage5(Srfds &s)
{
    if (s.op == Opcode::RayTriangle) {
        // Barycentric cross products (6 multiplications).
        const Rec32 ax = s.txy[0][0], ay = s.txy[0][1];
        const Rec32 bx = s.txy[1][0], by = s.txy[1][1];
        const Rec32 cx = s.txy[2][0], cy = s.txy[2][1];
        s.uvw_prod[0] = mulRec(cx, by);
        s.uvw_prod[1] = mulRec(cy, bx);
        s.uvw_prod[2] = mulRec(ax, cy);
        s.uvw_prod[3] = mulRec(ay, cx);
        s.uvw_prod[4] = mulRec(bx, ay);
        s.uvw_prod[5] = mulRec(by, ax);
    }
}

void
stage6(Srfds &s)
{
    switch (s.op) {
      case Opcode::RayTriangle:
        // U, V, W (3 subtractions).
        s.uvw[0] = subRec(s.uvw_prod[0], s.uvw_prod[1]);
        s.uvw[1] = subRec(s.uvw_prod[2], s.uvw_prod[3]);
        s.uvw[2] = subRec(s.uvw_prod[4], s.uvw_prod[5]);
        break;
      case Opcode::Euclidean:
        // Reduction 8 -> 4 (4 additions; needs the 1 extra extended
        // adder).
        for (int i = 0; i < 4; ++i)
            s.dvec[i] = addRec(s.dvec[2 * i], s.dvec[2 * i + 1]);
        break;
      case Opcode::Cosine:
        // Reductions 4 -> 2 on both lanes (4 additions).
        for (int i = 0; i < 2; ++i) {
            s.cos_dot[i] = addRec(s.cos_dot[2 * i], s.cos_dot[2 * i + 1]);
            s.cos_sq[i] = addRec(s.cos_sq[2 * i], s.cos_sq[2 * i + 1]);
        }
        break;
      default:
        break;
    }
}

void
stage7(Srfds &s)
{
    if (s.op == Opcode::RayTriangle) {
        // Distance products (3 multiplications).
        for (int i = 0; i < 3; ++i)
            s.t_prod[i] = mulRec(s.uvw[i], s.tz[i]);
    }
}

void
stage8(Srfds &s)
{
    switch (s.op) {
      case Opcode::RayTriangle:
        // First halves of determinant and distance (2 additions).
        s.det_partial = addRec(s.uvw[0], s.uvw[1]);
        s.t_partial = addRec(s.t_prod[0], s.t_prod[1]);
        break;
      case Opcode::Euclidean:
        // Reduction 4 -> 2 (2 additions).
        s.dvec[0] = addRec(s.dvec[0], s.dvec[1]);
        s.dvec[1] = addRec(s.dvec[2], s.dvec[3]);
        break;
      case Opcode::Cosine:
        // Final beat sums on both lanes (2 additions).
        s.cos_dot[0] = addRec(s.cos_dot[0], s.cos_dot[1]);
        s.cos_sq[0] = addRec(s.cos_sq[0], s.cos_sq[1]);
        break;
      default:
        break;
    }
}

void
stage9(Srfds &s, DistanceAccumulators &acc)
{
    switch (s.op) {
      case Opcode::RayTriangle:
        // Determinant and distance numerator complete (2 additions).
        s.det = addRec(s.det_partial, s.uvw[2]);
        s.t_num = addRec(s.t_partial, s.t_prod[2]);
        break;
      case Opcode::Euclidean:
        // Beat partial sum completes (1 addition).
        s.dvec[0] = addRec(s.dvec[0], s.dvec[1]);
        break;
      case Opcode::Cosine: {
        // Accumulate both lanes (2 additions into the 2 extra stage-9
        // registers). The output reports the post-accumulation value;
        // reset clears the registers for the next job.
        Rec32 new_dot = addRec(acc.dot, s.cos_dot[0]);
        Rec32 new_norm = addRec(acc.norm, s.cos_sq[0]);
        s.dot_out = new_dot;
        s.norm_out = new_norm;
        s.angular_reset_out = s.reset_accumulator;
        acc.dot = s.reset_accumulator ? recZero() : new_dot;
        acc.norm = s.reset_accumulator ? recZero() : new_norm;
        break;
      }
      default:
        break;
    }
}

void
stage10(Srfds &s, DistanceAccumulators &acc)
{
    switch (s.op) {
      case Opcode::RayBox: {
        // Sort the boxes by entry distance; misses (and NaN distances,
        // which imply miss) are keyed +inf and sort last. The default
        // 4-wide width uses the 5-comparator QuadSort network; other
        // widths use the generic Batcher network.
        std::array<SortRecord<uint8_t>, kMaxBoxesPerOp> recs;
        for (size_t b = 0; b < kMaxBoxesPerOp; ++b) {
            F32 key = (b < s.box_width && s.box_hit[b])
                          ? decode(s.box_near[b])
                          : kPosInf;
            if (isNaNF32(key))
                key = kPosInf;
            recs[b] = {key, static_cast<uint8_t>(b)};
        }
        sortNetwork(recs, s.box_width);
        for (size_t i = 0; i < kMaxBoxesPerOp; ++i) {
            s.box_order[i] = recs[i].payload;
            s.box_sorted_dist[i] = recode(recs[i].key);
        }
        break;
      }
      case Opcode::RayTriangle: {
        // Hit test (5 comparisons, depth 1). Backface culling requires a
        // strictly positive determinant; coplanar rays give det == 0 and
        // therefore miss. NaN in any operand fails its comparison.
        const Rec32 zero = recZero();
        bool u_ok = geRec(s.uvw[0], zero);
        bool v_ok = geRec(s.uvw[1], zero);
        bool w_ok = geRec(s.uvw[2], zero);
        bool det_ok = gtRec(s.det, zero);
        bool t_ok = geRec(s.t_num, zero);
        s.tri_hit = u_ok && v_ok && w_ok && det_ok && t_ok;
        break;
      }
      case Opcode::Euclidean: {
        // Accumulate the beat partial sum (1 addition into the stage-10
        // register).
        Rec32 new_acc = addRec(acc.euclid, s.dvec[0]);
        s.euclid_out = new_acc;
        s.euclid_reset_out = s.reset_accumulator;
        acc.euclid = s.reset_accumulator ? recZero() : new_acc;
        break;
      }
      default:
        break;
    }
}

DatapathOutput
stage11(const Srfds &s)
{
    DatapathOutput out;
    out.op = s.op;
    out.tag = s.tag;

    switch (s.op) {
      case Opcode::RayBox:
        for (size_t b = 0; b < kMaxBoxesPerOp; ++b) {
            out.box.hit[b] = b < s.box_width && s.box_hit[b];
            out.box.order[b] = s.box_order[b];
            out.box.sorted_dist[b] = decode(s.box_sorted_dist[b]);
        }
        break;
      case Opcode::RayTriangle:
        out.tri.hit = s.tri_hit;
        out.tri.t_num = decode(s.t_num);
        out.tri.t_den = decode(s.det);
        for (int i = 0; i < 3; ++i)
            out.tri.uvw[i] = decode(s.uvw[i]);
        break;
      case Opcode::Euclidean:
        out.euclidean_accumulator = decode(s.euclid_out);
        out.euclidean_reset = s.euclid_reset_out;
        break;
      case Opcode::Cosine:
        out.angular_dot_product = decode(s.dot_out);
        out.angular_norm = decode(s.norm_out);
        out.angular_reset = s.angular_reset_out;
        break;
    }
    return out;
}

} // namespace stages

DatapathOutput
functionalEval(const DatapathInput &in, DistanceAccumulators &acc,
               unsigned box_width)
{
    using namespace stages;
    Srfds s = stage1(in, box_width);
    stage2(s);
    stage3(s);
    stage4(s);
    stage5(s);
    stage6(s);
    stage7(s);
    stage8(s);
    stage9(s, acc);
    stage10(s, acc);
    return stage11(s);
}

void
nativeTriangle(const Ray &ray, const Triangle &tri, TriangleResult &out)
{
    golden::rayTriangle(ray, tri, out);
    if (isNaNF32(out.t_num) || isNaNF32(out.t_den) ||
        isNaNF32(out.uvw[0]) || isNaNF32(out.uvw[1]) ||
        isNaNF32(out.uvw[2])) {
        // A triangle beat reads neither the accumulators nor the box
        // width.
        DatapathInput in;
        in.op = Opcode::RayTriangle;
        in.ray = ray;
        in.tri = tri;
        DistanceAccumulators acc;
        out = functionalEval(in, acc).tri;
    }
}

void
nativeEval(const DatapathInput &in, DistanceAccumulators &acc,
           DatapathOutput &out, unsigned box_width)
{
    // Every field is written: the fields of the other opcodes read as
    // functionalEval leaves them, zero.
    out.op = in.op;
    out.tag = in.tag;
    if (in.op != Opcode::RayBox)
        out.box = {};
    if (in.op != Opcode::RayTriangle)
        out.tri = {};
    out.euclidean_accumulator = 0;
    out.euclidean_reset = false;
    out.angular_dot_product = 0;
    out.angular_norm = 0;
    out.angular_reset = false;
    switch (in.op) {
      case Opcode::RayBox:
        golden::rayBoxN(in.ray, in.boxes, box_width, out.box);
        break;
      case Opcode::RayTriangle:
        nativeTriangle(in.ray, in.tri, out.tri);
        break;
      case Opcode::Euclidean: {
        // Stage 10's accumulation, one host add into the register.
        const F32 sum = toBits(
            fromBits(decode(acc.euclid)) +
            fromBits(golden::euclideanBeat(in.vec_a, in.vec_b, in.mask)));
        if (isNaNF32(sum)) {
            out = functionalEval(in, acc, box_width);
            break;
        }
        out.euclidean_accumulator = sum;
        out.euclidean_reset = in.reset_accumulator;
        acc.euclid = in.reset_accumulator ? recZero() : recode(sum);
        break;
      }
      case Opcode::Cosine: {
        // Stage 9's accumulation, one host add per register.
        const golden::CosineBeat beat =
            golden::cosineBeat(in.vec_a, in.vec_b, in.mask);
        const F32 dot =
            toBits(fromBits(decode(acc.dot)) + fromBits(beat.dot));
        const F32 norm =
            toBits(fromBits(decode(acc.norm)) + fromBits(beat.norm));
        if (isNaNF32(dot) || isNaNF32(norm)) {
            out = functionalEval(in, acc, box_width);
            break;
        }
        out.angular_dot_product = dot;
        out.angular_norm = norm;
        out.angular_reset = in.reset_accumulator;
        acc.dot = in.reset_accumulator ? recZero() : recode(dot);
        acc.norm = in.reset_accumulator ? recZero() : recode(norm);
        break;
      }
    }
}

} // namespace rayflex::core
