/**
 * @file
 * Ray-creation precompute and IO convenience constructors.
 */
#include "core/io_spec.hh"

#include "core/config.hh"

namespace rayflex::core
{

using namespace rayflex::fp;

const char *
registerPolicyName(RegisterPolicy p)
{
    switch (p) {
      case RegisterPolicy::DisjointPerOp: return "disjoint-per-op";
      case RegisterPolicy::SharedUnionAligned: return "shared-aligned";
      case RegisterPolicy::SharedUnionWorstCase: return "shared-worst";
    }
    return "unknown";
}

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::RayBox: return "ray-box";
      case Opcode::RayTriangle: return "ray-triangle";
      case Opcode::Euclidean: return "euclidean";
      case Opcode::Cosine: return "cosine";
    }
    return "unknown";
}

namespace
{

/**
 * a / b in host binary32, which is correctly rounded with subnormals
 * kept, so only a NaN quotient's payload can differ from the datapath's
 * divF32; a NaN is recomputed in softfloat (the native value path's
 * rule).
 */
F32
divide(F32 a, F32 b)
{
    const float q = fromBits(a) / fromBits(b);
    return q != q ? divF32(a, b) : toBits(q);
}

} // namespace

Ray
makeRay(const std::array<F32, 3> &origin, const std::array<F32, 3> &dir,
        F32 t_beg, F32 t_end)
{
    Ray r;
    r.origin = origin;
    r.dir = dir;
    r.t_beg = t_beg;
    r.t_end = t_end;

    constexpr F32 one = 0x3F800000u; // 1.0f
    for (int d = 0; d < 3; ++d)
        r.inv_dir[d] = divide(one, dir[d]);

    // kz: the dimension where |dir| is maximal (2 comparisons). Host
    // compares equal geF32 for every input, NaN included.
    const float ax = fromBits(dir[0] & 0x7FFFFFFFu);
    const float ay = fromBits(dir[1] & 0x7FFFFFFFu);
    const float az = fromBits(dir[2] & 0x7FFFFFFFu);
    uint8_t kz = 2;
    if (ax >= ay && ax >= az)
        kz = 0;
    else if (ay >= az)
        kz = 1;
    uint8_t kx = (kz + 1) % 3;
    uint8_t ky = (kx + 1) % 3;
    // Swap kx/ky to preserve the winding direction of triangles when the
    // dominant component is negative (1 comparison).
    if (signF32(dir[kz]) && !isZeroF32(dir[kz]))
        std::swap(kx, ky);
    r.kx = kx;
    r.ky = ky;
    r.kz = kz;

    // Shear constants (2 more divisions, done here so the datapath has
    // none); Sz = 1 / dir[kz] is inv_dir[kz].
    r.shear[0] = divide(dir[kx], dir[kz]); // Sx
    r.shear[1] = divide(dir[ky], dir[kz]); // Sy
    r.shear[2] = r.inv_dir[kz];            // Sz
    return r;
}

Ray
makeRay(float ox, float oy, float oz, float dx, float dy, float dz,
        float t_beg, float t_end)
{
    return makeRay({toBits(ox), toBits(oy), toBits(oz)},
                   {toBits(dx), toBits(dy), toBits(dz)}, toBits(t_beg),
                   toBits(t_end));
}

Box
makeBox(float lx, float ly, float lz, float hx, float hy, float hz)
{
    Box b;
    b.lo = {toBits(lx), toBits(ly), toBits(lz)};
    b.hi = {toBits(hx), toBits(hy), toBits(hz)};
    return b;
}

Triangle
makeTriangle(float ax, float ay, float az, float bx, float by, float bz,
             float cx, float cy, float cz)
{
    Triangle t;
    t.v[0] = {toBits(ax), toBits(ay), toBits(az)};
    t.v[1] = {toBits(bx), toBits(by), toBits(bz)};
    t.v[2] = {toBits(cx), toBits(cy), toBits(cz)};
    return t;
}

} // namespace rayflex::core
