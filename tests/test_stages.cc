/**
 * @file
 * Unit tests of the individual pipeline stage functions: each stage's
 * contract (which SRFDS fields it consumes and produces, per opcode) is
 * pinned in isolation, independent of the assembled datapath. This is
 * the model-level equivalent of per-module RTL tests.
 */
#include <gtest/gtest.h>

#include <random>

#include "core/stages.hh"
#include "core/workloads.hh"

using namespace rayflex::core;
using namespace rayflex::fp;

namespace
{

float
recToFloat(Rec32 r)
{
    return fromBits(decode(r));
}

/** A stage-1-converted ray-box beat with simple geometry. */
Srfds
boxSrfds()
{
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.ray = makeRay(1, 2, 3, 1, 0.5f, 0.25f, 0, 100);
    in.boxes[0] = makeBox(2, 3, 4, 6, 7, 8);
    in.boxes[1] = makeBox(-9, -9, -9, -8, -8, -8);
    in.boxes[2] = makeBox(0, 0, 0, 1, 1, 1);
    in.boxes[3] = makeBox(5, 5, 5, 6, 6, 6);
    return stages::stage1(in);
}

/** A stage-1-converted ray-triangle beat. */
Srfds
triSrfds()
{
    DatapathInput in;
    in.op = Opcode::RayTriangle;
    in.ray = makeRay(0.5f, 0.5f, -2, 0, 0, 1, 0, 100);
    in.tri = makeTriangle(0, 0, 5, 0, 2, 5, 2, 0, 5);
    return stages::stage1(in);
}

} // namespace

TEST(Stage1, ConvertsRayFieldsToRecoded)
{
    Srfds s = boxSrfds();
    EXPECT_FLOAT_EQ(recToFloat(s.org[0]), 1.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.org[1]), 2.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.org[2]), 3.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.inv[0]), 1.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.inv[1]), 2.0f);  // 1/0.5
    EXPECT_FLOAT_EQ(recToFloat(s.inv[2]), 4.0f);  // 1/0.25
    EXPECT_FLOAT_EQ(recToFloat(s.t_beg), 0.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.t_end), 100.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.box_lo[0][0]), 2.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.box_hi[0][2]), 8.0f);
}

TEST(Stage1, ComputesAxisPermutation)
{
    // Dominant +z direction: kz = 2, no winding swap.
    Srfds s = triSrfds();
    EXPECT_EQ(s.kz, 2);
    EXPECT_EQ(s.kx, 0);
    EXPECT_EQ(s.ky, 1);

    // Dominant -x direction: kz = 0 with kx/ky swapped for winding.
    DatapathInput in;
    in.op = Opcode::RayTriangle;
    in.ray = makeRay(0, 0, 0, -2, 0.5f, 0.5f, 0, 10);
    Srfds s2 = stages::stage1(in);
    EXPECT_EQ(s2.kz, 0);
    EXPECT_EQ(s2.kx, 2); // swapped (would be 1 unswapped)
    EXPECT_EQ(s2.ky, 1);
}

TEST(Stage2, TranslatesBoxCornersOnly)
{
    Srfds s = boxSrfds();
    stages::stage2(s);
    // box0.lo - origin = (1, 1, 1); box0.hi - origin = (5, 5, 5).
    for (int d = 0; d < 3; ++d) {
        EXPECT_FLOAT_EQ(recToFloat(s.box_lo[0][d]), 1.0f);
        EXPECT_FLOAT_EQ(recToFloat(s.box_hi[0][d]), 5.0f);
    }
    // Ray fields pass through untouched.
    EXPECT_FLOAT_EQ(recToFloat(s.org[0]), 1.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.inv[2]), 4.0f);
}

TEST(Stage2, TranslatesTriangleVertices)
{
    Srfds s = triSrfds();
    stages::stage2(s);
    EXPECT_FLOAT_EQ(recToFloat(s.tri_v[0][0]), -0.5f); // 0 - 0.5
    EXPECT_FLOAT_EQ(recToFloat(s.tri_v[0][2]), 7.0f);  // 5 - (-2)
    EXPECT_FLOAT_EQ(recToFloat(s.tri_v[1][1]), 1.5f);  // 2 - 0.5
}

TEST(Stage3, ComputesSlabDistances)
{
    Srfds s = boxSrfds();
    stages::stage2(s);
    stages::stage3(s);
    // t for box0 x: (2-1)*1 = 1 and (6-1)*1 = 5.
    EXPECT_FLOAT_EQ(recToFloat(s.box_lo[0][0]), 1.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.box_hi[0][0]), 5.0f);
    // y: (3-2)*2 = 2 and (7-2)*2 = 10.
    EXPECT_FLOAT_EQ(recToFloat(s.box_lo[0][1]), 2.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.box_hi[0][1]), 10.0f);
}

TEST(Stage3, ZeroTimesInfinityPoisonsSlab)
{
    // Origin exactly on a slab plane with a zero direction component.
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.ray = makeRay(2, 1, 1, 0, 1, 0, 0, 100); // dir.x = 0, org.x = 2
    in.boxes[0] = makeBox(2, 0, 0, 4, 2, 2);    // lo.x == org.x
    Srfds s = stages::stage1(in);
    stages::stage2(s);
    stages::stage3(s);
    EXPECT_TRUE(isNaNRec(s.box_lo[0][0])); // 0 * inf
}

TEST(Stage4, BoxIntervalAndHit)
{
    Srfds s = boxSrfds();
    stages::stage2(s);
    stages::stage3(s);
    stages::stage4(s);
    // Box 0 intervals per dim: x [1,5], y [2,10], z [4,20]:
    // near = max(1,2,4,t_beg=0) = 4; far = min(5,10,20,100) = 5.
    EXPECT_FLOAT_EQ(recToFloat(s.box_near[0]), 4.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.box_far[0]), 5.0f);
    EXPECT_TRUE(s.box_hit[0]);
    // Box 1 lies behind the origin: miss.
    EXPECT_FALSE(s.box_hit[1]);
    // Box 2 is behind too (origin at (1,2,3), box at [0,1]^3): miss.
    EXPECT_FALSE(s.box_hit[2]);
}

TEST(Stage4, TriangleShearIsApplied)
{
    Srfds s = triSrfds();
    stages::stage2(s);
    stages::stage3(s);
    stages::stage4(s);
    // Axis-aligned +z ray: Sx = Sy = 0, Sz = 1, so the sheared x/y are
    // the translated x/y and z is the translated z.
    EXPECT_FLOAT_EQ(recToFloat(s.txy[0][0]), -0.5f);
    EXPECT_FLOAT_EQ(recToFloat(s.txy[0][1]), -0.5f);
    EXPECT_FLOAT_EQ(recToFloat(s.tz[0]), 7.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.tz[1]), 7.0f);
    EXPECT_FLOAT_EQ(recToFloat(s.tz[2]), 7.0f);
}

TEST(Stages5to9, BarycentricsDeterminantDistance)
{
    Srfds s = triSrfds();
    stages::stage2(s);
    stages::stage3(s);
    stages::stage4(s);
    stages::stage5(s);
    stages::stage6(s);
    stages::stage7(s);
    stages::stage8(s);
    DistanceAccumulators acc;
    stages::stage9(s, acc);

    // Triangle (0,0),(0,2),(2,0) vs pixel (0.5,0.5): scaled barycentric
    // coordinates U,V,W and det = U+V+W = signed 2x area = 4.
    float u = recToFloat(s.uvw[0]);
    float v = recToFloat(s.uvw[1]);
    float w = recToFloat(s.uvw[2]);
    float det = recToFloat(s.det);
    EXPECT_FLOAT_EQ(det, u + v + w);
    EXPECT_FLOAT_EQ(det, 4.0f);
    // t = t_num / det = 7 (plane at z=5, origin at z=-2).
    EXPECT_FLOAT_EQ(recToFloat(s.t_num) / det, 7.0f);
}

TEST(Stage10, TriangleHitPredicates)
{
    DistanceAccumulators acc;
    auto run = [&](Srfds s) {
        stages::stage2(s);
        stages::stage3(s);
        stages::stage4(s);
        stages::stage5(s);
        stages::stage6(s);
        stages::stage7(s);
        stages::stage8(s);
        stages::stage9(s, acc);
        stages::stage10(s, acc);
        return s;
    };
    EXPECT_TRUE(run(triSrfds()).tri_hit);

    // Behind the ray: t_num < 0 fails the distance predicate.
    DatapathInput behind;
    behind.op = Opcode::RayTriangle;
    behind.ray = makeRay(0.5f, 0.5f, 8, 0, 0, 1, 0, 100);
    behind.tri = makeTriangle(0, 0, 5, 0, 2, 5, 2, 0, 5);
    EXPECT_FALSE(run(stages::stage1(behind)).tri_hit);
}

TEST(Stage10, EuclideanAccumulatorProtocol)
{
    DistanceAccumulators acc;
    auto beat = [&](float value, bool reset) {
        DatapathInput in;
        in.op = Opcode::Euclidean;
        in.mask = 0x0001; // one live dimension
        in.vec_a[0] = toBits(value);
        in.vec_b[0] = toBits(0.0f);
        in.reset_accumulator = reset;
        Srfds s = stages::stage1(in);
        stages::stage2(s);
        stages::stage3(s);
        stages::stage4(s);
        stages::stage6(s);
        stages::stage8(s);
        stages::stage9(s, acc);
        stages::stage10(s, acc);
        return s;
    };
    // 3^2 + 4^2 accumulated over two beats, reset on the second.
    Srfds r1 = beat(3.0f, false);
    EXPECT_FLOAT_EQ(recToFloat(r1.euclid_out), 9.0f);
    EXPECT_FALSE(r1.euclid_reset_out);
    Srfds r2 = beat(4.0f, true);
    EXPECT_FLOAT_EQ(recToFloat(r2.euclid_out), 25.0f);
    EXPECT_TRUE(r2.euclid_reset_out);
    // Cleared for the next job.
    Srfds r3 = beat(1.0f, true);
    EXPECT_FLOAT_EQ(recToFloat(r3.euclid_out), 1.0f);
}

TEST(Stage9, CosineAccumulatorsAreIndependent)
{
    DistanceAccumulators acc;
    auto beat = [&](float a, float b, bool reset) {
        DatapathInput in;
        in.op = Opcode::Cosine;
        in.mask = 0x0001;
        in.vec_a[0] = toBits(a);
        in.vec_b[0] = toBits(b);
        in.reset_accumulator = reset;
        Srfds s = stages::stage1(in);
        stages::stage3(s);
        stages::stage4(s);
        stages::stage6(s);
        stages::stage8(s);
        stages::stage9(s, acc);
        return s;
    };
    Srfds r1 = beat(2.0f, 3.0f, false);
    EXPECT_FLOAT_EQ(recToFloat(r1.dot_out), 6.0f);
    EXPECT_FLOAT_EQ(recToFloat(r1.norm_out), 9.0f);
    // The Euclidean accumulator is untouched by cosine beats.
    EXPECT_EQ(decode(acc.euclid), kPosZero);
    Srfds r2 = beat(1.0f, 2.0f, true);
    EXPECT_FLOAT_EQ(recToFloat(r2.dot_out), 8.0f);
    EXPECT_FLOAT_EQ(recToFloat(r2.norm_out), 13.0f);
    EXPECT_TRUE(r2.angular_reset_out);
}

TEST(Stage11, OutputFormatsPerOpcode)
{
    DistanceAccumulators acc;
    WorkloadGen gen(5);
    DatapathInput in = gen.rayBoxOp(42);
    DatapathOutput out = functionalEval(in, acc);
    EXPECT_EQ(out.op, Opcode::RayBox);
    EXPECT_EQ(out.tag, 42u);
    // Sorted distances are monotone with misses (+inf) last.
    for (int i = 0; i + 1 < 4; ++i)
        EXPECT_TRUE(leF32(out.box.sorted_dist[i],
                          out.box.sorted_dist[i + 1]));
}

TEST(Stages, BlankStagesCopyInputToOutput)
{
    // Ray-box data is untouched by the triangle-only stages 5-9 - the
    // "blank cells" of Fig. 4c.
    Srfds s = boxSrfds();
    stages::stage2(s);
    stages::stage3(s);
    stages::stage4(s);
    const Srfds before = s;
    DistanceAccumulators acc;
    stages::stage5(s);
    stages::stage6(s);
    stages::stage7(s);
    stages::stage8(s);
    stages::stage9(s, acc);
    for (int b = 0; b < 4; ++b) {
        EXPECT_EQ(s.box_near[b], before.box_near[b]);
        EXPECT_EQ(s.box_far[b], before.box_far[b]);
        EXPECT_EQ(s.box_hit[b], before.box_hit[b]);
    }
}

namespace
{

/** makeRay's contract written out in softfloat: three divF32 for the
 *  inverse direction, geF32 for kz, three divF32 for the shear. */
Ray
softfloatRay(const std::array<F32, 3> &o, const std::array<F32, 3> &d,
             F32 t_beg, F32 t_end)
{
    constexpr F32 one = 0x3F800000u;
    Ray r;
    r.origin = o;
    r.dir = d;
    r.t_beg = t_beg;
    r.t_end = t_end;
    for (int i = 0; i < 3; ++i)
        r.inv_dir[i] = divF32(one, d[i]);
    F32 ax = d[0] & 0x7FFFFFFFu, ay = d[1] & 0x7FFFFFFFu,
        az = d[2] & 0x7FFFFFFFu;
    uint8_t kz = 2;
    if (geF32(ax, ay) && geF32(ax, az))
        kz = 0;
    else if (geF32(ay, az))
        kz = 1;
    uint8_t kx = (kz + 1) % 3, ky = (kx + 1) % 3;
    if (signF32(d[kz]) && !isZeroF32(d[kz]))
        std::swap(kx, ky);
    r.kx = kx;
    r.ky = ky;
    r.kz = kz;
    r.shear[0] = divF32(d[kx], d[kz]);
    r.shear[1] = divF32(d[ky], d[kz]);
    r.shear[2] = divF32(one, d[kz]);
    return r;
}

} // namespace

TEST(MakeRay, HostDivisionMatchesSoftfloat)
{
    // Special values (both zeros, subnormals, extremes, infinities and
    // NaNs with payloads and either sign) mixed with random patterns.
    const F32 special[] = {
        0x00000000u, 0x80000000u, 0x00000001u, 0x807FFFFFu, 0x00400000u,
        0x00800000u, 0x7F7FFFFFu, 0xFF7FFFFFu, 0x7F800000u, 0xFF800000u,
        0x7FC00000u, 0xFFC00000u, 0x7FC12345u, 0xFF800001u, 0x7FA00000u,
        0x3F800000u, 0xBF800000u, 0x3F000000u, 0x5F000000u, 0x1F000000u,
    };
    std::mt19937_64 rng(0x5EED);
    auto draw = [&]() -> F32 {
        switch (rng() % 4) {
          case 0: return special[rng() % std::size(special)];
          case 1: return uint32_t(rng()) & 0x807FFFFFu; // subnormal/zero
          default: return uint32_t(rng());
        }
    };

    size_t checked = 0, nan_fields = 0;
    auto check = [&](const std::array<F32, 3> &o,
                     const std::array<F32, 3> &d, F32 t0, F32 t1) {
        const Ray got = makeRay(o, d, t0, t1);
        const Ray want = softfloatRay(o, d, t0, t1);
        ASSERT_EQ(got.origin, want.origin);
        ASSERT_EQ(got.dir, want.dir);
        ASSERT_EQ(got.t_beg, want.t_beg);
        ASSERT_EQ(got.t_end, want.t_end);
        ASSERT_EQ(got.kx, want.kx) << std::hex << d[0] << " " << d[1]
                                   << " " << d[2];
        ASSERT_EQ(got.ky, want.ky);
        ASSERT_EQ(got.kz, want.kz);
        // Bit equality: a NaN must carry the softfloat payload and sign.
        for (int i = 0; i < 3; ++i) {
            ASSERT_EQ(got.inv_dir[i], want.inv_dir[i])
                << std::hex << "dir 0x" << d[i];
            ASSERT_EQ(got.shear[i], want.shear[i])
                << std::hex << "dir 0x" << d[0] << " 0x" << d[1] << " 0x"
                << d[2];
            nan_fields += isNaNF32(want.inv_dir[i]) +
                          isNaNF32(want.shear[i]);
        }
        ++checked;
    };

    check({0, 0, 0}, {0, 0, 0}, 0, 0x7F800000u);             // all-zero
    check({0, 0, 0}, {0x80000000u, 0, 0x80000000u}, 0, 0);  // signed zeros
    for (int i = 0; i < 200000; ++i)
        check({draw(), draw(), draw()}, {draw(), draw(), draw()}, draw(),
              draw());
    EXPECT_EQ(checked, 200002u);
    // NaN quotients (0/0, inf/inf, NaN operands) actually occurred.
    EXPECT_GT(nan_fields, 10000u);
}
