/**
 * @file
 * Tests of the workload generators: determinism, geometric validity,
 * and the statistical properties the verification campaigns rely on
 * (healthy hit rates, adversarial boundary coverage).
 */
#include <gtest/gtest.h>

#include "core/golden.hh"
#include "core/stages.hh"
#include "core/workloads.hh"

using namespace rayflex::core;
using namespace rayflex::fp;

TEST(Workloads, DeterministicAcrossInstances)
{
    WorkloadGen a(12345), b(12345);
    for (int i = 0; i < 100; ++i) {
        DatapathInput x = a.rayBoxOp(uint64_t(i));
        DatapathInput y = b.rayBoxOp(uint64_t(i));
        ASSERT_EQ(x.ray.origin, y.ray.origin);
        ASSERT_EQ(x.ray.dir, y.ray.dir);
        for (int k = 0; k < 4; ++k) {
            ASSERT_EQ(x.boxes[k].lo, y.boxes[k].lo);
            ASSERT_EQ(x.boxes[k].hi, y.boxes[k].hi);
        }
    }
}

TEST(Workloads, RaysAreWellFormed)
{
    WorkloadGen gen(7);
    for (int i = 0; i < 5000; ++i) {
        Ray r = gen.ray();
        // Direction nonzero; inverse consistent with the direction.
        bool nonzero = !isZeroF32(r.dir[0]) || !isZeroF32(r.dir[1]) ||
                       !isZeroF32(r.dir[2]);
        ASSERT_TRUE(nonzero);
        for (int d = 0; d < 3; ++d) {
            F32 expect = divF32(toBits(1.0f), r.dir[d]);
            ASSERT_EQ(r.inv_dir[d], expect);
        }
        // Permutation k is a permutation of {0,1,2}.
        ASSERT_EQ((1u << r.kx) | (1u << r.ky) | (1u << r.kz), 0x7u);
        // Extent ordered.
        ASSERT_TRUE(leF32(r.t_beg, r.t_end));
    }
}

TEST(Workloads, BoxesAreOrdered)
{
    WorkloadGen gen(8);
    for (int i = 0; i < 5000; ++i) {
        Box b = gen.box();
        for (int d = 0; d < 3; ++d)
            ASSERT_TRUE(leF32(b.lo[d], b.hi[d]));
    }
}

TEST(Workloads, HitRatesAreHealthy)
{
    // The aimed generators must produce enough hits for the random
    // campaigns to exercise the hit paths.
    WorkloadGen gen(9);
    DistanceAccumulators acc;
    int box_hits = 0, tri_hits = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        DatapathOutput b = functionalEval(gen.rayBoxOp(uint64_t(i)), acc);
        for (int k = 0; k < 4; ++k)
            box_hits += b.box.hit[k] ? 1 : 0;
        DatapathOutput t =
            functionalEval(gen.rayTriangleOp(uint64_t(i)), acc);
        tri_hits += t.tri.hit ? 1 : 0;
    }
    EXPECT_GT(box_hits, n / 5);      // >5% of box slots hit
    EXPECT_GT(tri_hits, n / 10);     // >10% of triangle ops hit
    EXPECT_LT(tri_hits, n * 9 / 10); // and misses are represented too
}

TEST(Workloads, AdversarialCasesExerciseNaNPaths)
{
    // A meaningful fraction of adversarial ray-box cases must actually
    // produce a NaN slab product (the 0 * inf coplanar condition).
    WorkloadGen gen(10);
    int nan_cases = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        DatapathInput in = gen.adversarialRayBoxOp(uint64_t(i));
        for (int b = 0; b < 4 && nan_cases <= i; ++b) {
            for (int d = 0; d < 3; ++d) {
                float lo = fromBits(in.boxes[b].lo[d]);
                float hi = fromBits(in.boxes[b].hi[d]);
                float org = fromBits(in.ray.origin[d]);
                bool zero_dir = isZeroF32(in.ray.dir[d]);
                if (zero_dir && (lo == org || hi == org)) {
                    ++nan_cases;
                    break;
                }
            }
        }
    }
    EXPECT_GT(nan_cases, n / 4);
}

TEST(Workloads, MasksAreSometimesPartial)
{
    WorkloadGen gen(11);
    int partial = 0;
    for (int i = 0; i < 2000; ++i) {
        DatapathInput in = gen.euclideanOp(true, uint64_t(i));
        if (in.mask != 0xFFFF)
            ++partial;
    }
    EXPECT_GT(partial, 100);
    EXPECT_LT(partial, 1900);
}

TEST(Workloads, RayTriangleOpStreamIsPinned)
{
    // FNV-1a over the triangle and ray bits of the first 10k ops at
    // seed 1, captured before the aimed-ray draw was rewritten to keep
    // uniform()'s bounds ordered. The rewrite must not move one bit.
    WorkloadGen gen(1);
    uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](uint32_t x) {
        for (int i = 0; i < 4; ++i) {
            h ^= (x >> (8 * i)) & 0xFFu;
            h *= 1099511628211ull;
        }
    };
    for (uint64_t i = 0; i < 10000; ++i) {
        const DatapathInput in = gen.rayTriangleOp(i);
        for (const auto &v : in.tri.v)
            for (F32 c : v)
                mix(c);
        for (F32 c : in.ray.origin)
            mix(c);
        for (F32 c : in.ray.dir)
            mix(c);
        mix(in.ray.t_beg);
        mix(in.ray.t_end);
    }
    EXPECT_EQ(h, 5385267732608147563ull);
}

TEST(Workloads, BatchTagsAreSequential)
{
    WorkloadGen gen(12);
    auto batch = gen.batch(Opcode::Cosine, 50);
    ASSERT_EQ(batch.size(), 50u);
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(batch[i].tag, i);
        EXPECT_EQ(batch[i].op, Opcode::Cosine);
    }
}
