/**
 * @file
 * Build-invariant regression tests.
 *
 * The golden model's bit-exactness contract against host IEEE FP32
 * (tests/test_fp_softfloat.cc) assumes every a*b+c in the tree is
 * rounded after the multiply AND after the add. A compiler that
 * contracts the expression into fma(a, b, c) skips the intermediate
 * rounding and silently breaks hardware-vs-golden comparisons. The
 * build sets -ffp-contract=off globally; this test makes a mis-built
 * tree fail loudly instead of producing subtly wrong comparisons.
 *
 * The same contract needs subnormals to be kept: x86-64 binaries that
 * start with flush-to-zero or denormals-are-zero set in MXCSR (what
 * linking with -ffast-math does) round subnormal results and inputs
 * to zero, which the softfloat substrate never does.
 */
#include <gtest/gtest.h>

#include <cmath>
#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

#include "core/config.hh" // also exercises the C++20 #error guard
#include "fp/float32.hh"

namespace
{

/** The arguments go through volatile locals so the probe is evaluated
 *  with exactly the floating-point codegen of this translation unit:
 *  noinline alone does not stop GCC's IPA constant propagation from
 *  folding the call at the separately-rounded value, which would mask
 *  a contracted build. */
float
mulAddProbe(float a_in, float b_in, float c_in)
{
    volatile float a = a_in, b = b_in, c = c_in;
    return a * b + c;
}

} // namespace

TEST(FpContract, MulAddRoundsIntermediateProduct)
{
    // a = b = 1 + 2^-12: the exact product is 1 + 2^-11 + 2^-24, whose
    // trailing term is exactly half an ulp in binary32; round-to-even
    // drops it, so the rounded product is 1 + 2^-11. With
    // c = -(1 + 2^-11) the separately rounded expression is exactly 0,
    // while a contracted FMA keeps the 2^-24 term.
    const float a = 1.0f + 0x1p-12f;
    const float c = -(1.0f + 0x1p-11f);

    EXPECT_EQ(mulAddProbe(a, a, c), 0.0f)
        << "a*b+c was contracted into fma(a,b,c): this tree was built "
           "without -ffp-contract=off and the golden model's "
           "bit-exactness contract does not hold";

    // Sanity: a true fused multiply-add distinguishes this input, so
    // the probe above really does detect contraction.
    EXPECT_EQ(std::fma(a, a, c), 0x1p-24f);
}

TEST(FpContract, SubnormalsAreNotFlushedToZero)
{
#if defined(__x86_64__) || defined(_M_X64)
    const unsigned csr = _mm_getcsr();
    EXPECT_EQ(csr & 0x8000u, 0u)
        << "MXCSR.FTZ is set: subnormal results flush to zero";
    EXPECT_EQ(csr & 0x0040u, 0u)
        << "MXCSR.DAZ is set: subnormal inputs read as zero";
#else
    GTEST_SKIP() << "MXCSR exists on x86-64 only";
#endif
}

TEST(FpContract, SoftFloatMatchesSeparatelyRoundedHost)
{
    using namespace rayflex::fp;
    const float a = 1.0f + 0x1p-12f;
    const float c = -(1.0f + 0x1p-11f);

    // The softfloat substrate rounds after every operation by
    // construction; the host must agree with it on the same schedule.
    F32 prod = mulF32(toBits(a), toBits(a));
    EXPECT_EQ(prod, toBits(1.0f + 0x1p-11f));
    EXPECT_EQ(addF32(prod, toBits(c)), toBits(0.0f));
    EXPECT_EQ(fromBits(addF32(prod, toBits(c))), mulAddProbe(a, a, c));
}
