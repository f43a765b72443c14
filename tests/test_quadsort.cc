/**
 * @file
 * Tests of the 5-comparator QuadSort network (pipeline stage 10).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

#include "core/golden.hh"
#include "core/quadsort.hh"

using namespace rayflex::core;
using namespace rayflex::fp;

namespace
{

std::array<SortRecord<uint8_t>, 4>
make(std::array<float, 4> keys)
{
    std::array<SortRecord<uint8_t>, 4> r;
    for (int i = 0; i < 4; ++i)
        r[size_t(i)] = {toBits(keys[size_t(i)]), uint8_t(i)};
    return r;
}

} // namespace

TEST(QuadSort, AllPermutationsSorted)
{
    std::array<float, 4> vals = {3.0f, 1.0f, 4.0f, 2.0f};
    std::array<int, 4> idx = {0, 1, 2, 3};
    std::sort(idx.begin(), idx.end());
    do {
        std::array<float, 4> keys;
        for (int i = 0; i < 4; ++i)
            keys[size_t(i)] = vals[size_t(idx[size_t(i)])];
        auto sorted = quadSort(make(keys));
        for (int i = 0; i + 1 < 4; ++i)
            ASSERT_TRUE(leF32(sorted[size_t(i)].key,
                              sorted[size_t(i) + 1].key));
    } while (std::next_permutation(idx.begin(), idx.end()));
}

TEST(QuadSort, DeterministicForEqualKeys)
{
    // Compare-exchange only swaps on strictly-greater, so equal keys
    // never swap with each other; the network is deterministic but not
    // fully stable (the (1,3) exchange can jump over slot 2). For
    // {2,1,1,1} the trace is: CE(0,1) swaps, CE(1,3) swaps, giving
    // payload order 1,3,2,0.
    auto sorted = quadSort(make({2.0f, 1.0f, 1.0f, 1.0f}));
    EXPECT_EQ(sorted[0].payload, 1);
    EXPECT_EQ(sorted[1].payload, 3);
    EXPECT_EQ(sorted[2].payload, 2);
    EXPECT_EQ(sorted[3].payload, 0);
}

TEST(QuadSort, AllEqualKeepsIdentityOrder)
{
    auto sorted = quadSort(make({5.0f, 5.0f, 5.0f, 5.0f}));
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(sorted[size_t(i)].payload, i);
}

TEST(QuadSort, InfinityKeysSortLast)
{
    auto recs = make({1.0f, 0.0f, 0.5f, 0.0f});
    recs[0].key = kPosInf;
    auto sorted = quadSort(recs);
    EXPECT_EQ(sorted[3].payload, 0);
    EXPECT_EQ(sorted[0].payload, 1); // 0.0 (stable: slot 1 before 3)
    EXPECT_EQ(sorted[1].payload, 3);
    EXPECT_EQ(sorted[2].payload, 2);
}

TEST(QuadSort, NegativeAndSignedZeroKeys)
{
    auto sorted = quadSort(make({0.0f, -1.0f, -0.0f, 1.0f}));
    EXPECT_EQ(sorted[0].payload, 1); // -1
    // +0 and -0 compare equal: stable order 0 then 2.
    EXPECT_EQ(sorted[1].payload, 0);
    EXPECT_EQ(sorted[2].payload, 2);
    EXPECT_EQ(sorted[3].payload, 3);
}

TEST(QuadSort, RandomAgainstStdStableSort)
{
    std::mt19937_64 rng(17);
    std::uniform_real_distribution<float> d(-100.0f, 100.0f);
    for (int iter = 0; iter < 20000; ++iter) {
        std::array<SortRecord<uint8_t>, 4> recs;
        for (int i = 0; i < 4; ++i)
            recs[size_t(i)] = {toBits(d(rng)), uint8_t(i)};
        auto net = quadSort(recs);
        auto ref = recs;
        std::sort(ref.begin(), ref.end(),
                         [](const auto &a, const auto &b) {
                             return ltF32(a.key, b.key);
                         });
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(net[size_t(i)].key, ref[size_t(i)].key);
            ASSERT_EQ(net[size_t(i)].payload, ref[size_t(i)].payload);
        }
    }
}

TEST(QuadSort, HostCompareMatchesSoftfloatNetwork)
{
    // The native box beat sorts with the host `>`; stage 10 sorts with
    // fp::gtF32. On keys drawn from the values where the two could
    // part ways (signed zeros, subnormals, infinities, runs of equal
    // keys, NaNs) every width's network must leave the same records in
    // the same order.
    const std::array<F32, 14> pool = {
        toBits(0.0f),        toBits(-0.0f),
        0x00000001u,         0x80000001u, // smallest subnormals
        0x007fffffu,         0x807fffffu, // largest subnormals
        toBits(1.0f),        toBits(-1.0f),
        toBits(3.5f),        kPosInf,
        toBits(-std::numeric_limits<float>::infinity()),
        0x7fc00000u,         0xffc00001u, // quiet NaNs
        0x7f800001u};                     // signalling NaN
    std::mt19937_64 rng(23);
    for (size_t n = 1; n <= kMaxSortInputs; ++n) {
        for (int iter = 0; iter < 4000; ++iter) {
            std::array<SortRecord<uint8_t>, kMaxSortInputs> recs{};
            // Every other case draws from a three-value subset, so
            // equal-key runs are common.
            const size_t span = iter % 2 ? pool.size() : 3;
            const size_t base = rng() % (pool.size() - span + 1);
            for (size_t i = 0; i < n; ++i)
                recs[i] = {pool[base + rng() % span], uint8_t(i)};
            auto soft = recs;
            auto host = recs;
            sortNetwork(soft, n);
            sortNetwork(host, n, HostGreater{});
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(host[i].payload, soft[i].payload)
                    << "n=" << n << " iter=" << iter << " i=" << i;
                ASSERT_EQ(host[i].key, soft[i].key)
                    << "n=" << n << " iter=" << iter << " i=" << i;
            }
        }
    }
}

TEST(QuadSort, PackedSlotSortMatchesRecordNetwork)
{
    // golden::quadSortSlots sorts (key, slot) packed into one word; it
    // must leave the records, key bits included, exactly where the
    // record network with the host `>` leaves them. The keys are a
    // slab test's: never NaN, with signed zeros, subnormals, runs of
    // equal keys and +inf misses.
    const std::array<float, 10> pool = {
        0.0f, -0.0f, fromBits(0x00000001u), fromBits(0x80000001u),
        fromBits(0x007fffffu), 1.0f, -1.0f, 3.5f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity()};
    std::mt19937_64 rng(29);
    for (int iter = 0; iter < 20000; ++iter) {
        golden::Slab4 s;
        const size_t span = iter % 2 ? pool.size() : 3;
        const size_t base = rng() % (pool.size() - span + 1);
        for (int b = 0; b < 4; ++b) {
            s.near[b] = pool[base + rng() % span];
            s.far[b] = std::numeric_limits<float>::infinity();
            s.nan[b] = rng() % 5 == 0 ? -1 : 0; // a miss keyed +inf
        }
        const golden::M32x4 key = s.key();
        std::array<SortRecord<uint8_t>, 4> ref;
        for (int b = 0; b < 4; ++b)
            ref[size_t(b)] = {F32(key[b]), uint8_t(b)};
        sortNetwork(ref, 4, HostGreater{});
        const auto got = golden::quadSortSlots(s);
        for (size_t i = 0; i < 4; ++i) {
            ASSERT_EQ(got[i].payload, ref[i].payload)
                << "iter=" << iter << " i=" << i;
            ASSERT_EQ(got[i].key, ref[i].key)
                << "iter=" << iter << " i=" << i;
        }
    }
}
