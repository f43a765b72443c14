/**
 * @file
 * QuadSort: the 4-element sorting network of pipeline stage 10.
 *
 * After the four parallel ray-box tests, the RDNA3 instruction returns
 * the children sorted by their order of intersection. A sorting network
 * can sort four elements with just five compare-exchange units arranged
 * in three levels (Section III-B1):
 *
 *   level 1: CE(0,1)  CE(2,3)
 *   level 2: CE(0,2)  CE(1,3)
 *   level 3: CE(1,2)
 *
 * An exchange happens only on a strictly-greater comparison, so equal
 * keys never swap with each other (though the network is not fully
 * stable: the level-2 (1,3) exchange can move a key past slot 2), and
 * NaN keys never swap (hardware comparators report unordered, which the
 * exchange treats as "do not swap").
 */
#ifndef RAYFLEX_CORE_QUADSORT_HH
#define RAYFLEX_CORE_QUADSORT_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>

#include "fp/float32.hh"

namespace rayflex::core
{

/** One record flowing through the sorting network. */
template <typename Payload>
struct SortRecord
{
    fp::F32 key;     ///< sort key (entry distance; +inf for misses)
    Payload payload; ///< carried data (box slot index)
};

/** One compare-exchange: `a` and `b` swap when `greater(a.key, b.key)`.
 *  The swap is a select through an all-ones mask, so a host comparator
 *  compiles without a branch on the data. */
template <typename Payload, typename Greater>
inline void
compareExchange(SortRecord<Payload> &a, SortRecord<Payload> &b,
                Greater greater)
{
    const fp::F32 swap = -fp::F32(greater(a.key, b.key));
    const fp::F32 key = (a.key ^ b.key) & swap;
    a.key ^= key;
    b.key ^= key;
    const Payload payload = (a.payload ^ b.payload) & Payload(swap);
    a.payload ^= payload;
    b.payload ^= payload;
}

/**
 * Sort four records by ascending key using the 5-comparator network.
 * Misses should be encoded with a +inf key so they sort last.
 */
template <typename Payload>
std::array<SortRecord<Payload>, 4>
quadSort(std::array<SortRecord<Payload>, 4> r)
{
    // Swap only when strictly greater; unordered comparisons (NaN)
    // never swap.
    compareExchange(r[0], r[1], fp::gtF32);
    compareExchange(r[2], r[3], fp::gtF32);
    compareExchange(r[0], r[2], fp::gtF32);
    compareExchange(r[1], r[3], fp::gtF32);
    compareExchange(r[1], r[2], fp::gtF32);
    return r;
}

/** Widest network tabulated below: the widest box op
 *  (core::kMaxBoxesPerOp). */
inline constexpr size_t kMaxSortInputs = 8;

/** One compare-exchange unit: records `a` and `b` swap when key `a` is
 *  strictly greater. */
struct Comparator
{
    uint8_t a = 0;
    uint8_t b = 0;
};

/** The comparators of one network, in evaluation order. */
struct SortNetworkList
{
    std::array<Comparator, 19> ce{}; ///< 19 = the 8-input network
    unsigned count = 0;
};

/**
 * The n-input Batcher odd-even mergesort network, supporting the
 * non-4-wide BVH node configurations (e.g. Mesa's 6-wide nodes). For
 * n == 4 the compare-exchange sequence is exactly the QuadSort network
 * above. The comparator count grows O(n log^2 n): 1 -> 0, 2 -> 1,
 * 4 -> 5, 6 -> 12, 8 -> 19.
 */
constexpr SortNetworkList
batcherNetwork(unsigned n)
{
    SortNetworkList net;
    for (unsigned p = 1; p < n; p *= 2) {
        for (unsigned k = p; k >= 1; k /= 2) {
            for (unsigned j = k % p; j + k < n; j += 2 * k)
                for (unsigned i = 0; i < k && i + j + k < n; ++i)
                    if ((i + j) / (2 * p) == (i + j + k) / (2 * p))
                        net.ce[net.count++] = {uint8_t(i + j),
                                               uint8_t(i + j + k)};
            if (k == 1)
                break;
        }
    }
    return net;
}

/** batcherNetwork(n) for every n up to kMaxSortInputs, built once at
 *  compile time. */
inline constexpr std::array<SortNetworkList, kMaxSortInputs + 1>
    kSortNetworks = [] {
        std::array<SortNetworkList, kMaxSortInputs + 1> t{};
        for (unsigned n = 0; n <= kMaxSortInputs; ++n)
            t[n] = batcherNetwork(n);
        return t;
    }();

/** The datapath's comparator: fp::gtF32 (the paper-fidelity model of
 *  stage 10). */
struct SoftfloatGreater
{
    bool operator()(fp::F32 a, fp::F32 b) const { return fp::gtF32(a, b); }
};

/** The host's `>` on the same bits. IEEE compareQuietGreater, so it
 *  answers exactly as fp::gtF32 for every input: -0 == +0, subnormals
 *  ordered, false on NaN (pinned by
 *  QuadSort.HostCompareMatchesSoftfloatNetwork). */
struct HostGreater
{
    bool
    operator()(fp::F32 a, fp::F32 b) const
    {
        return fp::fromBits(a) > fp::fromBits(b);
    }
};

/**
 * Sort the first n records (n <= kMaxSortInputs) by ascending key
 * through batcherNetwork(n), exchanging on `greater`. Entries at index
 * >= n are left untouched.
 */
template <typename Payload, size_t N, typename Greater = SoftfloatGreater>
void
sortNetwork(std::array<SortRecord<Payload>, N> &r, size_t n,
            Greater greater = {})
{
    static_assert(N <= kMaxSortInputs, "sortNetwork: array wider than "
                                       "the comparator table");
    assert(n <= N);
    const SortNetworkList &net = kSortNetworks[n];
    for (unsigned c = 0; c < net.count; ++c)
        compareExchange(r[net.ce[c].a], r[net.ce[c].b], greater);
}

/** Number of compare-exchange units in the n-input Batcher network
 *  (used by the synthesis model to cost non-default node widths).
 *  @throws std::invalid_argument when n > kMaxSortInputs. */
constexpr unsigned
sortNetworkComparators(unsigned n)
{
    if (n > kMaxSortInputs)
        throw std::invalid_argument(
            "sortNetworkComparators: more inputs than kMaxSortInputs");
    return kSortNetworks[n].count;
}

} // namespace rayflex::core

#endif // RAYFLEX_CORE_QUADSORT_HH
