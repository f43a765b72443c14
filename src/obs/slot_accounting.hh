/**
 * @file
 * Top-down issue-slot attribution for the RT unit.
 *
 * Step (a) of the unit's cycle loop accounts every issue slot of every
 * cycle: a lane either issues a beat or idles. Issued-vs-idle answers
 * "how busy was the datapath" but not "what was the idle time spent
 * waiting ON" — an L1 miss in flight, a full MSHR file, a contended L2
 * bank queue, ring hops, results still draining, or genuinely no work.
 * This module refines the per-slot accounting into an EXCLUSIVE
 * taxonomy: each issue slot lands in exactly one bucket, so the
 * buckets obey a hard conservation invariant,
 *
 *     SlotAccounting::total() == cycles * issue_width
 *
 * in every configuration (packets of every width and k-NN; flat,
 * cached and chip-mode memory), pinned by tests/test_obs.cc. The
 * `Issued` bucket always equals datapath_beats; the idle slots are
 * total() - Issued and the memory-stall slots memoryStallSlots().
 *
 * Attribution of an idle slot follows a fixed priority, computed once
 * per cycle (all idle slots of a cycle share the cause, so the unit
 * classifies lazily on the first idle lane):
 *
 *   1. no slot holds work at all            -> IdleNoWork
 *   2. a fetch is refused by a full MSHR    -> StallMshrFull
 *   3. a fetch is in flight: classify by the GATING request's current
 *      phase (the earliest-completing in-flight fetch), using the
 *      phase boundaries its MemoryModel reported at issue time:
 *        L1 lookup / flat fill              -> StallL1Miss
 *        interconnect hops (both ways)      -> StallRingHop
 *        L2 bank-queue wait                 -> StallL2BankQueue
 *        L2 service / DRAM fill / merge     -> StallL2Fill
 *      (without a chip-level L2 every boundary collapses into the L1
 *      phase, so single-unit runs attribute memory waits to
 *      StallL1Miss — the only memory there is)
 *   4. work is in the datapath, none ready  -> StallDrain
 *   5. otherwise                            -> IdleNoWork
 *
 * Merging is a commutative-associative elementwise sum, exactly like
 * every other stats struct, so the buckets ride RtUnitStats through
 * EngineReport / PassesReport / StreamReport unchanged and stay
 * bit-identical at every worker count.
 */
#ifndef RAYFLEX_OBS_SLOT_ACCOUNTING_HH
#define RAYFLEX_OBS_SLOT_ACCOUNTING_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace rayflex::obs
{

/** The exclusive issue-slot taxonomy. Every issue slot of every cycle
 *  lands in exactly one bucket. */
enum class Slot : uint8_t {
    Issued,           ///< a beat entered a datapath lane (== datapath_beats)
    StallL1Miss,      ///< gating fetch in its L1 / flat-memory phase
    StallMshrFull,    ///< a fetch was refused: MSHR file full
    StallRingHop,     ///< gating fetch riding the chip interconnect
    StallL2BankQueue, ///< gating fetch queued on a busy L2 bank
    StallL2Fill,      ///< gating fetch in L2 service / DRAM fill
    StallDrain,       ///< work in flight in the datapath, none ready
    IdleNoWork,       ///< no work held anywhere in the unit
    kCount,
};

inline constexpr size_t kSlotBuckets = size_t(Slot::kCount);

/** Per-run issue-slot buckets. All fields are sums of uint64 counts,
 *  so merging is commutative and associative like RtUnitStats. */
struct SlotAccounting
{
    std::array<uint64_t, kSlotBuckets> buckets{};

    uint64_t &operator[](Slot s) { return buckets[size_t(s)]; }
    uint64_t operator[](Slot s) const { return buckets[size_t(s)]; }

    /** Sum over all buckets; the conservation invariant says this
     *  equals cycles * issue_width for any single unit or any merge of
     *  same-issue-width units. */
    uint64_t
    total() const
    {
        uint64_t t = 0;
        for (uint64_t b : buckets)
            t += b;
        return t;
    }

    /** Slots lost waiting on the memory system (everything between
     *  Issued and StallDrain in the taxonomy). */
    uint64_t
    memoryStallSlots() const
    {
        return (*this)[Slot::StallL1Miss] + (*this)[Slot::StallMshrFull] +
               (*this)[Slot::StallRingHop] +
               (*this)[Slot::StallL2BankQueue] + (*this)[Slot::StallL2Fill];
    }

    SlotAccounting &
    merge(const SlotAccounting &o)
    {
        for (size_t i = 0; i < kSlotBuckets; ++i)
            buckets[i] += o.buckets[i];
        return *this;
    }

    friend bool operator==(const SlotAccounting &,
                           const SlotAccounting &) = default;
};

/** Stable display name of a bucket (bench counters, probe output). */
inline const char *
slotName(Slot s)
{
    switch (s) {
    case Slot::Issued: return "issued";
    case Slot::StallL1Miss: return "stall_l1_miss";
    case Slot::StallMshrFull: return "stall_mshr_full";
    case Slot::StallRingHop: return "stall_ring_hop";
    case Slot::StallL2BankQueue: return "stall_l2_bank_queue";
    case Slot::StallL2Fill: return "stall_l2_fill";
    case Slot::StallDrain: return "stall_drain";
    case Slot::IdleNoWork: return "idle_no_work";
    case Slot::kCount: break;
    }
    return "?";
}

} // namespace rayflex::obs

#endif // RAYFLEX_OBS_SLOT_ACCOUNTING_HH
