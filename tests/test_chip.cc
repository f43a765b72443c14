/**
 * @file
 * Tests of the multi-unit chip mode (sim::EngineConfig::chip) and the
 * SharedL2 tier behind the per-unit L1s: the PR-5 timing pin (an
 * inactive chip config reproduces the single-unit schedule bit-for-bit,
 * counters hard-coded from that tree), hit bit-equality against the
 * scalar engine across the chip configuration grid, commutative
 * merging of the new L2Stats/interconnect counters through the full
 * chip report at 1/2/8 workers, the L1-miss/L2-lookup conservation
 * invariant, cross-unit merges appearing on coherent workloads, the
 * shared-beats-equal-capacity-private acceptance property, unit-count
 * clamping and the Functional model ignoring chip settings.
 */
#include <gtest/gtest.h>

#include "bvh/builder.hh"
#include "bvh/scene.hh"
#include "core/raygen.hh"
#include "core/workloads.hh"
#include "sim/engine.hh"

using namespace rayflex;
using namespace rayflex::bvh;
using namespace rayflex::core;
using rayflex::fp::toBits;

namespace
{

/** Bit-level equality of two hit records (same helper contract as
 *  test_sim_engine: float == would accept -0.0f vs 0.0f). */
::testing::AssertionResult
bitIdentical(const HitRecord &a, const HitRecord &b)
{
    if (a.hit != b.hit || a.triangle_id != b.triangle_id ||
        toBits(a.t) != toBits(b.t) || toBits(a.u) != toBits(b.u) ||
        toBits(a.v) != toBits(b.v) || toBits(a.w) != toBits(b.w))
        return ::testing::AssertionFailure()
               << "hit records differ: {" << a.hit << ", " << a.t << ", "
               << a.triangle_id << "} vs {" << b.hit << ", " << b.t
               << ", " << b.triangle_id << "}";
    return ::testing::AssertionSuccess();
}

/** The same mixed scene the PR-4/PR-5 pins were captured on
 *  (test_issue_width, test_packet, test_mem_model). */
Bvh4
testScene()
{
    auto tris = makeSphere({0, 0, 0}, 2.0f, 12, 16);
    uint32_t id = uint32_t(tris.size());
    auto soup = makeSoup(300, 6.0f, 0.8f, 17, id);
    tris.insert(tris.end(), soup.begin(), soup.end());
    return buildBvh4(std::move(tris));
}

/** Coherent camera rays plus random rays (some aimed away). */
std::vector<Ray>
testRays(const Bvh4 &bvh, size_t n_random)
{
    Camera cam;
    cam.look_at = bvh.root_bounds.centre();
    cam.eye = {0.5f, 1.0f, 9.0f};
    cam.width = 16;
    cam.height = 16;
    std::vector<Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    WorkloadGen gen(99);
    for (size_t i = 0; i < n_random; ++i)
        rays.push_back(gen.ray(8.0f));
    return rays;
}

/** A chip engine config over the cached L1 and the probe L2. */
sim::EngineConfig
chipConfig(unsigned units, sim::L2Mode l2)
{
    sim::EngineConfig cfg;
    cfg.threads = 1;
    cfg.batch_size = 64;
    cfg.rt.mem_backend = MemBackend::NodeCache;
    cfg.rt.cache = kProbeCache4KiB;
    cfg.chip.units = units;
    cfg.chip.l2 = l2;
    cfg.chip.l2cfg = kProbeL2_128KiB;
    return cfg;
}

} // namespace

TEST(Chip, InactiveChipReproducesPr5ScheduleBitForBit)
{
    // The regression pin: units == 1 with the L2 off (the ChipConfig
    // default) must take the single-unit engine path and reproduce the
    // PR-5 schedule EXACTLY — the counters below are the same numbers
    // test_issue_width pins for the default and packet-8 configs. Any
    // drift means the chip refactor (run() decomposition, the advance
    // guard, the clocked L1 access) perturbed single-unit timing,
    // which the bit-for-bit contract forbids.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig scalar;
    scalar.threads = 1;
    scalar.batch_size = 64;
    scalar.chip.units = 1;          // explicit, and explicitly off
    scalar.chip.l2 = sim::L2Mode::Off;
    ASSERT_FALSE(scalar.chip.active());
    sim::EngineReport s = sim::Engine(scalar).run(bvh, rays);
    EXPECT_EQ(s.unit.cycles, 6211u);
    EXPECT_EQ(s.unit.datapath_beats, 4791u);
    EXPECT_EQ(s.unit.slots.total() - s.unit.slots[obs::Slot::Issued], 1420u);
    EXPECT_EQ(s.unit.mem_requests, 3212u);
    EXPECT_EQ(s.unit.slots.memoryStallSlots(), 1129u);
    EXPECT_EQ(s.unit.rays_completed, rays.size());
    EXPECT_EQ(s.unit.chip_cycles, 0u);
    EXPECT_TRUE(s.unit.l2_banks.empty());

    sim::EngineConfig packet8 = scalar;
    packet8.rt.packet.width = 8;
    sim::EngineReport p = sim::Engine(packet8).run(bvh, rays);
    EXPECT_EQ(p.unit.cycles, 10154u);
    EXPECT_EQ(p.unit.datapath_beats, 4793u);
    EXPECT_EQ(p.unit.slots.total() - p.unit.slots[obs::Slot::Issued], 5361u);
    EXPECT_EQ(p.unit.mem_requests, 968u);
    EXPECT_EQ(p.unit.slots.memoryStallSlots(), 5027u);
    EXPECT_EQ(p.unit.chip_cycles, 0u);
    EXPECT_TRUE(p.unit.l2_banks.empty());
}

TEST(Chip, HitsBitIdenticalToScalarAcrossChipGrid)
{
    // Memory timing must never change intersection results: every
    // chip configuration — unit counts, L2 modes, packets, multi-issue,
    // MSHRs, any-hit — produces hit records bit-identical to the
    // scalar single-unit engine.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig ref_cfg;
    ref_cfg.threads = 1;
    ref_cfg.batch_size = 64;
    sim::EngineReport ref = sim::Engine(ref_cfg).run(bvh, rays);

    for (unsigned units : {1u, 2u, 4u}) {
        for (sim::L2Mode l2 : {sim::L2Mode::Off, sim::L2Mode::Shared,
                               sim::L2Mode::Private}) {
            sim::EngineConfig cfg = chipConfig(units, l2);
            sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
            ASSERT_EQ(rep.hits.size(), ref.hits.size());
            for (size_t i = 0; i < rays.size(); ++i)
                EXPECT_TRUE(bitIdentical(rep.hits[i], ref.hits[i]))
                    << "units=" << units << " l2=" << int(l2)
                    << " ray " << i;
            EXPECT_EQ(rep.unit.rays_completed, rays.size());
        }
    }

    // Every PR-4/5 knob at once on a wide chip.
    sim::EngineConfig loaded = chipConfig(8, sim::L2Mode::Shared);
    loaded.rt.packet.width = 4;
    loaded.rt.issue_width = 2;
    loaded.rt.mshrs = 4;
    sim::EngineReport rep = sim::Engine(loaded).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        EXPECT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;

    // Any-hit chip runs agree with the any-hit scalar engine on the
    // occlusion flag (the only defined field).
    sim::EngineReport any_ref = sim::Engine(ref_cfg).run(bvh, rays, true);
    sim::EngineReport any_chip =
        sim::Engine(chipConfig(4, sim::L2Mode::Shared))
            .run(bvh, rays, true);
    for (size_t i = 0; i < rays.size(); ++i)
        EXPECT_EQ(any_chip.hits[i].hit, any_ref.hits[i].hit) << i;
}

TEST(Chip, L2StatsMergeIsCommutative)
{
    // The bank vector merges elementwise with the shorter side
    // zero-extended, so merging in either order gives the same totals —
    // the property that lets sharded workers aggregate chip batches in
    // claim order.
    L2Stats x{1, 2, 3, 4, 5, 6};
    L2Stats y{10, 20, 30, 40, 50, 60};
    L2Stats xy = x, yx = y;
    xy.merge(y);
    yx.merge(x);
    EXPECT_EQ(xy, yx);
    EXPECT_EQ(xy.hits, 11u);
    EXPECT_EQ(xy.cross_unit_merges, 44u);
    EXPECT_EQ(xy.hops, 66u);

    RtUnitStats a, b;
    a.chip_cycles = 100;
    a.l2_banks = {L2Stats{1, 1, 0, 0, 2, 4}, L2Stats{0, 3, 1, 1, 0, 2}};
    b.chip_cycles = 50;
    b.l2_banks = {L2Stats{5, 0, 0, 0, 1, 0}, L2Stats{2, 2, 2, 1, 3, 6},
                  L2Stats{7, 0, 0, 0, 0, 8}, L2Stats{0, 1, 0, 0, 0, 0}};
    RtUnitStats ab = a, ba = b;
    ab.merge(b);
    ba.merge(a);
    EXPECT_EQ(ab, ba);
    EXPECT_EQ(ab.chip_cycles, 150u);
    ASSERT_EQ(ab.l2_banks.size(), 4u);
    EXPECT_EQ(ab.l2_banks[0].hits, 6u);
    EXPECT_EQ(ab.l2_banks[2].hops, 8u);
    EXPECT_EQ(ab.l2Total().misses, 7u);
}

TEST(Chip, DividedAcrossSplitsCapacityExactlyOrThrows)
{
    // The iso-capacity helper behind Private-vs-Shared comparisons: a
    // per-unit config with total capacity preserved, and a hard error
    // when the set count cannot split evenly (a silent rounding of
    // sets would quietly change the capacity under comparison).
    const L2Config per = kProbeL2_128KiB.dividedAcross(4);
    EXPECT_EQ(per.sets, kProbeL2_128KiB.sets / 4);
    EXPECT_EQ(per.ways, kProbeL2_128KiB.ways);
    EXPECT_EQ(per.banks, kProbeL2_128KiB.banks);
    EXPECT_EQ(per.line_bytes, kProbeL2_128KiB.line_bytes);
    EXPECT_EQ(4 * per.capacityBytes(), kProbeL2_128KiB.capacityBytes());
    EXPECT_EQ(kProbeL2_128KiB.dividedAcross(1), kProbeL2_128KiB);

    EXPECT_THROW(kProbeL2_128KiB.dividedAcross(0),
                 std::invalid_argument);
    L2Config odd = kProbeL2_128KiB;
    odd.sets = 6;
    EXPECT_THROW(odd.dividedAcross(4), std::invalid_argument);
    EXPECT_EQ(odd.dividedAcross(3).sets, 2u);
}

TEST(Chip, ChipReportIsWorkerCountInvariant)
{
    // The full chip report — hits, timing, per-bank L2 counters,
    // chip_cycles — must be bit-identical at 1, 2 and 8 workers: chips
    // are constructed per batch, so sharing never crosses a batch
    // boundary and the merge order cannot matter.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig base = chipConfig(4, sim::L2Mode::Shared);
    base.batch_size = 32; // 10 batches: enough to shard meaningfully
    base.rt.packet.width = 4;
    base.rt.mshrs = 4;
    sim::EngineReport ref = sim::Engine(base).run(bvh, rays);
    EXPECT_GT(ref.unit.chip_cycles, 0u);
    EXPECT_EQ(ref.unit.l2_banks.size(), size_t(kProbeL2_128KiB.banks));

    for (unsigned threads : {2u, 8u}) {
        sim::EngineConfig cfg = base;
        cfg.threads = threads;
        sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);
        for (size_t i = 0; i < rays.size(); ++i)
            EXPECT_TRUE(bitIdentical(rep.hits[i], ref.hits[i])) << i;
        EXPECT_EQ(rep.unit, ref.unit) << threads << " workers";
    }
}

TEST(Chip, CrossUnitMergesAndConservationOnCoherentRays)
{
    // Round-robin distribution puts adjacent camera rays on different
    // units, so units walk the same subtrees concurrently: a shared L2
    // must observe cross-unit merges. And with L1 and L2 line sizes
    // equal, every missed L1 line is exactly one L2 line lookup, so
    // the L2's hits + misses + merges must equal the L1s' summed
    // misses — nothing is dropped or double-counted between the tiers.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0); // purely coherent

    sim::EngineConfig cfg = chipConfig(4, sim::L2Mode::Shared);
    cfg.batch_size = 0; // one batch: one chip serves all rays
    sim::EngineReport rep = sim::Engine(cfg).run(bvh, rays);

    const L2Stats l2 = rep.unit.l2Total();
    EXPECT_GT(l2.cross_unit_merges, 0u);
    EXPECT_GT(l2.hits, 0u);
    EXPECT_GT(l2.hops, 0u);
    ASSERT_EQ(kProbeCache4KiB.line_bytes, kProbeL2_128KiB.line_bytes);
    EXPECT_EQ(l2.hits + l2.misses + l2.merges, rep.unit.mem.misses);

    // A private L2 sees the same L1 miss stream but can never merge
    // across units.
    sim::EngineConfig priv = cfg;
    priv.chip.l2 = sim::L2Mode::Private;
    sim::EngineReport prep = sim::Engine(priv).run(bvh, rays);
    EXPECT_EQ(prep.unit.l2Total().cross_unit_merges, 0u);
}

TEST(Chip, SharedL2OutperformsEqualCapacityPrivateAtFourUnits)
{
    // The acceptance property behind BM_UnitScalingSweep: at 4 units,
    // one shared 128 KiB L2 finishes the batch in fewer chip cycles
    // than per-unit private L2s of the same TOTAL capacity (sets
    // divided by the unit count) — the shared array holds the whole
    // working set once instead of replicating it four times, and
    // cross-unit merges absorb duplicate DRAM fills.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 48);

    sim::EngineConfig shared = chipConfig(4, sim::L2Mode::Shared);
    shared.batch_size = 0;
    sim::EngineReport s = sim::Engine(shared).run(bvh, rays);

    sim::EngineConfig priv = shared;
    priv.chip.l2 = sim::L2Mode::Private;
    priv.chip.l2cfg = kProbeL2_128KiB.dividedAcross(4); // iso-capacity
    sim::EngineReport p = sim::Engine(priv).run(bvh, rays);

    EXPECT_LT(s.unit.chip_cycles, p.unit.chip_cycles);
    EXPECT_GT(s.unit.l2Total().hitRate(), p.unit.l2Total().hitRate());
}

TEST(Chip, UnitCountClampsToChipBounds)
{
    // units is clamped to 1..kMaxChipUnits inside the batch runner:
    // 0 behaves as 1 and anything above the ceiling as kMaxChipUnits,
    // so a sweep driver can pass raw knob values safely.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 16);

    sim::EngineReport zero =
        sim::Engine(chipConfig(0, sim::L2Mode::Shared)).run(bvh, rays);
    sim::EngineReport one =
        sim::Engine(chipConfig(1, sim::L2Mode::Shared)).run(bvh, rays);
    EXPECT_EQ(zero.unit, one.unit);

    sim::EngineReport over =
        sim::Engine(chipConfig(99, sim::L2Mode::Shared)).run(bvh, rays);
    sim::EngineReport max =
        sim::Engine(chipConfig(sim::kMaxChipUnits, sim::L2Mode::Shared))
            .run(bvh, rays);
    EXPECT_EQ(over.unit, max.unit);
    for (size_t i = 0; i < rays.size(); ++i)
        EXPECT_TRUE(bitIdentical(over.hits[i], one.hits[i])) << i;
}

TEST(Chip, FunctionalModelIgnoresChipSettings)
{
    // The Functional model has no memory system: chip settings are
    // ignored there, not an error.
    Bvh4 bvh = testScene();
    std::vector<Ray> rays = testRays(bvh, 0);

    sim::EngineConfig fn = chipConfig(4, sim::L2Mode::Shared);
    fn.model = sim::ExecutionModel::Functional;
    sim::EngineConfig fn_ref;
    fn_ref.threads = 1;
    fn_ref.model = sim::ExecutionModel::Functional;
    sim::EngineReport a = sim::Engine(fn).run(bvh, rays);
    sim::EngineReport b = sim::Engine(fn_ref).run(bvh, rays);
    for (size_t i = 0; i < rays.size(); ++i)
        EXPECT_TRUE(bitIdentical(a.hits[i], b.hits[i])) << i;
}
