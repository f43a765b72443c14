/**
 * @file
 * The layer ladder: host ns per op at each rung below the RT unit, on
 * a seeded beat sample. A regression at one rung names its layer:
 *
 *   fp.add_ns / fp.mul_ns            softfloat op        (src/fp)
 *   core.golden.raybox4_ns           golden 4-box test   (src/core/golden)
 *   core.functional.*_beat_ns        functionalEval beat (src/core/stages)
 *   core.datapath.pipelined_beat_ns  runBatch beat       (src/core/datapath)
 */
#include "bench.hh"
#include "core/datapath.hh"
#include "core/golden.hh"
#include "core/stages.hh"
#include "core/workloads.hh"
#include "fp/float32.hh"

namespace perfbench
{

using namespace rayflex;

namespace
{

/** ns per softfloat op over 2^16 seeded operand pairs. */
template <typename Op>
double
softfloatRung(uint64_t seed, Op op)
{
    core::WorkloadGen gen(seed);
    std::vector<fp::F32> a(1 << 16), b(1 << 16);
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = fp::toBits(gen.uniform(-1e3f, 1e3f));
        b[i] = fp::toBits(gen.uniform(-1e3f, 1e3f));
    }
    return nsPerOp(
        [&] {
            uint64_t acc = 0;
            for (size_t i = 0; i < a.size(); ++i)
                acc += op(a[i], b[i]);
            consume(acc);
        },
        a.size());
}

/** ns per functionalEval beat over a seeded batch of one opcode. */
double
functionalRung(uint64_t seed, core::Opcode op)
{
    core::WorkloadGen gen(seed);
    const std::vector<core::DatapathInput> batch = gen.batch(op, 256);
    return nsPerOp(
        [&] {
            core::DistanceAccumulators acc;
            uint64_t sink = 0;
            for (const core::DatapathInput &in : batch) {
                const core::DatapathOutput out =
                    core::functionalEval(in, acc);
                sink += out.box.order[0] + out.tri.hit +
                        out.euclidean_accumulator + out.angular_norm;
            }
            consume(sink);
        },
        batch.size());
}

} // namespace

void
runLadder(uint64_t seed, SpanRecorder &spans, Metrics &m)
{
    ScopedSpan ladder(spans, "ladder");
    {
        ScopedSpan s(spans, "ladder.fp");
        m.set("fp.add_ns", softfloatRung(seed, fp::addF32), "ns");
        m.set("fp.mul_ns", softfloatRung(seed + 1, fp::mulF32), "ns");
    }
    {
        ScopedSpan s(spans, "ladder.core.golden");
        core::WorkloadGen gen(seed + 2);
        const auto batch = gen.batch(core::Opcode::RayBox, 256);
        m.set("core.golden.raybox4_ns",
              nsPerOp(
                  [&] {
                      uint64_t sink = 0;
                      for (const core::DatapathInput &in : batch)
                          sink += core::golden::rayBox4(in.ray, in.boxes)
                                      .hit[0];
                      consume(sink);
                  },
                  batch.size()),
              "ns");
    }
    {
        ScopedSpan s(spans, "ladder.core.functional");
        m.set("core.functional.box_beat_ns",
              functionalRung(seed + 3, core::Opcode::RayBox), "ns");
        m.set("core.functional.tri_beat_ns",
              functionalRung(seed + 4, core::Opcode::RayTriangle), "ns");
        m.set("core.functional.euclid_beat_ns",
              functionalRung(seed + 5, core::Opcode::Euclidean), "ns");
        m.set("core.functional.cosine_beat_ns",
              functionalRung(seed + 6, core::Opcode::Cosine), "ns");
    }
    {
        ScopedSpan s(spans, "ladder.core.datapath");
        core::WorkloadGen gen(seed + 7);
        const auto batch = gen.batch(core::Opcode::RayBox, 512);
        m.set("core.datapath.pipelined_beat_ns",
              nsPerOp(
                  [&] {
                      core::RayFlexDatapath dp(core::kExtendedUnified);
                      consume(core::runBatch(dp, batch).size());
                  },
                  batch.size(), 0.3),
              "ns");
    }
}

} // namespace perfbench
