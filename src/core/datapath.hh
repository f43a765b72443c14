/**
 * @file
 * The assembled RayFlex datapath: an elastic pipeline of eleven RayFlex
 * Skid Buffer modules (Sections III-C and III-D).
 *
 * The first stage converts the external IO layout into the Shared RayFlex
 * Data Structure, the last stage converts back; every intermediate stage
 * carries the same SRFDS (Fig. 5b). The pipeline has a fixed latency of
 * 11 cycles and a throughput of one operation per cycle; there is no
 * central controller - stages synchronize only through their local
 * valid-ready handshakes.
 */
#ifndef RAYFLEX_CORE_DATAPATH_HH
#define RAYFLEX_CORE_DATAPATH_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "core/io_spec.hh"
#include "core/srfds.hh"
#include "core/stages.hh"
#include "pipeline/component.hh"
#include "pipeline/skid_buffer.hh"

namespace rayflex::core
{

/**
 * Operation-mode activity observed by a datapath instance: beats
 * processed per opcode plus total cycles. This is the model's analogue
 * of the VCD stimulus the paper feeds to the power tool - together with
 * the per-stage functional-unit inventory it determines dynamic power.
 */
struct ActivityTrace
{
    std::array<uint64_t, kNumOpcodes> beats{}; ///< beats per opcode
    uint64_t cycles = 0;                       ///< cycles simulated

    /** Total beats across all opcodes. */
    uint64_t
    totalBeats() const
    {
        uint64_t t = 0;
        for (uint64_t b : beats)
            t += b;
        return t;
    }
};

/**
 * The RayFlex intersection-test datapath.
 *
 * Drive DatapathInput beats into in() (e.g. with pipeline::Source) and
 * drain DatapathOutput beats from out() (e.g. with pipeline::Sink);
 * register the instance's components with a pipeline::Simulator via
 * registerWith(). Outputs appear exactly kPipelineLatency cycles after
 * their input beat is accepted when the pipeline is not back-pressured.
 *
 * This is the paper-fidelity model: every beat crosses eleven skid
 * buffers, each holding its own copy of the SRFDS, and the per-stage
 * statistics and activity trace come from that chain. A consumer that
 * is always ready never back-pressures it, so such a consumer may
 * keep only the timing: evaluate each beat once with nativeEval
 * (functionalEval's result computed in host floats; the equivalence
 * tests tie both to this chain bit for bit) and deliver it
 * kPipelineLatency cycles later. bvh::RtUnit's issue lanes do exactly
 * that; they read a datapath's config() and never tick it.
 */
class RayFlexDatapath
{
  public:
    explicit RayFlexDatapath(const DatapathConfig &cfg = kBaselineUnified);

    /** The datapath input port (producer side drives valid/bits). */
    pipeline::Decoupled<DatapathInput> &in() { return stage1_->in(); }

    /** The datapath output port (consumer side drives ready). */
    pipeline::Decoupled<DatapathOutput> &out() { return stage11_->out(); }

    /** Register every pipeline stage with the simulation kernel. */
    void registerWith(pipeline::Simulator &sim);

    /** This instance's configuration. */
    const DatapathConfig &config() const { return cfg_; }

    /** True when the configuration implements the given opcode.
     *  The baseline pipeline supports only ray-box and ray-triangle. */
    bool
    supports(Opcode op) const
    {
        return cfg_.extended ||
               (op == Opcode::RayBox || op == Opcode::RayTriangle);
    }

    /** Activity observed so far (input: beats per op; set by stage 1). */
    const ActivityTrace &activity() const { return activity_; }

    /** Reset activity counters (not accumulator state). */
    void resetActivity() { activity_ = {}; }

    /** Count cycles into the activity trace; call once per simulated
     *  cycle when collecting power stimuli. */
    void countCycle() { ++activity_.cycles; }

    /** Per-stage statistics, stage 1 first. */
    std::vector<const pipeline::SkidBufferBase *> stages() const;

    /** Current accumulator registers (testing/inspection). */
    const DistanceAccumulators &accumulators() const { return acc_; }

  private:
    using MidBuffer = pipeline::SkidBuffer<Srfds, Srfds>;

    DatapathConfig cfg_;
    DistanceAccumulators acc_;
    ActivityTrace activity_;

    std::unique_ptr<pipeline::SkidBuffer<DatapathInput, Srfds>> stage1_;
    std::vector<std::unique_ptr<MidBuffer>> mids_; ///< stages 2..10
    std::unique_ptr<pipeline::SkidBuffer<Srfds, DatapathOutput>> stage11_;
};

/**
 * Convenience single-threaded driver: pushes a batch of inputs through a
 * freshly simulated datapath at full throughput and returns the outputs
 * in order. Also returns the cycle count via out-parameter when given.
 */
std::vector<DatapathOutput> runBatch(RayFlexDatapath &dp,
                                     const std::vector<DatapathInput> &in,
                                     uint64_t *cycles_out = nullptr);

} // namespace rayflex::core

#endif // RAYFLEX_CORE_DATAPATH_HH
