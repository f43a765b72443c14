/**
 * @file
 * Datapath configuration: the design space explored by the paper.
 *
 * The paper's evaluation (Section VI) sweeps three dimensions:
 *  1. target clock frequency (synthesis model only),
 *  2. baseline vs extended functionality,
 *  3. unified vs disjoint functional-unit pools.
 *
 * Functionally, only the baseline/extended axis matters (baseline rejects
 * Euclidean/cosine opcodes); unified/disjoint changes the hardware
 * provisioning, which the synthesis library models. The perturb_squarers
 * flag reproduces the paper's squarer-specialization ablation
 * (Section VII-B): when set, stage-3 multipliers of the disjoint design
 * are prevented from receiving both inputs from the same wire, which
 * removes the synthesizer's ability to specialize them into squarers.
 */
#ifndef RAYFLEX_CORE_CONFIG_HH
#define RAYFLEX_CORE_CONFIG_HH

#if __cplusplus < 202002L
#error "rayflex requires C++20 (std::countl_zero, defaulted operator==); \
build through the provided CMakeLists.txt or pass -std=c++20"
#endif

#include <string>

namespace rayflex::core
{

/**
 * How per-operation SRFDS fields map onto physical pipeline registers
 * (the Section VII-A discussion). RayFlex's released design registers
 * each operation's fields disjointly; the paper sketches an alternative
 * that shares registers across operations by casting the SRFDS with
 * .asTypeOf (a union in C terms), whose benefit depends on how well
 * field lifetimes align.
 */
enum class RegisterPolicy : uint8_t {
    /** Disjoint registers per operation (the paper's choice): at each
     *  stage the register bits are the *sum* of every supported
     *  operation's live bits. Simple, but sequential area grows ~64%
     *  when the distance ops are added. */
    DisjointPerOp,
    /** Shared union with optimally aligned lifetimes: fields of
     *  different operations with the same lifetime occupy the same
     *  bits, so each stage registers the *maximum* of the per-op live
     *  bits - the best case the paper's optimization aims for. */
    SharedUnionAligned,
    /** Shared union with pessimal alignment: every bit of the union
     *  stays live at every stage because some operation reads it late -
     *  dead-node elimination removes nothing (the worst case described
     *  in Section VII-A). */
    SharedUnionWorstCase,
};

/** Short label for reports. */
const char *registerPolicyName(RegisterPolicy p);

/** Configuration of a RayFlex datapath instance. */
struct DatapathConfig
{
    /** Support Euclidean/cosine distance ops (the Section V-A case
     *  study). */
    bool extended = false;

    /** Use private functional units per operation at each stage instead
     *  of the shared pool (the Section V-B case study). All operations
     *  still enter the same pipeline. */
    bool disjoint = false;

    /** Ablation: defeat squarer specialization in the disjoint stage-3
     *  multiplier pool (Section VII-B). */
    bool perturb_squarers = false;

    /** BVH node width: boxes tested per ray-box beat. 4 matches the
     *  RDNA2/3 ISA, 6 the Mesa software BVH, up to kMaxBoxesPerOp.
     *  Every box-lane resource in the datapath and the synthesis model
     *  scales with this. */
    unsigned box_width = 4;

    /** Pipeline-register organization (synthesis model only; the
     *  functional behaviour is identical). */
    RegisterPolicy register_policy = RegisterPolicy::DisjointPerOp;

    /** Section III-F study: forgo rounding after intermediate
     *  additions/multiplications. The synthesis model drops the
     *  rounding-circuit share of each adder/multiplier; the numerical
     *  consequence (results drifting from the per-op-rounded golden
     *  model) is quantified by bench_ablation_rounding with the
     *  unrounded golden variants. */
    bool skip_intermediate_rounding = false;

    /** Short identifier such as "baseline-unified", as used in the
     *  paper's figures. */
    std::string
    name() const
    {
        std::string s = extended ? "extended" : "baseline";
        s += disjoint ? "-disjoint" : "-unified";
        if (perturb_squarers)
            s += "-perturbed";
        if (box_width != 4)
            s += "-w" + std::to_string(box_width);
        if (register_policy == RegisterPolicy::SharedUnionAligned)
            s += "-sharedreg";
        else if (register_policy == RegisterPolicy::SharedUnionWorstCase)
            s += "-sharedreg-worst";
        if (skip_intermediate_rounding)
            s += "-norounding";
        return s;
    }

    friend bool operator==(const DatapathConfig &,
                           const DatapathConfig &) = default;
};

/** The four configurations evaluated in Figures 7-9. */
inline constexpr DatapathConfig kBaselineUnified{false, false, false};
inline constexpr DatapathConfig kBaselineDisjoint{false, true, false};
inline constexpr DatapathConfig kExtendedUnified{true, false, false};
inline constexpr DatapathConfig kExtendedDisjoint{true, true, false};

/** Number of pipeline stages (fixed latency, Section III-D). */
inline constexpr unsigned kNumStages = 11;

/** Pipeline latency in cycles (one per stage). */
inline constexpr unsigned kPipelineLatency = 11;

} // namespace rayflex::core

#endif // RAYFLEX_CORE_CONFIG_HH
