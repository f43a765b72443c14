/**
 * @file
 * rfbench: the repository benchmark program.
 *
 *   rfbench --workload frame_chip|knn_search|stream_mix --seed N
 *           --seconds S --trace 0|1 [--commit SHA] [--trace-out FILE]
 *
 * --trace 0 measures the end-to-end metrics: set up for kSetupSeconds,
 * compute the reference outputs, then repeat the untraced workload for
 * S seconds, and at least kMinReps times, on one engine worker, setting
 * up again for kSetupSeconds after each repetition. Host times are CPU
 * seconds scaled to the reference core (bench.hh); setup_s is the
 * median set-up and host_items_per_s the median repetition's rate.
 * --trace 1 measures the per-layer metrics: the layer ladder, then the
 * workload untraced on kCheckThreads workers and on one, then traced on
 * one, with host spans around the calls into each module. Both modes
 * check the outputs against the reference and demand bit-identical
 * modeled results from every run; a mismatch between runs exits with
 * code 3 and prints no result.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics of the mode, each with its unit.
 */
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hh"
#include "synth/chip_cost.hh"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using rayflex::obs::Slot;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. Each is printed on every
 *  workload; a layer the workload does not exercise reads 0. */
const MetricDef kPerLayer[] = {
    {"fp.add_ns", "ns"},
    {"fp.mul_ns", "ns"},
    {"core.golden.raybox4_ns", "ns"},
    {"core.functional.box_beat_ns", "ns"},
    {"core.functional.tri_beat_ns", "ns"},
    {"core.functional.euclid_beat_ns", "ns"},
    {"core.functional.cosine_beat_ns", "ns"},
    {"core.datapath.pipelined_beat_ns", "ns"},
    {"bvh.traversal.functional_items_per_s", "1/s"},
    {"bvh.rt_unit.host_ns_per_cycle", "ns"},
    {"bvh.rt_unit.host_ns_per_beat", "ns"},
    {"bvh.rt_unit.beats_per_cycle", "beats/cycle"},
    {"obs.slot.issued_share", "ratio"},
    {"obs.slot.l1_miss_share", "ratio"},
    {"obs.slot.mshr_full_share", "ratio"},
    {"obs.slot.ring_hop_share", "ratio"},
    {"obs.slot.l2_bank_queue_share", "ratio"},
    {"obs.slot.l2_fill_share", "ratio"},
    {"obs.slot.drain_share", "ratio"},
    {"obs.slot.idle_share", "ratio"},
    {"bvh.mem_model.l1_hit_rate", "ratio"},
    {"bvh.mem_model.l1_requests_per_item", "count"},
    {"bvh.mem_model.mshr_merges_per_item", "count"},
    {"bvh.mem_model.mshr_stalls_per_item", "count"},
    {"bvh.mem_model.l2_hit_rate", "ratio"},
    {"bvh.mem_model.l2_cross_unit_merges_per_item", "count"},
    {"bvh.mem_model.l2_queue_stalls_per_item", "cycles"},
    {"bvh.mem_model.l2_hops_per_item", "count"},
    {"bvh.packet.avg_occupancy", "lanes"},
    {"bvh.packet.fetches_shared_per_item", "count"},
    {"bvh.packet.cross_job_share_rate", "ratio"},
    {"bvh.knn.candidates_per_query", "count"},
    {"bvh.knn.pruned_per_query", "count"},
    {"bvh.knn.beats_per_query", "count"},
    {"bvh.knn.useful_candidate_share", "ratio"},
    {"bvh.knn.frontier_peak", "count"},
    {"sim.executor.batch_ms_p50", "ms"},
    {"sim.executor.batch_ms_p90", "ms"},
    {"sim.executor.batches", "count"},
    {"sim.executor.steady_items_per_kcycle", "items/kcycle"},
    {"sim.executor.warmup_kcycles", "kcycles"},
    {"sim.engine.worker_busy_share", "ratio"},
    {"sim.engine.self_share", "ratio"},
    {"sim.passes.primary_s", "s"},
    {"sim.passes.shadow_s", "s"},
    {"sim.passes.ao_s", "s"},
    {"sim.passes.bounce_s", "s"},
    {"sim.stream.plan_ms", "ms"},
    {"sim.stream.shared_batch_share", "ratio"},
    {"sim.stream.p95_queue_wait_kcycles", "kcycles"},
    {"sim.stream.fairness", "ratio"},
    {"sim.stream.makespan_kcycles", "kcycles"},
    {"synth.area_mm2", "mm2"},
    {"synth.power_w", "W"},
    {"synth.dynamic_share", "ratio"},
    {"setup.bvh_build_s", "s"},
    {"setup.inputs_s", "s"},
    {"trace_overhead_share", "ratio"},
};

/** Engine workers of the traced mode's extra untraced run, which must
 *  agree with the one-worker runs. The timed runs use one worker: its
 *  CPU time does not depend on how many cores a shared machine gives
 *  the process at the moment. */
constexpr unsigned kCheckThreads = 2;
/** CPU seconds of each round of set-ups. The rounds are spread over
 *  the run, so their median does not hang on one moment of a shared
 *  machine. */
constexpr double kSetupSeconds = 0.25;
/** Fewest repetitions of the timed workload, however long they take. */
constexpr size_t kMinReps = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string commit = "unknown";
    std::string trace_out;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v) != 0;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--trace-out")
            a.trace_out = v;
        else
            throw std::invalid_argument("unknown argument " + k);
    }
    return a;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "frame_chip")
        return makeFrameChip();
    if (name == "knn_search")
        return makeKnnSearch();
    if (name == "stream_mix")
        return makeStreamMix();
    throw std::invalid_argument("unknown workload '" + name + "'");
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

/** Modeled energy per item: chip power at 1 GHz times wall cycles
 *  (1 cycle = 1 ns, so W x cycles = nJ), over the items. */
double
energyNjPerItem(const rayflex::sim::EngineConfig &cfg, const RunOutcome &o)
{
    const rayflex::synth::ChipCostModel model;
    return model.power(cfg, o.unit, 1.0).total_w() *
           double(o.wall_cycles) / double(o.items);
}

/** Per-layer metrics read off a traced run's merged counters. */
void
modeledLayerMetrics(const RunOutcome &o, const rayflex::sim::EngineConfig &cfg,
                    Metrics &m)
{
    const rayflex::bvh::RtUnitStats &u = o.unit;
    const double items = double(o.items);
    m.set("bvh.rt_unit.beats_per_cycle",
          u.cycles ? double(u.datapath_beats) / double(u.cycles) : 0.0,
          "beats/cycle");

    const double slots = double(u.slots.total());
    const std::pair<const char *, Slot> buckets[] = {
        {"obs.slot.issued_share", Slot::Issued},
        {"obs.slot.l1_miss_share", Slot::StallL1Miss},
        {"obs.slot.mshr_full_share", Slot::StallMshrFull},
        {"obs.slot.ring_hop_share", Slot::StallRingHop},
        {"obs.slot.l2_bank_queue_share", Slot::StallL2BankQueue},
        {"obs.slot.l2_fill_share", Slot::StallL2Fill},
        {"obs.slot.drain_share", Slot::StallDrain},
        {"obs.slot.idle_share", Slot::IdleNoWork},
    };
    for (const auto &[name, slot] : buckets)
        m.set(name, slots > 0 ? double(u.slots[slot]) / slots : 0.0,
              "ratio");

    const rayflex::bvh::L2Stats l2 = u.l2Total();
    m.set("bvh.mem_model.l1_hit_rate", u.mem.hitRate(), "ratio");
    m.set("bvh.mem_model.l1_requests_per_item",
          double(u.mem_requests) / items, "count");
    m.set("bvh.mem_model.mshr_merges_per_item",
          double(u.mshr.merges) / items, "count");
    m.set("bvh.mem_model.mshr_stalls_per_item",
          double(u.mshr.stalls_full) / items, "count");
    m.set("bvh.mem_model.l2_hit_rate", l2.hitRate(), "ratio");
    m.set("bvh.mem_model.l2_cross_unit_merges_per_item",
          double(l2.cross_unit_merges) / items, "count");
    m.set("bvh.mem_model.l2_queue_stalls_per_item",
          double(l2.queue_stalls) / items, "cycles");
    m.set("bvh.mem_model.l2_hops_per_item", double(l2.hops) / items,
          "count");
    m.set("bvh.packet.avg_occupancy", u.packet.avgOccupancy(), "lanes");
    m.set("bvh.packet.fetches_shared_per_item",
          double(u.packet.fetches_shared) / items, "count");
    m.set("bvh.packet.cross_job_share_rate",
          u.packet.fetches_shared
              ? double(u.packet.cross_job_fetches_shared) /
                    double(u.packet.fetches_shared)
              : 0.0,
          "ratio");

    const rayflex::bvh::KnnStats &k = u.knn;
    if (k.queries) {
        const double q = double(k.queries);
        m.set("bvh.knn.candidates_per_query", double(k.candidates) / q,
              "count");
        m.set("bvh.knn.pruned_per_query", double(k.pruned) / q, "count");
        m.set("bvh.knn.beats_per_query", double(k.distance_beats) / q,
              "count");
        m.set("bvh.knn.frontier_peak", double(k.frontier_peak), "count");
    }

    const rayflex::synth::ChipCostModel model;
    const auto power = model.power(cfg, u, 1.0);
    m.set("synth.area_mm2", model.area(cfg, 1.0).total_mm2(), "mm2");
    m.set("synth.power_w", power.total_w(), "W");
    m.set("synth.dynamic_share",
          power.total_w() > 0 ? power.dynamic_w() / power.total_w() : 0.0,
          "ratio");
}

/** Scale for a host time taken since `probe`: probes again, leaves the
 *  new probe in `probe` and returns the factor to the reference core. */
double
referenceScale(double &probe)
{
    const double next = coreProbeSeconds();
    const double scale = 2.0 * kReferenceProbeSeconds / (probe + next);
    probe = next;
    return scale;
}

/** Set up repeatedly for `seconds` of CPU time after `probe`, appending
 *  the times scaled to the reference core to `out`; the last set-up
 *  stays. */
void
setUpRound(Workload &wl, uint64_t seed, unsigned threads, double seconds,
           double &probe, std::vector<SetupTimes> &out)
{
    std::vector<SetupTimes> round;
    double spent = 0;
    do {
        round.push_back(wl.setup(seed, threads));
        spent += round.back().total();
    } while (spent < seconds);
    const double scale = referenceScale(probe);
    for (const SetupTimes &t : round)
        out.push_back(t.scaled(scale));
}

/** Per-layer metrics read off the host spans of a traced run. */
void
spanLayerMetrics(const SpanRecorder &spans, Metrics &m)
{
    const std::vector<double> batch =
        spans.durations("sim.executor.executeBatch");
    m.set("sim.executor.batches", double(batch.size()), "count");
    if (!batch.empty()) {
        m.set("sim.executor.batch_ms_p50", median(batch) * 1e3, "ms");
        m.set("sim.executor.batch_ms_p90", percentile(batch, 0.90) * 1e3,
              "ms");
    }
    // The engine level: Engine::run's batch loop, or StreamingService's
    // execute loop. One worker, so busy = batches / run.
    const double run = spans.total("sim.engine.run") +
                       spans.total("sim.stream.execute");
    if (run > 0) {
        double busy = 0;
        for (double d : batch)
            busy += d;
        m.set("sim.engine.worker_busy_share", busy / run, "ratio");
        m.set("sim.engine.self_share",
              (spans.selfTotal("sim.engine.run") +
               spans.selfTotal("sim.stream.execute")) /
                  run,
              "ratio");
    }
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const Metrics &m)
{
    for (const Metrics::Entry &e : m.entries())
        if (!std::isfinite(e.value))
            throw std::runtime_error("metric " + e.name + " is not finite");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed);
    bool first = true;
    for (const Metrics::Entry &e : m.entries()) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    first ? "" : ", ", e.name.c_str(), e.value,
                    e.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

[[noreturn]] void
nondeterministic(const char *what)
{
    std::fprintf(stderr,
                 "rfbench: NONDETERMINISM: %s disagree on a modeled "
                 "metric or the output digest\n",
                 what);
    std::exit(3);
}

int
runEndToEnd(const Args &a, Workload &wl)
{
    // Every round of set-ups and every repetition runs between two core
    // probes, which scale its CPU time to the reference core.
    double probe = coreProbeSeconds();
    std::vector<SetupTimes> setups;
    setUpRound(wl, a.seed, 1, kSetupSeconds, probe, setups);
    wl.reference(); // the inputs of every set-up are the same

    std::vector<RunOutcome> reps;
    std::vector<double> rate;
    const Clock::time_point begin = Clock::now();
    probe = coreProbeSeconds();
    while (reps.size() < kMinReps ||
           secondsBetween(begin, Clock::now()) < a.seconds) {
        reps.push_back(wl.run());
        rate.push_back(double(reps.back().items) /
                       (reps.back().host_seconds * referenceScale(probe)));
        if (!sameModel(reps.front(), reps.back()))
            nondeterministic("repetitions of the untraced run");
        setUpRound(wl, a.seed, 1, kSetupSeconds, probe, setups);
    }
    std::vector<double> setup;
    for (const SetupTimes &t : setups)
        setup.push_back(t.total());

    const RunOutcome &o = reps.front();
    Metrics m;
    m.set("setup_s", median(setup), "s");
    m.set("host_items_per_s", median(rate), "1/s");
    m.set("peak_rss_mb", peakRssMb(), "MB");
    m.set("items_per_kcycle",
          1000.0 * double(o.items) / double(o.wall_cycles), "items/kcycle");
    m.set("energy_nj_per_item", energyNjPerItem(wl.engineConfig(), o),
          "nJ");
    m.set("p50_job_latency_kcycles",
          double(percentile(o.job_latency, 0.50)) / 1000.0, "kcycles");
    m.set("p95_job_latency_kcycles",
          double(percentile(o.job_latency, 0.95)) / 1000.0, "kcycles");

    const double error_rate = double(o.failed) / double(o.checked);
    std::printf("# %zu set-ups, seconds on the reference core: min %.4g, "
                "median %.4g, max %.4g\n",
                setup.size(), *std::min_element(setup.begin(), setup.end()),
                median(setup), *std::max_element(setup.begin(), setup.end()));
    std::printf("# items per second on the reference core, per "
                "repetition:");
    for (double v : rate)
        std::printf(" %.6g", v);
    std::printf("\n");
    std::printf("# %s seed=%llu: %zu repetitions of %llu items, "
                "%zu job(s), one engine worker\n",
                a.workload.c_str(), (unsigned long long)a.seed, reps.size(),
                (unsigned long long)o.items, o.job_latency.size());
    for (const Metrics::Entry &e : m.entries())
        std::printf("#   %-26s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    std::printf("#   %-26s %14.6g %s\n", "error_rate", error_rate, "ratio");
    std::printf("#   %-26s %016llx\n", "output_digest",
                (unsigned long long)o.digest);
    printResult(o.failed == 0, o.checked * reps.size(),
                o.failed * reps.size(), m);
    return 0;
}

int
runTracedMode(const Args &a, Workload &wl)
{
    Metrics m;
    for (const MetricDef &d : kPerLayer)
        m.set(d.name, 0.0, d.unit);

    double probe = coreProbeSeconds();
    std::vector<SetupTimes> setups;
    setUpRound(wl, a.seed, kCheckThreads, 4 * kSetupSeconds, probe, setups);
    std::vector<double> bvh_build, inputs;
    for (const SetupTimes &t : setups) {
        bvh_build.push_back(t.bvh_build_s);
        inputs.push_back(t.inputs_s);
    }
    m.set("setup.bvh_build_s", median(bvh_build), "s");
    m.set("setup.inputs_s", median(inputs), "s");
    m.set("bvh.traversal.functional_items_per_s", wl.reference(), "1/s");

    SpanRecorder spans;
    runLadder(a.seed, spans, m);

    const RunOutcome untraced = wl.run(); // kCheckThreads workers
    wl.setup(a.seed, 1);
    const RunOutcome untraced1 = wl.run(); // one worker
    const RunOutcome traced = wl.runTraced(spans);
    if (!sameModel(untraced, traced) || !sameModel(untraced1, traced))
        nondeterministic("the traced 1-thread and untraced runs");

    m.set("trace_overhead_share",
          traced.host_seconds / untraced1.host_seconds - 1.0, "ratio");
    modeledLayerMetrics(traced, wl.engineConfig(), m);
    spanLayerMetrics(spans, m);
    wl.layerMetrics(traced, spans, m);

    if (!a.trace_out.empty() && !spans.writeChromeTrace(a.trace_out))
        std::fprintf(stderr, "rfbench: cannot write %s\n",
                     a.trace_out.c_str());

    std::printf("# %s seed=%llu traced: %llu items, %zu spans, digest "
                "%016llx%s%s\n",
                a.workload.c_str(), (unsigned long long)a.seed,
                (unsigned long long)traced.items, spans.spans().size(),
                (unsigned long long)traced.digest,
                a.trace_out.empty() ? "" : ", spans in ",
                a.trace_out.c_str());
    for (const Metrics::Entry &e : m.entries())
        std::printf("#   %-44s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    printResult(traced.failed == 0, traced.checked, traced.failed, m);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        std::unique_ptr<Workload> wl = makeWorkload(a.workload);
#ifdef __OPTIMIZE__
        const bool optimized = true;
#else
        const bool optimized = false;
        std::fprintf(stderr, "rfbench: WARNING: unoptimized build; host "
                             "timings are not comparable\n");
#endif
        std::printf("# machine: nproc=%u compiler=\"%s\" build=%s "
                    "optimized=%d commit=%s\n",
                    std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                    PERFBENCH_BUILD_TYPE, optimized ? 1 : 0,
                    a.commit.c_str());
        return a.trace ? runTracedMode(a, *wl) : runEndToEnd(a, *wl);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "rfbench: %s\n", e.what());
        return 1;
    }
}
