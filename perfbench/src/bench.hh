/**
 * @file
 * Shared pieces of the repository benchmark: the metric table, host
 * spans, the run outcome every workload reports, and the workload
 * interface that main.cc drives.
 *
 * Two clocks appear in every workload. The host clock is how fast the
 * simulator runs: the process's CPU time, scaled to a reference core,
 * for the end-to-end metrics (cpuSeconds, coreProbeSeconds), and
 * std::chrono::steady_clock for the spans. The modeled clock is the
 * simulated cycle count of the RT-unit model. Modeled numbers are
 * bit-deterministic for a seed; host numbers are measured.
 */
#ifndef RAYFLEX_PERFBENCH_BENCH_HH
#define RAYFLEX_PERFBENCH_BENCH_HH

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bvh/rt_unit.hh"
#include "sim/engine.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** CPU seconds the process has used, over all its threads. Host
 *  metrics are timed on it rather than on the wall clock: on a shared
 *  machine a run that waits for a core loses wall time, not CPU time. */
inline double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/**
 * CPU seconds of a fixed piece of ordinary code (random floats, a sort,
 * a hash map, small allocations) that uses nothing from src/. On a
 * shared machine a core runs the same code up to a third slower for
 * minutes at a time while other tenants load the host; this probe
 * slows with it, so a host time taken
 * between two probes can be scaled to a reference core.
 */
double coreProbeSeconds();

/** coreProbeSeconds() on the reference core that end-to-end host
 *  times are quoted for: a host time t taken between probes p1 and p2
 *  is reported as t * kReferenceProbeSeconds / ((p1 + p2) / 2). */
constexpr double kReferenceProbeSeconds = 0.07;

/** Median of a non-empty sample (mean of the middle pair when even). */
double median(std::vector<double> v);

/** Nearest-rank percentile (0 < q <= 1) of a non-empty sample. */
template <typename T>
T
percentile(std::vector<T> v, double q)
{
    std::sort(v.begin(), v.end());
    const size_t rank = size_t(std::ceil(q * double(v.size())));
    return v.at(std::clamp<size_t>(rank, 1, v.size()) - 1);
}

/** The bench scene of bench_sim_engine: terrain32 + sphere, built. */
std::unique_ptr<rayflex::bvh::Bvh4> buildBenchScene();

/** Metrics in insertion order; printed as the result's "metrics". */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0;
        std::string unit;
    };

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        for (Entry &e : entries_)
            if (e.name == name) {
                e.value = value;
                e.unit = unit;
                return;
            }
        entries_.push_back({name, value, unit});
    }

    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/**
 * Host spans recorded by the benchmark around calls into the model's
 * public entry points. Spans stay in memory and are written out once
 * at the end. A span's self time is its duration minus the part its
 * child spans cover.
 */
class SpanRecorder
{
  public:
    static constexpr size_t kNoParent = ~size_t(0);

    struct Span
    {
        std::string name;
        double start_s = 0; ///< seconds since the recorder was built
        double end_s = 0;
        size_t parent = kNoParent;
    };

    SpanRecorder() : t0_(Clock::now()) {}

    size_t open(std::string name);
    void close(size_t id);

    /** Sum of the durations of every span called `name`. */
    double total(const std::string &name) const;
    /** Durations of every span called `name`, in recording order. */
    std::vector<double> durations(const std::string &name) const;
    /** Sum over spans called `name` of (duration - children). */
    double selfTotal(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** RAII span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.open(std::move(name)))
    {}
    ~ScopedSpan() { rec_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &rec_;
    size_t id_;
};

/** FNV-1a over the outputs of a run: equal digests on two commits mean
 *  equal outputs. */
class Digest
{
  public:
    void
    bytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 1099511628211ull;
        }
    }
    void u64(uint64_t v) { bytes(&v, sizeof v); }
    void
    f32(float f)
    {
        uint32_t u = 0;
        std::memcpy(&u, &f, sizeof u);
        bytes(&u, sizeof u);
    }
    void
    hit(const rayflex::bvh::HitRecord &h)
    {
        u64(h.hit);
        f32(h.t);
        u64(h.triangle_id);
        f32(h.u);
        f32(h.v);
        f32(h.w);
    }
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ull;
};

/** Per-job modeled service record (stream_mix). */
struct JobTiming
{
    uint64_t rays = 0;
    uint64_t latency = 0;    ///< completion - arrival, cycles
    uint64_t queue_wait = 0; ///< first service - arrival, cycles
    bool small = false;      ///< one of the small jobs
};

/**
 * What one run of a workload reports. Every modeled field is a pure
 * function of the seed, so two runs of one build must agree on all of
 * them exactly (sameModel); `host_seconds` is the only measured field.
 */
struct RunOutcome
{
    uint64_t items = 0;
    /** Modeled wall cycles: chip ticks for chip workloads, unit cycles
     *  otherwise, summed over batches in sequence. */
    uint64_t wall_cycles = 0;
    rayflex::bvh::RtUnitStats unit;
    uint64_t digest = 0;
    /** Outputs compared with the reference (pixels on frame_chip,
     *  queries on knn_search, rays on stream_mix), and how many of
     *  them differ from it. */
    uint64_t checked = 0;
    uint64_t failed = 0;
    /** Modeled latency of each job, cycles. frame_chip and knn_search
     *  run one closed-loop job (the whole frame / query set). */
    std::vector<uint64_t> job_latency;
    /** stream_mix only: per-job service records and the makespan. */
    std::vector<JobTiming> jobs;
    uint64_t makespan = 0;

    double host_seconds = 0; ///< CPU seconds of the run, unscaled
};

/** True when every modeled field of two outcomes is identical. */
bool sameModel(const RunOutcome &a, const RunOutcome &b);

/** Host CPU seconds spent in the parts of set-up. */
struct SetupTimes
{
    double bvh_build_s = 0; ///< BVH or KnnIndex build
    double inputs_s = 0;    ///< input generation
    double engine_s = 0;    ///< engine construction

    double total() const { return bvh_build_s + inputs_s + engine_s; }

    SetupTimes
    scaled(double k) const
    {
        return {bvh_build_s * k, inputs_s * k, engine_s * k};
    }
};

/**
 * One benchmark workload. main.cc calls setup() several times (the
 * last one stays), reference() once, then run() repeatedly for the
 * end-to-end metrics or runTraced() for the per-layer ones.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the scene or index, generate the inputs from `seed`, and
     *  construct the engine with `threads` workers. */
    virtual SetupTimes setup(uint64_t seed, unsigned threads) = 0;

    /** Compute the reference outputs run() is checked against.
     *  @return functional-model items per host second, or 0 when the
     *          reference is not a functional-model run. */
    virtual double reference() = 0;

    /** One untraced end-to-end run through the workload's top-level
     *  entry point. */
    virtual RunOutcome run() = 0;

    /** run() under a span, on the one-worker engine of the last
     *  setup(); then the same inputs through the entry points one level
     *  down (the executor per batch, the scheduler's plan), with a span
     *  around each call. The outcome is run()'s, so it must agree with
     *  an untraced run() on every modeled field; the calls one level
     *  down only feed the spans. */
    virtual RunOutcome runTraced(SpanRecorder &spans) = 0;

    /** Workload-specific per-layer metrics: those read off the traced
     *  outcome, plus those that need extra model calls (RtUnit::run on
     *  one batch, the cold/steady split). */
    virtual void layerMetrics(const RunOutcome &traced, SpanRecorder &spans,
                              Metrics &m) = 0;

    /** The engine configuration the cost model prices. */
    virtual const rayflex::sim::EngineConfig &engineConfig() const = 0;
};

std::unique_ptr<Workload> makeFrameChip();
std::unique_ptr<Workload> makeKnnSearch();
std::unique_ptr<Workload> makeStreamMix();

/** The layer ladder: ns per op from the softfloat op up to the
 *  pipelined datapath beat, on a seeded beat sample. */
void runLadder(uint64_t seed, SpanRecorder &spans, Metrics &m);

/** Host nanoseconds per op of `chunk` (which performs `ops` ops):
 *  the median over repeated chunks, run for at least `min_seconds`. */
template <typename F>
double
nsPerOp(F &&chunk, size_t ops, double min_seconds = 0.15)
{
    std::vector<double> per_op;
    const Clock::time_point begin = Clock::now();
    while (per_op.size() < 5 ||
           secondsBetween(begin, Clock::now()) < min_seconds) {
        const Clock::time_point t0 = Clock::now();
        chunk();
        const Clock::time_point t1 = Clock::now();
        per_op.push_back(secondsBetween(t0, t1) * 1e9 / double(ops));
    }
    return median(per_op);
}

/** Sink for values a timing loop must not optimize away. */
void consume(uint64_t v);

/** sim.executor.steady_items_per_kcycle and warmup_kcycles from the
 *  modeled cycles of one batch of batch/2 items and one of `batch`
 *  items of the same inputs, read as cycles(n) = warmup + n / steady. */
void setColdSteady(Metrics &m, size_t batch, uint64_t half_cycles,
                   uint64_t full_cycles);

/** The cold/steady split of a ray workload: the closest-hit rays
 *  `rays[0, batch)` through `exec` as one batch of batch/2 and one of
 *  `batch`, each on a freshly built unit or chip. */
void coldSteadyRays(const rayflex::sim::BatchExecutor &exec,
                    const rayflex::core::Ray *rays, size_t batch,
                    SpanRecorder &spans, Metrics &m);

/** Time RtUnit::run on a unit with its batch already submitted:
 *  bvh.rt_unit.host_ns_per_cycle and host_ns_per_beat. */
void timeUnitRun(SpanRecorder &spans, rayflex::bvh::RtUnit &unit,
                 Metrics &m);

} // namespace perfbench

#endif // RAYFLEX_PERFBENCH_BENCH_HH
