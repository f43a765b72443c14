/**
 * @file
 * Shared helpers of the repository benchmark (see bench.hh).
 */
#include "bench.hh"

#include "bvh/scene.hh"

#include <array>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <unordered_map>

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("median of an empty sample");
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::unique_ptr<rayflex::bvh::Bvh4>
buildBenchScene()
{
    auto tris = rayflex::bvh::makeTerrain(20.0f, 32, 0.5f, 11);
    auto sphere = rayflex::bvh::makeSphere({0, 2.0f, 0}, 2.0f, 16, 24,
                                           uint32_t(tris.size()));
    tris.insert(tris.end(), sphere.begin(), sphere.end());
    return std::make_unique<rayflex::bvh::Bvh4>(
        rayflex::bvh::buildBvh4(std::move(tris)));
}

size_t
SpanRecorder::open(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.start_s = secondsBetween(t0_, Clock::now());
    s.parent = stack_.empty() ? kNoParent : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(size_t id)
{
    spans_[id].end_s = secondsBetween(t0_, Clock::now());
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

double
SpanRecorder::total(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            t += s.end_s - s.start_s;
    return t;
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> d;
    for (const Span &s : spans_)
        if (s.name == name)
            d.push_back(s.end_s - s.start_s);
    return d;
}

double
SpanRecorder::selfTotal(const std::string &name) const
{
    // Spans nest strictly (RAII), so the children of a span cover
    // disjoint parts of it and their durations simply subtract.
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end_s - spans_[i].start_s;
    for (const Span &s : spans_)
        if (s.parent != kNoParent)
            self[s.parent] -= s.end_s - s.start_s;
    double t = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name)
            t += self[i];
    return t;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %lld}}\n",
                     i ? "," : "", s.name.c_str(), s.start_s * 1e6,
                     (s.end_s - s.start_s) * 1e6, i,
                     s.parent == kNoParent ? -1LL : (long long)s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

bool
sameModel(const RunOutcome &a, const RunOutcome &b)
{
    const auto sameJobs = [](const std::vector<JobTiming> &x,
                             const std::vector<JobTiming> &y) {
        if (x.size() != y.size())
            return false;
        for (size_t i = 0; i < x.size(); ++i)
            if (x[i].rays != y[i].rays || x[i].latency != y[i].latency ||
                x[i].queue_wait != y[i].queue_wait ||
                x[i].small != y[i].small)
                return false;
        return true;
    };
    return a.items == b.items && a.wall_cycles == b.wall_cycles &&
           a.unit == b.unit && a.digest == b.digest &&
           a.checked == b.checked && a.failed == b.failed &&
           a.job_latency == b.job_latency &&
           sameJobs(a.jobs, b.jobs) && a.makespan == b.makespan;
}

namespace
{
volatile uint64_t g_sink = 0;
} // namespace

void
consume(uint64_t v)
{
    g_sink = g_sink + v;
}

double
coreProbeSeconds()
{
    const double t0 = cpuSeconds();
    uint64_t acc = 0;
    for (uint64_t round = 0; round < 10; ++round) {
        std::mt19937_64 rng(round);
        std::uniform_real_distribution<float> u(-1.0f, 1.0f);
        std::vector<std::pair<uint32_t, uint32_t>> keys(1 << 15);
        for (size_t i = 0; i < keys.size(); ++i)
            keys[i] = {uint32_t((u(rng) + 1.0f) * 1e6f) ^
                           uint32_t((u(rng) + 1.0f) * 3e5f),
                       uint32_t(i)};
        std::sort(keys.begin(), keys.end());
        std::unordered_map<uint32_t, uint32_t> buckets;
        for (const auto &[key, i] : keys)
            buckets[key >> 4] += i;
        std::vector<std::unique_ptr<std::array<float, 8>>> nodes;
        for (size_t i = 0; i < 4096; ++i)
            nodes.push_back(std::make_unique<std::array<float, 8>>());
        acc += buckets.size() + nodes.size();
    }
    consume(acc);
    return cpuSeconds() - t0;
}

void
setColdSteady(Metrics &m, size_t batch, uint64_t half_cycles,
              uint64_t full_cycles)
{
    const double half_items = double(batch - batch / 2);
    const double extra = double(full_cycles) - double(half_cycles);
    const double steady = extra > 0 ? 1000.0 * half_items / extra : 0.0;
    m.set("sim.executor.steady_items_per_kcycle", steady, "items/kcycle");
    m.set("sim.executor.warmup_kcycles",
          (2.0 * double(half_cycles) - double(full_cycles)) / 1000.0,
          "kcycles");
}

void
coldSteadyRays(const rayflex::sim::BatchExecutor &exec,
               const rayflex::core::Ray *rays, size_t batch,
               SpanRecorder &spans, Metrics &m)
{
    std::vector<rayflex::bvh::HitRecord> hits(batch);
    std::vector<rayflex::sim::BatchRayRef> refs(batch);
    for (size_t i = 0; i < batch; ++i)
        refs[i] = {&rays[i], &hits[i], 0};
    ScopedSpan s(spans, "sim.executor.cold_steady");
    const uint64_t half =
        exec.executeBatch(refs.data(), batch / 2, false).sim_cycles;
    const uint64_t full =
        exec.executeBatch(refs.data(), batch, false).sim_cycles;
    setColdSteady(m, batch, half, full);
}

void
timeUnitRun(SpanRecorder &spans, rayflex::bvh::RtUnit &unit, Metrics &m)
{
    const Clock::time_point t0 = Clock::now();
    rayflex::bvh::RtUnitStats st;
    {
        ScopedSpan s(spans, "bvh.rt_unit.run");
        st = unit.run();
    }
    const double ns = secondsBetween(t0, Clock::now()) * 1e9;
    m.set("bvh.rt_unit.host_ns_per_cycle",
          st.cycles ? ns / double(st.cycles) : 0.0, "ns");
    m.set("bvh.rt_unit.host_ns_per_beat",
          st.datapath_beats ? ns / double(st.datapath_beats) : 0.0, "ns");
}

} // namespace perfbench
