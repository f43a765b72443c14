/**
 * @file
 * Randomized differential test over the RT unit's knob space.
 *
 * A fixed number of seeded random configurations (packet width and
 * compaction, issue width, ray-buffer size, MSHRs, fetch bandwidth,
 * memory backend and L1 geometry, chip units x L2 mode and L2
 * geometry, any-hit, k-NN, streaming, tracing) run small ray or k-NN
 * workloads, and each is checked against four oracles:
 *   1. cycle-accurate hits (or neighbor lists) equal the Functional
 *      model's;
 *   2. the reports at 1 and 3 workers are identical;
 *   3. slots.total() == cycles * issue_width;
 *   4. sum(beats_by_op) == datapath_beats.
 * The run is bounded by a config count, not wall clock, so it is
 * deterministic. A failing config is shrunk — knobs reset to their
 * defaults one at a time while the failure persists — and printed as
 * key=value lines.
 */
#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <sstream>
#include <string>

#include "bvh/scene.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::bvh;

namespace
{

enum Knob : size_t {
    kPacketWidth,
    kCompactBelow,
    kIssueWidth,
    kRayBuffer,
    kMshrs,
    kMemRequests,
    kCache,
    kCacheLine,
    kCacheSets,
    kCacheWays,
    kChipUnits,
    kL2,
    kL2Banks,
    kL2Sets,
    kL2Ways,
    kAnyHit,
    kKnn,
    kStream,
    kTrace,
    kNumKnobs,
};

struct KnobSpec
{
    const char *name;
    std::vector<unsigned> values; ///< values[0] is the default
};

/** The knob space. compact_below is drawn as a value and clamped to
 *  the packet width by the unit; l2 indexes sim::L2Mode. The cache_*
 *  knobs shape the L1 when cache == 1 and the l2_* knobs the L2 when
 *  l2 != 0; their defaults are kProbeCache4KiB and kProbeL2_128KiB.
 *  Geometry draws include zero and non-power-of-two values, which the
 *  memory models tolerate (a zero dimension caches nothing). k-NN takes
 *  precedence over streaming, which takes precedence over a plain
 *  engine ray run. */
const std::array<KnobSpec, kNumKnobs> kSpecs{{
    {"packet_width", {1, 2, 4, 8}},
    {"compact_below", {0, 1, 2, 4}},
    {"issue_width", {1, 2, 3, 4, 8}},
    {"ray_buffer_entries", {32, 1, 3, 8, 64}},
    {"mshrs", {0, 1, 2, 8}},
    {"mem_requests_per_cycle", {1, 2, 3, 8}},
    {"cache", {0, 1}},
    {"cache_line", {64, 0, 16, 48, 128}},
    {"cache_sets", {16, 0, 1, 5, 64}},
    {"cache_ways", {4, 0, 1, 3, 8}},
    {"chip_units", {1, 2, 4}},
    {"l2", {0, 1, 2}},
    {"l2_banks", {4, 0, 1, 3, 8}},
    {"l2_sets", {64, 0, 1, 7, 256}},
    {"l2_ways", {8, 0, 1, 2, 16}},
    {"any_hit", {0, 1}},
    {"knn", {0, 1}},
    {"stream", {0, 1}},
    {"trace", {0, 1}},
}};

using Config = std::array<unsigned, kNumKnobs>;

Config
defaults()
{
    Config c;
    for (size_t k = 0; k < kNumKnobs; ++k)
        c[k] = kSpecs[k].values[0];
    return c;
}

/** splitmix64: a portable, seed-stable draw sequence. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Config
randomConfig(uint64_t &state)
{
    Config c;
    for (size_t k = 0; k < kNumKnobs; ++k) {
        const std::vector<unsigned> &v = kSpecs[k].values;
        c[k] = v[nextRandom(state) % v.size()];
    }
    return c;
}

std::string
describe(const Config &c)
{
    std::ostringstream os;
    for (size_t k = 0; k < kNumKnobs; ++k)
        os << kSpecs[k].name << "=" << c[k] << "\n";
    return os.str();
}

sim::EngineConfig
engineConfig(const Config &c, unsigned threads)
{
    sim::EngineConfig cfg;
    cfg.threads = threads;
    cfg.batch_size = 16;
    cfg.trace = c[kTrace] != 0;
    cfg.max_cycles_per_batch = 2000000;
    cfg.rt.packet.width = c[kPacketWidth];
    cfg.rt.packet.compact_below = c[kCompactBelow];
    cfg.rt.issue_width = c[kIssueWidth];
    cfg.rt.ray_buffer_entries = c[kRayBuffer];
    cfg.rt.mshrs = c[kMshrs];
    cfg.rt.mem_requests_per_cycle = c[kMemRequests];
    if (c[kCache]) {
        cfg.rt.mem_backend = MemBackend::NodeCache;
        cfg.rt.cache = kProbeCache4KiB;
        cfg.rt.cache.line_bytes = c[kCacheLine];
        cfg.rt.cache.sets = c[kCacheSets];
        cfg.rt.cache.ways = c[kCacheWays];
    }
    cfg.chip.units = c[kChipUnits];
    cfg.chip.l2 = sim::L2Mode(c[kL2]);
    cfg.chip.l2cfg = kProbeL2_128KiB;
    cfg.chip.l2cfg.banks = c[kL2Banks];
    cfg.chip.l2cfg.sets = c[kL2Sets];
    cfg.chip.l2cfg.ways = c[kL2Ways];
    if (c[kKnn])
        cfg.dp = core::kExtendedUnified;
    return cfg;
}

const Bvh4 &
fuzzScene()
{
    static const Bvh4 bvh = [] {
        auto tris = makeSphere({0, 0, 0}, 2.0f, 6, 8);
        auto soup = makeSoup(60, 5.0f, 0.8f, 23, uint32_t(tris.size()));
        tris.insert(tris.end(), soup.begin(), soup.end());
        return buildBvh4(std::move(tris));
    }();
    return bvh;
}

std::vector<core::Ray>
fuzzRays()
{
    Camera cam;
    cam.eye = {0.5f, 1.0f, 8.0f};
    cam.width = 6;
    cam.height = 4;
    std::vector<core::Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));
    core::WorkloadGen gen(77);
    for (int i = 0; i < 24; ++i)
        rays.push_back(gen.ray(6.0f));
    return rays;
}

/** Oracles 3 and 4 on one merged stats record. */
std::string
checkSlots(const RtUnitStats &u, unsigned issue_width)
{
    const uint64_t beats = std::accumulate(
        u.beats_by_op.begin(), u.beats_by_op.end(), uint64_t(0));
    if (u.slots.total() != u.cycles * issue_width)
        return "slots.total() != cycles * issue_width";
    if (beats != u.datapath_beats)
        return "sum(beats_by_op) != datapath_beats";
    return "";
}

std::string
checkKnn(const Config &c)
{
    const KnnIndex index = buildKnnIndex(makePointCloud(90, 8, 4, 5));
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(20, 8, 4, 6))
        queries.push_back({std::move(p.coords), 3,
                           queries.size() % 3 == 2 ? KnnMetric::Cosine
                                                   : KnnMetric::Euclidean});
    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 1;
    const sim::KnnReport ref = sim::Engine(fcfg).runKnn(index, queries);
    const sim::KnnReport one =
        sim::Engine(engineConfig(c, 1)).runKnn(index, queries);
    const sim::KnnReport three =
        sim::Engine(engineConfig(c, 3)).runKnn(index, queries);
    if (one.results != ref.results)
        return "k-NN results differ from the Functional model";
    if (three.results != one.results || !(three.unit == one.unit))
        return "k-NN report differs between 1 and 3 workers";
    return checkSlots(one.unit, c[kIssueWidth]);
}

std::vector<sim::RenderJob>
fuzzJobs(const Config &c)
{
    const std::vector<core::Ray> rays = fuzzRays();
    std::vector<sim::RenderJob> jobs;
    for (uint64_t j = 0; j < 3; ++j) {
        sim::RenderJob job;
        job.id = j;
        job.arrival_tick = 150 * j;
        job.any_hit = c[kAnyHit] && j % 2 == 1;
        for (size_t i = j; i < rays.size(); i += 3)
            job.rays.push_back(rays[i]);
        jobs.push_back(std::move(job));
    }
    return jobs;
}

std::string
checkStream(const Config &c)
{
    sim::StreamConfig scfg;
    scfg.batch_size = 16;
    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 1;
    const sim::Engine functional(fcfg);
    const Bvh4 &bvh = fuzzScene();
    const sim::StreamReport one = sim::StreamingService::run(
        sim::Engine(engineConfig(c, 1)), bvh, fuzzJobs(c), scfg);
    const sim::StreamReport three = sim::StreamingService::run(
        sim::Engine(engineConfig(c, 3)), bvh, fuzzJobs(c), scfg);
    for (const sim::RenderJob &job : fuzzJobs(c)) {
        const sim::JobReport *jr = one.job(job.id);
        if (!jr ||
            jr->hits != functional.run(bvh, job.rays, job.any_hit).hits)
            return "stream hits differ from the Functional model";
    }
    if (!(three.unit == one.unit) || three.trace != one.trace ||
        three.makespan_ticks != one.makespan_ticks ||
        three.p50_job_latency != one.p50_job_latency ||
        three.p99_job_latency != one.p99_job_latency)
        return "stream report differs between 1 and 3 workers";
    for (size_t j = 0; j < one.jobs.size(); ++j)
        if (three.jobs[j].hits != one.jobs[j].hits ||
            three.jobs[j].latency != one.jobs[j].latency ||
            three.jobs[j].batches != one.jobs[j].batches)
            return "stream job report differs between 1 and 3 workers";
    return checkSlots(one.unit, c[kIssueWidth]);
}

std::string
checkRays(const Config &c)
{
    const Bvh4 &bvh = fuzzScene();
    const std::vector<core::Ray> rays = fuzzRays();
    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 1;
    const bool any_hit = c[kAnyHit] != 0;
    const sim::EngineReport ref = sim::Engine(fcfg).run(bvh, rays, any_hit);
    const sim::EngineReport one =
        sim::Engine(engineConfig(c, 1)).run(bvh, rays, any_hit);
    const sim::EngineReport three =
        sim::Engine(engineConfig(c, 3)).run(bvh, rays, any_hit);
    if (one.hits != ref.hits)
        return "hits differ from the Functional model";
    if (three.hits != one.hits || !(three.unit == one.unit) ||
        three.trace != one.trace)
        return "report differs between 1 and 3 workers";
    return checkSlots(one.unit, c[kIssueWidth]);
}

/** Every oracle on one config; the first violated one, or "". */
std::string
check(const Config &c)
{
    try {
        if (c[kKnn])
            return checkKnn(c);
        return c[kStream] ? checkStream(c) : checkRays(c);
    } catch (const std::exception &e) {
        return std::string("threw: ") + e.what();
    }
}

/** Reset knobs to their defaults one at a time while `fails` still
 *  holds; what remains is the knobs the failure needs. */
template <typename Fails>
Config
shrink(Config c, const Fails &fails)
{
    const Config def = defaults();
    for (size_t k = 0; k < kNumKnobs; ++k) {
        if (c[k] == def[k])
            continue;
        Config t = c;
        t[k] = def[k];
        if (fails(t))
            c = t;
    }
    return c;
}

} // namespace

TEST(ConfigFuzz, RandomKnobsKeepEveryOracle)
{
    constexpr int kConfigs = 120;
    uint64_t state = 20261016;
    for (int n = 0; n < kConfigs; ++n) {
        const Config c = randomConfig(state);
        const std::string failure = check(c);
        if (failure.empty())
            continue;
        const Config small =
            shrink(c, [](const Config &t) { return !check(t).empty(); });
        ADD_FAILURE() << "config " << n << ": " << failure
                      << "\nshrunk config (" << check(small) << "):\n"
                      << describe(small);
    }
}

TEST(ConfigFuzz, ShrinkKeepsOnlyTheKnobsAFailureNeeds)
{
    // A synthetic failure that needs issue_width > 2 and the cache:
    // every other knob of a random failing config shrinks to default.
    const auto fails = [](const Config &t) {
        return t[kIssueWidth] > 2 && t[kCache] == 1;
    };
    uint64_t state = 7;
    Config c = randomConfig(state);
    c[kIssueWidth] = 8;
    c[kCache] = 1;
    Config want = defaults();
    want[kIssueWidth] = 8;
    want[kCache] = 1;
    EXPECT_EQ(shrink(c, fails), want);
    const std::string text = describe(want);
    EXPECT_NE(text.find("issue_width=8\n"), std::string::npos);
    EXPECT_NE(text.find("cache=1\n"), std::string::npos);
    EXPECT_EQ(check(defaults()), "");
}
