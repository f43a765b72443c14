/**
 * @file
 * Randomized differential test over the RT unit's knob space and its
 * inputs.
 *
 * A fixed number of seeded random configurations (packet width and
 * compaction, issue width, ray-buffer size, MSHRs, fetch bandwidth,
 * memory backend and L1 geometry, chip units x L2 mode and L2
 * geometry, any-hit, k-NN, streaming, tracing) run small ray or k-NN
 * workloads. Three more knobs draw the inputs: the scene (sphere plus
 * soup, a tie-heavy torus, a soup with duplicated and coplanar
 * triangles), the rays (a camera framed on the scene and random rays
 * aimed into its root box, plus axis-aligned directions, empty extents
 * and origins on the root box's faces) and the k-NN input (k = 3,
 * duplicated points with k >= n, k = 0). Each config is checked against
 * five oracles:
 *   1. cycle-accurate hits (or neighbor lists) equal the Functional
 *      model's;
 *   2. the reports at 1 and 3 workers are identical;
 *   3. slots.total() == cycles * issue_width;
 *   4. sum(beats_by_op) == datapath_beats;
 *   5. the run equals its batches replayed on the every-cycle
 *      reference walk (tests/every_cycle_walk.hh) with a trace sink
 *      attached: unit stats, hits or neighbor lists, makespan and job
 *      completions, and on a traced config the trace itself. The
 *      reference neither parks refused fetches nor skips dead cycles,
 *      so this pins the model's bulk accounting of skipped cycles and
 *      its parking to the cycle-by-cycle path across the knob space,
 *      and shows that attaching a sink changes nothing.
 * The run is bounded by a config count, not wall clock, so it is
 * deterministic. A failing config is shrunk — knobs reset to their
 * defaults one at a time while the failure persists — and printed as
 * two lines: the engine config as sim::describe tokens, which
 * render_scene accepts verbatim (`render_scene width=16 height=12
 * <line>` replays its timing on a frame), then the input knobs as
 * name=value.
 */
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <sstream>
#include <string>

#include "bvh/scene.hh"
#include "every_cycle_walk.hh"
#include "sim/config.hh"
#include "sim/engine.hh"
#include "sim/stream.hh"

using namespace rayflex;
using namespace rayflex::bvh;

namespace
{

/** A knob and its values; values[0] is the default. */
template <class Value>
struct KnobSpec
{
    const char *name;
    std::vector<Value> values;
};

/** The engine knobs: config-table keys (sim/config.hh), drawn on
 *  kBase. compact_below is clamped to the packet width by the unit.
 *  The rt.cache keys shape the L1 under the node-cache backend and the
 *  chip.l2cfg keys the L2 when chip.l2 is not off; their defaults
 *  give kProbeCache4KiB and kProbeL2_128KiB. Geometry draws include
 *  zero and non-power-of-two values, which the memory models tolerate
 *  (a zero dimension caches nothing). */
const std::vector<KnobSpec<std::string>> kKeys{
    {"rt.packet.width", {"1", "2", "4", "8"}},
    {"rt.packet.compact_below", {"0", "1", "2", "4"}},
    {"rt.issue_width", {"1", "2", "3", "4", "8"}},
    {"rt.ray_buffer_entries", {"32", "1", "3", "8", "64"}},
    {"rt.mshrs", {"0", "1", "2", "8"}},
    {"rt.mem_backend", {"fixed-latency", "node-cache"}},
    {"rt.cache.line_bytes", {"64", "0", "16", "48", "128"}},
    {"rt.cache.sets", {"16", "0", "1", "5", "64"}},
    {"rt.cache.ways", {"4", "0", "1", "3", "8"}},
    {"chip.units", {"1", "2", "4"}},
    {"chip.l2", {"off", "shared", "private"}},
    {"chip.l2cfg.banks", {"4", "0", "1", "3", "8"}},
    {"chip.l2cfg.sets", {"64", "0", "1", "7", "256"}},
    {"chip.l2cfg.ways", {"8", "0", "1", "2", "16"}},
};

/** The engine config every draw starts from. */
const sim::EngineConfig kBase = [] {
    sim::EngineConfig cfg;
    cfg.batch_size = 16;
    cfg.max_cycles_per_batch = 2000000;
    return cfg;
}();

/** The input and family knobs, drawn after the engine knobs. k-NN
 *  takes precedence over streaming, which takes precedence over a
 *  plain engine ray run. scene, rays and knn_input select the inputs
 *  (fuzzScene, fuzzRays, checkKnn); value 0 of each is the original
 *  input set. */
enum Input : size_t {
    kAnyHit,
    kKnn,
    kStream,
    kTrace,
    kScene,
    kRays,
    kKnnInput,
    kNumInputs,
};

const std::array<KnobSpec<unsigned>, kNumInputs> kInputs{{
    {"any_hit", {0, 1}},
    {"knn", {0, 1}},
    {"stream", {0, 1}},
    {"trace", {0, 1}},
    {"scene", {0, 1, 2}},
    {"rays", {0, 1}},
    {"knn_input", {0, 1, 2}},
}};

/** A base engine config plus drawn key values, and the input knobs. */
struct Config
{
    sim::EngineConfig engine = kBase;
    std::array<unsigned, kNumInputs> input{};

    friend bool operator==(const Config &, const Config &) = default;
};

void
setKey(Config &c, const KnobSpec<std::string> &k, const std::string &v)
{
    sim::setConfigKey(c.engine, std::string(k.name) + "=" + v);
}

Config
defaults()
{
    Config c;
    for (const KnobSpec<std::string> &k : kKeys)
        setKey(c, k, k.values[0]);
    for (size_t i = 0; i < kNumInputs; ++i)
        c.input[i] = kInputs[i].values[0];
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
    for (const KnobSpec<std::string> &k : kKeys)
        setKey(c, k, k.values[nextRandom(state) % k.values.size()]);
    for (size_t i = 0; i < kNumInputs; ++i) {
        const std::vector<unsigned> &v = kInputs[i].values;
        c.input[i] = v[nextRandom(state) % v.size()];
    }
    return c;
}

/** The config `c` runs on `threads` workers: its engine knobs, the
 *  trace knob, and under k-NN the extended datapath (the baseline
 *  lacks the distance opcodes). */
sim::EngineConfig
engineAt(const Config &c, unsigned threads)
{
    sim::EngineConfig cfg = c.engine;
    cfg.threads = threads;
    cfg.trace = c.input[kTrace] != 0;
    if (c.input[kKnn])
        cfg.dp = core::kExtendedUnified;
    return cfg;
}

/** The failure print: the engine line render_scene accepts, then the
 *  input knobs. */
std::string
describe(const Config &c)
{
    std::ostringstream os;
    os << sim::describe(engineAt(c, 0)) << "\n";
    for (size_t i = 0; i < kNumInputs; ++i)
        os << (i ? " " : "") << kInputs[i].name << "=" << c.input[i];
    return os.str() + "\n";
}

/** The scene of knob value `scene`: 0 a sphere plus a soup; 1 the
 *  tie-heavy torus, whose shared vertices and 8-triangle leaves give
 *  many equal-t hits; 2 a soup with a duplicate of half its triangles
 *  (same vertices, new ids) and a fan of overlapping coplanar
 *  triangles. */
const Bvh4 &
fuzzScene(unsigned scene)
{
    static const std::array<Bvh4, 3> scenes = [] {
        auto tris = makeSphere({0, 0, 0}, 2.0f, 6, 8);
        auto soup = makeSoup(60, 5.0f, 0.8f, 23, uint32_t(tris.size()));
        tris.insert(tris.end(), soup.begin(), soup.end());

        BuildParams big_leaves;
        big_leaves.max_leaf_size = 8;

        auto dup = makeSoup(40, 4.0f, 1.2f, 29);
        for (uint32_t i = 0; i < 20; ++i) {
            SceneTriangle t = dup[i];
            t.id = 40 + i;
            dup.push_back(t);
        }
        for (uint32_t i = 0; i < 12; ++i) {
            const float a = 0.5236f * float(i), b = a + 1.0f;
            const Vec3 rim_a{3 * std::cos(a), 0.5f, 3 * std::sin(a)};
            const Vec3 rim_b{3 * std::cos(b), 0.5f, 3 * std::sin(b)};
            // Both windings, so the fan faces rays from either side.
            if (i % 2)
                dup.push_back({{0, 0.5f, 0}, rim_a, rim_b, 60 + i});
            else
                dup.push_back({{0, 0.5f, 0}, rim_b, rim_a, 60 + i});
        }
        return std::array<Bvh4, 3>{
            buildBvh4(std::move(tris)),
            buildBvh4(makeTorus({0, 0, 0}, 2.5f, 0.8f, 24, 16), big_leaves),
            buildBvh4(std::move(dup))};
    }();
    return scenes[scene];
}

/** The rays of knob value `rays` on `bvh`: 0 the 24 rays of a 6x4
 *  camera framed on the scene and 24 rays from random origins, each
 *  aimed at a random point of the middle half of the root box (most
 *  of both hit: ConfigFuzz.OriginalRaysHitEveryScene); 1 those plus
 *  axis-aligned rays (an infinite inverse on two axes) from the eye and
 *  the root box's centre, camera rays with an empty extent (t_end = 0),
 *  rays from each root-box face's centre, inward and along the face,
 *  and rays through scene vertices. */
std::vector<core::Ray>
fuzzRays(const Bvh4 &bvh, unsigned kind)
{
    Camera cam;
    cam.eye = {0.5f, 1.0f, 8.0f};
    cam.fov_deg = 30.0f;
    cam.width = 6;
    cam.height = 4;
    std::vector<core::Ray> rays;
    for (unsigned y = 0; y < cam.height; ++y)
        for (unsigned x = 0; x < cam.width; ++x)
            rays.push_back(cam.primaryRay(x, y, 100.0f));

    const Aabb &box = bvh.root_bounds;
    const auto ray = [&](Vec3 o, Vec3 d, float t_end) {
        rays.push_back(core::makeRay(o.x, o.y, o.z, d.x, d.y, d.z, 0.0f,
                                     t_end));
    };
    const Vec3 mid = box.centre();
    const Vec3 half = (box.hi - box.lo) * 0.5f;
    core::WorkloadGen gen(77);
    for (int i = 0; i < 24; ++i) {
        const Vec3 o{gen.uniform(-6.0f, 6.0f), gen.uniform(-6.0f, 6.0f),
                     gen.uniform(-6.0f, 6.0f)};
        const Vec3 target{mid.x + half.x * gen.uniform(-0.5f, 0.5f),
                          mid.y + half.y * gen.uniform(-0.5f, 0.5f),
                          mid.z + half.z * gen.uniform(-0.5f, 0.5f)};
        ray(o, target - o, 100.0f);
    }
    if (kind == 0)
        return rays;

    for (int axis = 0; axis < 3; ++axis)
        for (const float sign : {1.0f, -1.0f}) {
            Vec3 d;
            (axis == 0 ? d.x : axis == 1 ? d.y : d.z) = sign;
            ray(cam.eye, d, 100.0f);
            ray(mid, d, 100.0f);
            // The face this direction leaves through: a ray from its
            // centre back inward, and one along the face.
            Vec3 face = mid;
            (axis == 0 ? face.x : axis == 1 ? face.y : face.z) =
                sign > 0 ? box.hi[axis] : box.lo[axis];
            ray(face, d * -1.0f, 100.0f);
            const Vec3 along{d.z, d.x, d.y};
            ray(face, along, 100.0f);
        }
    for (unsigned x = 0; x < cam.width; x += 2)
        rays.push_back(cam.primaryRay(x, cam.height / 2, 0.0f));
    // Rays from the eye through 16 vertices: each hits every triangle
    // sharing its vertex at one t.
    for (size_t i = 0; i < bvh.tris.size(); i += bvh.tris.size() / 16 + 1)
        ray(cam.eye, bvh.tris[i].v0 - cam.eye, 2.0f);
    return rays;
}

/** Oracle 5's executor over `target` (a Bvh4 or a KnnIndex): the
 *  config's batches on the every-cycle reference walk, traced. */
template <class Target>
sim::BatchExecutor
referenceWalk(const Target &target, const Config &c)
{
    sim::ExecutorConfig cfg = engineAt(c, 1);
    cfg.trace = true;
    return sim::EveryCycleWalk::on(sim::BatchExecutor(target, cfg));
}

/** A traced run's events without the job timeline's, which a replay of
 *  its batches does not produce. */
std::vector<obs::TraceRecord>
batchEvents(const std::vector<obs::TraceRecord> &trace)
{
    std::vector<obs::TraceRecord> out;
    for (const obs::TraceRecord &r : trace)
        if (r.event != obs::TraceEvent::JobSubmit &&
            r.event != obs::TraceEvent::JobComplete)
            out.push_back(r);
    return out;
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

/** The k-NN oracles on knob value `knn_input`: 0 a 90-point 8-D cloud
 *  with k = 3; 1 a 12-point cloud with every point duplicated under a
 *  new id and k >= n (every point is a neighbor, and equal distances
 *  order by id); 2 the 90-point cloud with k = 0. */
std::string
checkKnn(const Config &c)
{
    std::vector<DataPoint> cloud =
        makePointCloud(c.input[kKnnInput] == 1 ? 12 : 90, 8, 4, 5);
    const size_t n = cloud.size();
    if (c.input[kKnnInput] == 1)
        for (size_t i = 0; i < n; ++i) {
            DataPoint twin = cloud[i];
            twin.id = uint32_t(n + i);
            cloud.push_back(std::move(twin));
        }
    const KnnIndex index = buildKnnIndex(cloud);
    std::vector<KnnQuery> queries;
    for (DataPoint &p : makePointCloud(20, 8, 4, 6)) {
        const size_t q = queries.size();
        // Input 1 asks for every point, and on every other query for
        // more points than exist.
        uint32_t k = 3;
        if (c.input[kKnnInput] == 1)
            k = uint32_t(cloud.size() + q % 2 * 5);
        else if (c.input[kKnnInput] == 2)
            k = 0;
        queries.push_back({std::move(p.coords), k,
                           q % 3 == 2 ? KnnMetric::Cosine
                                      : KnnMetric::Euclidean});
    }
    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 1;
    const sim::KnnReport ref = sim::Engine(fcfg).runKnn(index, queries);
    const sim::KnnReport one =
        sim::Engine(engineAt(c, 1)).runKnn(index, queries);
    const sim::KnnReport three =
        sim::Engine(engineAt(c, 3)).runKnn(index, queries);
    if (one.results != ref.results)
        return "k-NN results differ from the Functional model";
    if (three.results != one.results || !(three.unit == one.unit))
        return "k-NN report differs between 1 and 3 workers";
    const sim::BatchExecutor walk = referenceWalk(index, c);
    std::vector<KnnResult> results(queries.size());
    RtUnitStats unit;
    for (const core::BatchRange &r :
         core::sliceBatches(queries.size(), c.engine.batch_size)) {
        std::vector<sim::KnnBatchRef> refs;
        for (size_t i = r.begin; i < r.end; ++i)
            refs.push_back({&queries[i], &results[i]});
        unit.merge(walk.executeKnnBatch(refs.data(), refs.size()).unit);
    }
    if (results != one.results || !(unit == one.unit))
        return "k-NN report differs from the every-cycle reference walk";
    return checkSlots(one.unit, c.engine.rt.issue_width);
}

std::vector<sim::RenderJob>
fuzzJobs(const Config &c)
{
    const std::vector<core::Ray> rays =
        fuzzRays(fuzzScene(c.input[kScene]), c.input[kRays]);
    std::vector<sim::RenderJob> jobs;
    for (uint64_t j = 0; j < 3; ++j) {
        sim::RenderJob job;
        job.id = j;
        job.arrival_tick = 150 * j;
        job.any_hit = c.input[kAnyHit] && j % 2 == 1;
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
    const Bvh4 &bvh = fuzzScene(c.input[kScene]);
    const sim::StreamReport one = sim::StreamingService::run(
        sim::Engine(engineAt(c, 1)), bvh, fuzzJobs(c), scfg);
    const sim::StreamReport three = sim::StreamingService::run(
        sim::Engine(engineAt(c, 3)), bvh, fuzzJobs(c), scfg);
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
    // The plan replayed on the reference walk, laid out on the
    // service's timeline: a batch starts once the previous one drained
    // and its jobs have arrived. fuzzJobs() is in (arrival, id) order.
    const std::vector<sim::RenderJob> jobs = fuzzJobs(c);
    const sim::BatchExecutor walk = referenceWalk(bvh, c);
    std::vector<std::vector<HitRecord>> hits;
    std::vector<uint64_t> completion;
    for (const sim::RenderJob &job : jobs) {
        hits.emplace_back(job.rays.size());
        completion.push_back(job.arrival_tick);
    }
    RtUnitStats unit;
    std::vector<obs::TraceRecord> trace;
    uint64_t end = 0;
    const std::vector<sim::PlannedBatch> plans =
        sim::BatchScheduler(scfg).plan(jobs);
    for (size_t bi = 0; bi < plans.size(); ++bi) {
        const sim::PlannedBatch &b = plans[bi];
        std::vector<sim::BatchRayRef> refs;
        for (const auto &[j, ri] : b.rays)
            refs.push_back({&jobs[j].rays[ri], &hits[j][ri], j});
        const sim::BatchResult r =
            walk.executeBatch(refs.data(), refs.size(), b.any_hit);
        unit.merge(r.unit);
        const uint64_t start = std::max(end, b.ready_tick);
        sim::spliceBatchTrace(trace, r, bi, b.rays.size(), start);
        end = start + r.sim_cycles;
        for (const auto &[j, ri] : b.rays)
            completion[j] = end;
    }
    if (!(unit == one.unit) || end != one.makespan_ticks ||
        (c.input[kTrace] && trace != batchEvents(one.trace)))
        return "stream report differs from the every-cycle reference walk";
    for (size_t j = 0; j < jobs.size(); ++j)
        if (hits[j] != one.jobs[j].hits ||
            completion[j] != one.jobs[j].completion_tick)
            return "stream job report differs from the every-cycle "
                   "reference walk";
    return checkSlots(one.unit, c.engine.rt.issue_width);
}

std::string
checkRays(const Config &c)
{
    const Bvh4 &bvh = fuzzScene(c.input[kScene]);
    const std::vector<core::Ray> rays = fuzzRays(bvh, c.input[kRays]);
    sim::EngineConfig fcfg;
    fcfg.model = sim::ExecutionModel::Functional;
    fcfg.threads = 1;
    const bool any_hit = c.input[kAnyHit] != 0;
    const sim::EngineReport ref = sim::Engine(fcfg).run(bvh, rays, any_hit);
    const sim::EngineReport one =
        sim::Engine(engineAt(c, 1)).run(bvh, rays, any_hit);
    const sim::EngineReport three =
        sim::Engine(engineAt(c, 3)).run(bvh, rays, any_hit);
    if (one.hits != ref.hits)
        return "hits differ from the Functional model";
    if (three.hits != one.hits || !(three.unit == one.unit) ||
        three.trace != one.trace)
        return "report differs between 1 and 3 workers";
    const sim::BatchExecutor walk = referenceWalk(bvh, c);
    std::vector<HitRecord> hits(rays.size());
    RtUnitStats unit;
    std::vector<obs::TraceRecord> trace;
    uint64_t end = 0;
    const std::vector<core::BatchRange> batches =
        core::sliceBatches(rays.size(), c.engine.batch_size);
    for (size_t bi = 0; bi < batches.size(); ++bi) {
        const core::BatchRange &b = batches[bi];
        std::vector<sim::BatchRayRef> refs;
        for (size_t i = b.begin; i < b.end; ++i)
            refs.push_back({&rays[i], &hits[i]});
        const sim::BatchResult r =
            walk.executeBatch(refs.data(), refs.size(), any_hit);
        unit.merge(r.unit);
        sim::spliceBatchTrace(trace, r, bi, b.size(), end);
        end += r.sim_cycles;
    }
    if (hits != one.hits || !(unit == one.unit) ||
        (c.input[kTrace] && trace != one.trace))
        return "report differs from the every-cycle reference walk";
    return checkSlots(one.unit, c.engine.rt.issue_width);
}

/** Every oracle on one config; the first violated one, or "". */
std::string
check(const Config &c)
{
    try {
        if (c.input[kKnn])
            return checkKnn(c);
        return c.input[kStream] ? checkStream(c) : checkRays(c);
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
    const auto keep = [&](const Config &t) {
        if (!(t == c) && fails(t))
            c = t;
    };
    for (const KnobSpec<std::string> &k : kKeys) {
        Config t = c;
        setKey(t, k, k.values[0]);
        keep(t);
    }
    for (size_t i = 0; i < kNumInputs; ++i) {
        Config t = c;
        t.input[i] = kInputs[i].values[0];
        keep(t);
    }
    return c;
}

/** The engine config a describe() line's tokens build. */
sim::EngineConfig
parse(const std::string &line)
{
    sim::EngineConfig cfg;
    std::istringstream is(line);
    for (std::string token; is >> token;)
        sim::setConfigKey(cfg, token);
    return cfg;
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
    // A synthetic failure that needs an issue width above 2 and the node
    // cache: every other knob of a random failing config shrinks to its
    // default.
    const auto fails = [](const Config &t) {
        return t.engine.rt.issue_width > 2 &&
               t.engine.rt.mem_backend == MemBackend::NodeCache;
    };
    uint64_t state = 7;
    Config c = randomConfig(state);
    Config want = defaults();
    for (Config *t : {&c, &want}) {
        sim::setConfigKey(t->engine, "rt.issue_width=8");
        sim::setConfigKey(t->engine, "rt.mem_backend=node-cache");
    }
    EXPECT_TRUE(shrink(c, fails) == want) << describe(shrink(c, fails));
    // The engine line is the one render_scene_replays_fuzz_config
    // (CMakeLists.txt) replays; it parses back into the same config.
    const std::string line =
        "rt.issue_width=8 rt.mem_backend=node-cache rt.cache.sets=16 "
        "chip.l2cfg.sets=64 max_cycles_per_batch=2000000 batch_size=16";
    EXPECT_EQ(describe(want), line + "\nany_hit=0 knn=0 stream=0 trace=0 "
                                     "scene=0 rays=0 knn_input=0\n");
    EXPECT_TRUE(parse(line) == want.engine);
    EXPECT_EQ(check(defaults()), "");
}

TEST(ConfigTable, DescribeParsesBackIntoTheSameConfig)
{
    EXPECT_EQ(sim::describe(sim::EngineConfig{}), "");
    EXPECT_TRUE(parse("") == sim::EngineConfig{});
    // Every key at both ends of its range, and at each value name.
    for (const sim::ConfigKey &k : sim::configKeys()) {
        std::vector<std::string> values = k.values;
        if (values.empty())
            values = {std::to_string(k.lo), std::to_string(k.hi)};
        for (const std::string &v : values) {
            sim::EngineConfig cfg;
            sim::setConfigKey(cfg, std::string(k.name) + "=" + v);
            EXPECT_EQ(k.get(cfg), v);
            EXPECT_TRUE(parse(sim::describe(cfg)) == cfg)
                << sim::describe(cfg);
        }
    }
    // The fuzzer's draws.
    uint64_t state = 20261016;
    for (int n = 0; n < 120; ++n) {
        const Config c = randomConfig(state);
        EXPECT_TRUE(parse(sim::describe(c.engine)) == c.engine)
            << "config " << n << ": " << sim::describe(c.engine);
    }
}

TEST(ConfigTable, EveryBenchDatapathRoundTrips)
{
    // The datapaths bench_width and the ablation benches build in C++:
    // each has a text form that parses back into the same config.
    using namespace core;
    std::vector<DatapathConfig> dps;
    for (unsigned w : {2u, 4u, 6u, 8u}) { // bench_width
        DatapathConfig dp = kBaselineUnified;
        dp.box_width = w;
        dps.push_back(dp);
    }
    for (const DatapathConfig &base :
         {kBaselineUnified, kBaselineDisjoint, kExtendedUnified,
          kExtendedDisjoint})
        for (RegisterPolicy pol :
             {RegisterPolicy::DisjointPerOp, RegisterPolicy::SharedUnionAligned,
              RegisterPolicy::SharedUnionWorstCase}) { // registers
            DatapathConfig dp = base;
            dp.register_policy = pol;
            dps.push_back(dp);
        }
    for (const DatapathConfig &base :
         {kBaselineUnified, kExtendedUnified, kExtendedDisjoint}) {
        DatapathConfig dp = base; // rounding
        dp.skip_intermediate_rounding = true;
        dps.push_back(dp);
    }
    DatapathConfig perturbed = kExtendedDisjoint; // squarer
    perturbed.perturb_squarers = true;
    dps.push_back(perturbed);
    for (const DatapathConfig &dp : dps) {
        sim::EngineConfig cfg;
        cfg.dp = dp;
        EXPECT_TRUE(parse(sim::describe(cfg)) == cfg)
            << dp.name() << ": " << sim::describe(cfg);
    }
    sim::EngineConfig cfg;
    cfg.dp = perturbed;
    cfg.dp.box_width = 6;
    EXPECT_EQ(sim::describe(cfg),
              "dp=extended-disjoint dp.perturb_squarers=1 dp.box_width=6");
}

TEST(ConfigTable, RejectsABadTokenByKey)
{
    for (const std::string token :
         {"bogus=1", "rt.issue_width=9", "rt.ray_buffer_entries=0",
          "chip.l2=bogus", "rt.mshrs=eight", "rt.mshrs=-1", "dp",
          "dp=baseline-unified-w6", "batch_size="}) {
        const std::string key = token.substr(0, token.find('='));
        sim::EngineConfig cfg;
        try {
            sim::setConfigKey(cfg, token);
            ADD_FAILURE() << token << " was accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
                << token << ": " << e.what();
        }
        EXPECT_TRUE(cfg == sim::EngineConfig{}) << token;
    }
}

TEST(ConfigFuzz, OriginalRaysHitEveryScene)
{
    // Most configs trace the original rays, and a miss compares empty
    // hit records in oracle 1: on every scene, at least a third of the
    // camera rays and half of the aimed rays hit (12, 12 and 9 camera
    // rays and 12, 16 and 16 aimed ones do).
    for (unsigned scene = 0; scene < 3; ++scene) {
        SCOPED_TRACE("scene " + std::to_string(scene));
        const Bvh4 &bvh = fuzzScene(scene);
        const std::vector<core::Ray> rays = fuzzRays(bvh, 0);
        ASSERT_EQ(rays.size(), 48u);
        Traverser trav(bvh);
        unsigned camera = 0, aimed = 0;
        for (size_t i = 0; i < rays.size(); ++i)
            (i < 24 ? camera : aimed) += trav.closestHit(rays[i]).hit;
        EXPECT_GE(camera, 8u);
        EXPECT_GE(aimed, 12u);
    }
}
