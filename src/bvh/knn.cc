/**
 * @file
 * k-NN index construction and the functional best-first traversal.
 */
#include "bvh/knn.hh"

#include <algorithm>
#include <stdexcept>

namespace rayflex::bvh
{

using core::DatapathInput;
using core::Opcode;
using core::golden::knnCloser;
using fp::toBits;

KnnIndex
buildKnnIndex(std::vector<DataPoint> points, const BuildParams &params)
{
    KnnIndex index;
    index.points = std::move(points);
    if (index.points.empty())
        return index;

    index.dims = unsigned(index.points.front().coords.size());
    if (index.dims == 0)
        throw std::invalid_argument("knn: zero-dimensional points");
    for (const DataPoint &p : index.points)
        if (p.coords.size() != index.dims)
            throw std::invalid_argument(
                "knn: inconsistent point dimensions");

    // Degenerate proxy triangles at the first three coordinates;
    // tri.id indexes back into `points` across the builder's reorder.
    std::vector<SceneTriangle> proxies;
    proxies.reserve(index.points.size());
    for (size_t i = 0; i < index.points.size(); ++i) {
        const std::vector<float> &c = index.points[i].coords;
        Vec3 p{c[0], index.dims > 1 ? c[1] : 0.0f,
               index.dims > 2 ? c[2] : 0.0f};
        SceneTriangle t;
        t.v0 = t.v1 = t.v2 = p;
        t.id = uint32_t(i);
        proxies.push_back(t);
    }
    index.bvh = buildBvh4(std::move(proxies), params);
    return index;
}

size_t
knnBeatsPerJob(size_t dims, KnnMetric metric)
{
    const size_t width = metric == KnnMetric::Cosine
                             ? core::kCosineWidth
                             : core::kEuclideanWidth;
    return (dims + width - 1) / width;
}

void
knnWriteBeat(const float *query, const float *candidate, size_t dims,
             KnnMetric metric, uint64_t tag, size_t beat,
             DatapathInput &in)
{
    const bool cosine = metric == KnnMetric::Cosine;
    const size_t width =
        cosine ? core::kCosineWidth : core::kEuclideanWidth;
    const size_t base = beat * width;
    const size_t n = std::min(width, dims - base);
    in.op = cosine ? Opcode::Cosine : Opcode::Euclidean;
    in.tag = tag;
    for (size_t i = 0; i < n; ++i) {
        in.vec_a[i] = toBits(query[base + i]);
        in.vec_b[i] = toBits(candidate[base + i]);
    }
    std::fill(in.vec_a.begin() + n, in.vec_a.end(), 0);
    std::fill(in.vec_b.begin() + n, in.vec_b.end(), 0);
    in.mask = uint16_t((1u << n) - 1);
    in.reset_accumulator = base + width >= dims;
}

std::vector<DatapathInput>
knnJobBeats(const float *query, const float *candidate, size_t dims,
            KnnMetric metric, uint64_t tag)
{
    std::vector<DatapathInput> beats(knnBeatsPerJob(dims, metric));
    for (size_t b = 0; b < beats.size(); ++b)
        knnWriteBeat(query, candidate, dims, metric, tag, b, beats[b]);
    return beats;
}

double
knnBoxLowerBound(const Aabb &box, const float *query, size_t dims)
{
    double lb = 0.0;
    for (int axis = 0; axis < 3; ++axis) {
        double q = size_t(axis) < dims ? double(query[axis]) : 0.0;
        double lo = double(box.lo[axis]);
        double hi = double(box.hi[axis]);
        double d = q < lo ? lo - q : q > hi ? q - hi : 0.0;
        lb += d * d;
    }
    return lb;
}

namespace
{

// The heaps' orders are function objects, not function pointers, so
// std::push_heap/pop_heap inline every comparison.

/** The frontier's min-heap order: true when `a` is visited after
 *  `b`. */
struct VisitedAfter
{
    bool
    operator()(const KnnFrontierItem &a, const KnnFrontierItem &b) const
    {
        return a.lb != b.lb ? a.lb > b.lb : a.seq > b.seq;
    }
};

/** The top-k max-heap order, core::golden::knnCloser. */
struct Closer
{
    bool
    operator()(const KnnNeighbor &a, const KnnNeighbor &b) const
    {
        return knnCloser(a, b);
    }
};

} // namespace

void
KnnWalk::start(const KnnIndex &index, KnnQuery query, KnnStats &stats)
{
    index_ = &index;
    query_ = std::move(query);
    best_.clear();
    frontier_.clear();
    seq_ = 0;
    if (index.points.empty() || query_.k == 0 || index.bvh.nodes.empty())
        return;
    frontier_.push_back({0.0, false, 0, 0, seq_++});
    stats.frontier_peak = std::max<uint64_t>(stats.frontier_peak, 1);
}

bool
KnnWalk::next(KnnFrontierItem &item, KnnStats &stats)
{
    if (frontier_.empty())
        return false;
    std::pop_heap(frontier_.begin(), frontier_.end(), VisitedAfter{});
    item = frontier_.back();
    frontier_.pop_back();
    if (!prunable(item.lb)) {
        ++(item.is_leaf ? stats.leaves_visited : stats.nodes_visited);
        return true;
    }
    // Heap-ordered frontier: once the best remaining item is prunable,
    // so is everything behind it.
    stats.pruned += 1 + frontier_.size();
    frontier_.clear();
    return false;
}

void
KnnWalk::expand(uint32_t node, KnnStats &stats)
{
    const bool bound = query_.metric == KnnMetric::Euclidean;
    for (const WideNode::Child &c : index_->bvh.nodes[node].child) {
        if (c.kind == WideNode::Kind::Empty)
            continue;
        const double lb =
            bound ? knnBoxLowerBound(c.bounds, point(), index_->dims)
                  : 0.0;
        if (prunable(lb)) {
            ++stats.pruned;
            continue;
        }
        frontier_.push_back({lb, c.kind == WideNode::Kind::Leaf, c.index,
                             c.count, seq_++});
        std::push_heap(frontier_.begin(), frontier_.end(), VisitedAfter{});
    }
    stats.frontier_peak =
        std::max<uint64_t>(stats.frontier_peak, frontier_.size());
}

void
KnnWalk::offer(uint32_t tri, float score)
{
    const KnnNeighbor cand{score,
                           index_->points[index_->bvh.tris[tri].id].id};
    if (best_.size() < query_.k) {
        best_.push_back(cand);
        std::push_heap(best_.begin(), best_.end(), Closer{});
    } else if (knnCloser(cand, best_.front())) {
        std::pop_heap(best_.begin(), best_.end(), Closer{});
        best_.back() = cand;
        std::push_heap(best_.begin(), best_.end(), Closer{});
    }
}

std::vector<KnnNeighbor>
KnnWalk::neighbors() const
{
    std::vector<KnnNeighbor> out = best_;
    std::sort(out.begin(), out.end(), Closer{});
    return out;
}

KnnResult
KnnTraversal::search(const KnnQuery &query)
{
    if (!index_.points.empty() &&
        query.point.size() != index_.dims)
        throw std::invalid_argument("knn: query dimension mismatch");

    ++stats_.queries;
    KnnWalk walk;
    walk.start(index_, query, stats_);
    const size_t beats = knnBeatsPerJob(index_.dims, query.metric);
    DatapathInput beat; // every candidate's beats are written here
    core::DatapathOutput out{};
    KnnFrontierItem item;
    while (walk.next(item, stats_)) {
        if (!item.is_leaf) {
            walk.expand(item.index, stats_);
            continue;
        }
        for (uint32_t t = item.index; t < item.index + item.count; ++t) {
            const DataPoint &p = index_.points[index_.bvh.tris[t].id];
            ++stats_.candidates;
            stats_.distance_beats += beats;
            for (size_t b = 0; b < beats; ++b) {
                knnWriteBeat(walk.point(), p.coords.data(), index_.dims,
                             query.metric, p.id, b, beat);
                core::nativeEval(beat, acc_, out);
            }
            walk.offer(t, knnScore(out));
        }
    }
    return {walk.neighbors()};
}

} // namespace rayflex::bvh
