/**
 * @file
 * k-NN index construction and the functional best-first traversal.
 */
#include "bvh/knn.hh"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace rayflex::bvh
{

using core::DatapathInput;
using core::Opcode;
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

std::vector<DatapathInput>
knnJobBeats(const float *query, const float *candidate, size_t dims,
            KnnMetric metric, uint64_t tag)
{
    const bool cosine = metric == KnnMetric::Cosine;
    const size_t width =
        cosine ? core::kCosineWidth : core::kEuclideanWidth;
    std::vector<DatapathInput> beats;
    beats.reserve(knnBeatsPerJob(dims, metric));
    for (size_t base = 0; base < dims; base += width) {
        DatapathInput in;
        in.op = cosine ? Opcode::Cosine : Opcode::Euclidean;
        in.tag = tag;
        in.mask = 0;
        for (size_t i = 0; i < width && base + i < dims; ++i) {
            in.vec_a[i] = toBits(query[base + i]);
            in.vec_b[i] = toBits(candidate[base + i]);
            in.mask |= uint16_t(1u << i);
        }
        in.reset_accumulator = base + width >= dims;
        beats.push_back(in);
    }
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

void
KnnTopK::offer(float score, uint32_t id)
{
    if (k_ == 0)
        return;
    KnnNeighbor cand{score, id};
    if (heap_.size() < k_) {
        heap_.push_back(cand);
        std::push_heap(heap_.begin(), heap_.end(),
                       core::golden::knnCloser);
        return;
    }
    if (core::golden::knnCloser(cand, heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(),
                      core::golden::knnCloser);
        heap_.back() = cand;
        std::push_heap(heap_.begin(), heap_.end(),
                       core::golden::knnCloser);
    }
}

std::vector<KnnNeighbor>
KnnTopK::sorted() const
{
    std::vector<KnnNeighbor> out = heap_;
    std::sort(out.begin(), out.end(), core::golden::knnCloser);
    return out;
}

namespace
{

using Frontier =
    std::priority_queue<KnnFrontierItem, std::vector<KnnFrontierItem>,
                        KnnFrontierAfter>;

} // namespace

KnnResult
KnnTraversal::search(const KnnQuery &query)
{
    if (!index_.points.empty() &&
        query.point.size() != index_.dims)
        throw std::invalid_argument("knn: query dimension mismatch");

    KnnTopK topk;
    topk.reset(query.k);
    ++stats_.queries;
    if (index_.points.empty() || query.k == 0)
        return {};

    const bool prune = query.metric == KnnMetric::Euclidean;
    const float *q = query.point.data();

    Frontier frontier;
    uint64_t seq = 0;
    if (!index_.bvh.nodes.empty())
        frontier.push({0.0, false, 0, 0, seq++});

    auto note_peak = [&] {
        if (frontier.size() > stats_.frontier_peak)
            stats_.frontier_peak = frontier.size();
    };
    note_peak();

    while (!frontier.empty()) {
        KnnFrontierItem item = frontier.top();
        frontier.pop();
        if (prune && topk.full() &&
            knnPrunable(item.lb, topk.radius())) {
            // The frontier is ordered by lower bound: once the best
            // remaining item is prunable, so is everything behind it.
            stats_.pruned += 1 + frontier.size();
            break;
        }
        if (!item.is_leaf) {
            ++stats_.nodes_visited;
            const WideNode &node = index_.bvh.nodes[item.index];
            for (const WideNode::Child &c : node.child) {
                if (c.kind == WideNode::Kind::Empty)
                    continue;
                double lb =
                    prune ? knnBoxLowerBound(c.bounds, q, index_.dims)
                          : 0.0;
                if (prune && topk.full() &&
                    knnPrunable(lb, topk.radius())) {
                    ++stats_.pruned;
                    continue;
                }
                frontier.push({lb,
                               c.kind == WideNode::Kind::Leaf,
                               c.index, c.count, seq++});
            }
            note_peak();
            continue;
        }
        ++stats_.leaves_visited;
        for (uint32_t t = item.index; t < item.index + item.count;
             ++t) {
            const DataPoint &p =
                index_.points[index_.bvh.tris[t].id];
            ++stats_.candidates;
            std::vector<DatapathInput> beats = knnJobBeats(
                q, p.coords.data(), index_.dims, query.metric, p.id);
            stats_.distance_beats += beats.size();
            core::DatapathOutput out{};
            for (const DatapathInput &in : beats)
                out = core::nativeEval(in, acc_);
            float score =
                query.metric == KnnMetric::Euclidean
                    ? fp::fromBits(out.euclidean_accumulator)
                    : core::golden::knnAngularScore(
                          fp::fromBits(out.angular_dot_product),
                          fp::fromBits(out.angular_norm));
            topk.offer(score, p.id);
        }
    }

    return {topk.sorted()};
}

} // namespace rayflex::bvh
