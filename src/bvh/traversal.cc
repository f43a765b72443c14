/**
 * @file
 * Datapath-driven BVH traversal implementation.
 */
#include "bvh/traversal.hh"

#include <vector>

namespace rayflex::bvh
{

using namespace rayflex::core;
using fp::fromBits;
using fp::kPosInf;

core::Box
emptySlotBox()
{
    core::Box b;
    b.lo = {kPosInf, kPosInf, kPosInf};
    b.hi = {kPosInf, kPosInf, kPosInf};
    return b;
}

namespace
{

/** Issue one ray-box beat for a wide node's children. */
DatapathInput
boxBeat(const core::Ray &ray, const WideNode &node)
{
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.ray = ray;
    for (int i = 0; i < 4; ++i) {
        if (node.child[i].kind == WideNode::Kind::Empty) {
            in.boxes[i] = emptySlotBox();
        } else {
            Aabb b = node.child[i].bounds;
            in.boxes[i] = b.toIoBox();
        }
    }
    return in;
}

/** Resolve a triangle beat into a distance, honoring the
 *  numerator/denominator contract (division happens GPU-side). */
std::optional<float>
triDistance(const DatapathOutput &out)
{
    if (!out.tri.hit)
        return std::nullopt;
    float num = fromBits(out.tri.t_num);
    float den = fromBits(out.tri.t_den);
    if (den == 0.0f)
        return std::nullopt;
    return num / den;
}

} // namespace

HitRecord
Traverser::closestHit(const core::Ray &ray)
{
    HitRecord best;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    if (bvh_.tris.empty())
        return best;

    std::vector<uint32_t> stack;
    stack.push_back(0);
    while (!stack.empty()) {
        stats_.max_stack = std::max<uint64_t>(stats_.max_stack,
                                              stack.size());
        uint32_t idx = stack.back();
        stack.pop_back();
        const WideNode &node = bvh_.nodes[idx];
        ++stats_.nodes_visited;

        DatapathOutput out = nativeEval(boxBeat(ray, node), acc_);
        ++stats_.box_ops;

        // Children arrive sorted by entry distance; push in reverse so
        // the nearest is processed first (stack order).
        std::array<uint8_t, 4> hit_slots{};
        int n_hits = 0;
        for (int i = 0; i < 4; ++i) {
            uint8_t slot = out.box.order[i];
            if (!out.box.hit[slot])
                continue;
            // Prune children beyond the best hit found so far.
            if (best.hit &&
                fromBits(out.box.sorted_dist[i]) > best.t)
                continue;
            hit_slots[n_hits++] = slot;
        }
        for (int i = n_hits - 1; i >= 0; --i) {
            const auto &c = node.child[hit_slots[i]];
            if (c.kind == WideNode::Kind::Internal) {
                stack.push_back(c.index);
            } else {
                for (uint32_t t = c.index; t < c.index + c.count; ++t) {
                    DatapathInput tin;
                    tin.op = Opcode::RayTriangle;
                    tin.ray = ray;
                    tin.tri = bvh_.tris[t].toIoTriangle();
                    DatapathOutput tout = nativeEval(tin, acc_);
                    ++stats_.tri_ops;
                    auto d = triDistance(tout);
                    if (d && *d >= t_min && *d <= t_max &&
                        (!best.hit || *d < best.t)) {
                        best.hit = true;
                        best.t = *d;
                        best.triangle_id = bvh_.tris[t].id;
                        float u = fromBits(tout.tri.uvw[0]);
                        float v = fromBits(tout.tri.uvw[1]);
                        float w = fromBits(tout.tri.uvw[2]);
                        float den = fromBits(tout.tri.t_den);
                        best.u = u / den;
                        best.v = v / den;
                        best.w = w / den;
                    }
                }
            }
        }
    }
    return best;
}

bool
Traverser::anyHit(const core::Ray &ray)
{
    if (bvh_.tris.empty())
        return false;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    std::vector<uint32_t> stack;
    stack.push_back(0);
    while (!stack.empty()) {
        stats_.max_stack = std::max<uint64_t>(stats_.max_stack,
                                              stack.size());
        uint32_t idx = stack.back();
        stack.pop_back();
        const WideNode &node = bvh_.nodes[idx];
        ++stats_.nodes_visited;

        DatapathOutput out = nativeEval(boxBeat(ray, node), acc_);
        ++stats_.box_ops;
        for (int i = 0; i < 4; ++i) {
            if (!out.box.hit[i])
                continue;
            const auto &c = node.child[i];
            if (c.kind == WideNode::Kind::Internal) {
                stack.push_back(c.index);
            } else {
                for (uint32_t t = c.index; t < c.index + c.count; ++t) {
                    DatapathInput tin;
                    tin.op = Opcode::RayTriangle;
                    tin.ray = ray;
                    tin.tri = bvh_.tris[t].toIoTriangle();
                    DatapathOutput tout = nativeEval(tin, acc_);
                    ++stats_.tri_ops;
                    auto d = triDistance(tout);
                    if (d && *d >= t_min && *d <= t_max)
                        return true;
                }
            }
        }
    }
    return false;
}

HitRecord
Traverser::bruteForceClosest(const core::Ray &ray) const
{
    HitRecord best;
    const float t_min = fromBits(ray.t_beg);
    const float t_max = fromBits(ray.t_end);
    core::DistanceAccumulators acc;
    for (const SceneTriangle &tri : bvh_.tris) {
        DatapathInput in;
        in.op = Opcode::RayTriangle;
        in.ray = ray;
        in.tri = tri.toIoTriangle();
        DatapathOutput out = nativeEval(in, acc);
        auto d = triDistance(out);
        if (d && *d >= t_min && *d <= t_max && (!best.hit || *d < best.t)) {
            best.hit = true;
            best.t = *d;
            best.triangle_id = tri.id;
        }
    }
    return best;
}

} // namespace rayflex::bvh
