/**
 * @file
 * Binned-SAH binary build followed by collapse into 4-wide nodes.
 */
#include "bvh/builder.hh"

#include "bvh/traversal.hh"

#include <algorithm>
#include <array>
#include <functional>
#include <numeric>
#include <string>

namespace rayflex::bvh
{

namespace
{

/** Temporary binary node used during the build. */
struct BinNode
{
    Aabb bounds;
    int left = -1, right = -1; ///< children when internal
    uint32_t first = 0, count = 0; ///< triangle range when leaf
    bool leaf = false;
};

/**
 * The binary binned-SAH build. Each triangle's bounds() and centroid()
 * are derived once, by input index; build() partitions ranges of an
 * index permutation exactly as it would partition the triangles (the
 * same std::partition over the same predicate results), and
 * buildBvh4 applies that permutation once at the end.
 */
struct Builder
{
    const BuildParams &params;
    std::vector<Aabb> boxes;        ///< bounds() per input index
    std::vector<Vec3> centroids;    ///< centroid() per input index
    std::vector<uint32_t> order;    ///< input index per final position
    std::vector<BinNode> nodes;

    // Scratch of one node's binning, reused across nodes.
    std::vector<unsigned> tri_bin;  ///< bin per input index
    std::vector<Aabb> bin_bounds;
    std::vector<uint32_t> bin_count;
    std::vector<float> right_area;
    std::vector<uint32_t> right_count;

    Builder(const BuildParams &p, const std::vector<SceneTriangle> &tris)
        : params(p), order(tris.size()), tri_bin(tris.size())
    {
        boxes.reserve(tris.size());
        centroids.reserve(tris.size());
        for (const SceneTriangle &t : tris) {
            boxes.push_back(t.bounds());
            centroids.push_back(t.centroid());
        }
        std::iota(order.begin(), order.end(), 0u);
    }

    int
    build(uint32_t first, uint32_t count)
    {
        Aabb bounds, centroid_bounds;
        for (uint32_t i = first; i < first + count; ++i) {
            bounds.grow(boxes[order[i]]);
            centroid_bounds.grow(centroids[order[i]]);
        }

        int idx = int(nodes.size());
        nodes.push_back({});
        nodes[idx].bounds = bounds;

        if (count <= params.max_leaf_size) {
            makeLeaf(idx, first, count);
            return idx;
        }

        // Pick the split from binned SAH over the widest centroid axis.
        Vec3 ext = centroid_bounds.hi - centroid_bounds.lo;
        int axis = 0;
        if (ext.y > ext[axis])
            axis = 1;
        if (ext.z > ext[axis])
            axis = 2;
        float lo = centroid_bounds.lo[axis];
        float width = ext[axis];
        if (width <= 0.0f) {
            // Degenerate spread: median split by index.
            uint32_t half = count / 2;
            int l = build(first, half);
            int r = build(first + half, count - half);
            nodes[idx].left = l;
            nodes[idx].right = r;
            return idx;
        }

        const unsigned nbins = params.sah_bins;
        bin_bounds.assign(nbins, Aabb{});
        bin_count.assign(nbins, 0);
        for (uint32_t i = first; i < first + count; ++i) {
            const uint32_t t = order[i];
            float rel = (centroids[t][axis] - lo) / width;
            int b = std::clamp(int(rel * float(nbins)), 0, int(nbins) - 1);
            tri_bin[t] = unsigned(b);
            bin_bounds[b].grow(boxes[t]);
            ++bin_count[b];
        }

        // Sweep for the cheapest partition boundary.
        right_area.assign(nbins, 0.0f);
        right_count.assign(nbins, 0);
        Aabb acc;
        uint32_t cnt = 0;
        for (int b = int(nbins) - 1; b >= 1; --b) {
            acc.grow(bin_bounds[b]);
            cnt += bin_count[b];
            right_area[b] = acc.surfaceArea();
            right_count[b] = cnt;
        }
        float best_cost = std::numeric_limits<float>::infinity();
        int best_split = -1;
        acc = {};
        cnt = 0;
        const float parent_area = bounds.surfaceArea();
        for (unsigned b = 0; b + 1 < nbins; ++b) {
            acc.grow(bin_bounds[b]);
            cnt += bin_count[b];
            if (cnt == 0 || right_count[b + 1] == 0)
                continue;
            float cost =
                params.traversal_cost +
                params.intersect_cost *
                    (acc.surfaceArea() * float(cnt) +
                     right_area[b + 1] * float(right_count[b + 1])) /
                    std::max(parent_area, 1e-20f);
            if (cost < best_cost) {
                best_cost = cost;
                best_split = int(b);
            }
        }

        float leaf_cost = params.intersect_cost * float(count);
        if (best_split < 0 ||
            (best_cost >= leaf_cost &&
             count <= 4 * params.max_leaf_size)) {
            makeLeaf(idx, first, count);
            return idx;
        }

        auto mid_it = std::partition(
            order.begin() + first, order.begin() + first + count,
            [&](uint32_t t) { return int(tri_bin[t]) <= best_split; });
        uint32_t mid = uint32_t(mid_it - order.begin());
        if (mid == first || mid == first + count)
            mid = first + count / 2; // numeric corner case: force split

        int l = build(first, mid - first);
        int r = build(mid, first + count - mid);
        nodes[idx].left = l;
        nodes[idx].right = r;
        return idx;
    }

    void
    makeLeaf(int idx, uint32_t first, uint32_t count)
    {
        nodes[idx].leaf = true;
        nodes[idx].first = first;
        nodes[idx].count = count;
    }
};

/**
 * Collapse the binary tree into 4-wide nodes: each wide node adopts up
 * to four binary descendants found by repeatedly expanding the child
 * with the largest surface area (a standard widening heuristic).
 */
struct Collapser
{
    const std::vector<BinNode> &bin;
    Bvh4 &out;

    uint32_t
    collapse(int root)
    {
        uint32_t wide_idx = uint32_t(out.nodes.size());
        out.nodes.push_back({});

        // Gather up to 4 binary subtree roots under `root`.
        std::array<int, 4> slots{};
        size_t n = 0;
        slots[n++] = bin[root].leaf ? root : bin[root].left;
        if (!bin[root].leaf)
            slots[n++] = bin[root].right;
        while (n < 4) {
            // Expand the internal slot with the largest surface area.
            int pick = -1;
            float best = -1.0f;
            for (size_t i = 0; i < n; ++i) {
                if (!bin[slots[i]].leaf &&
                    bin[slots[i]].bounds.surfaceArea() > best) {
                    best = bin[slots[i]].bounds.surfaceArea();
                    pick = int(i);
                }
            }
            if (pick < 0)
                break;
            int node = slots[pick];
            slots[pick] = bin[node].left;
            slots[n++] = bin[node].right;
        }

        WideNode wn;
        for (size_t i = 0; i < n; ++i) {
            const BinNode &b = bin[slots[i]];
            wn.child[i].bounds = b.bounds;
            if (b.leaf) {
                wn.child[i].kind = WideNode::Kind::Leaf;
                wn.child[i].index = b.first;
                wn.child[i].count = b.count;
            } else {
                wn.child[i].kind = WideNode::Kind::Internal;
            }
        }
        out.nodes[wide_idx] = wn;

        for (size_t i = 0; i < n; ++i) {
            if (wn.child[i].kind != WideNode::Kind::Internal)
                continue;
            // collapse() grows out.nodes: index it only afterwards.
            const uint32_t child_idx = collapse(slots[i]);
            out.nodes[wide_idx].child[i].index = child_idx;
        }
        return wide_idx;
    }
};

/** The per-node slab-form box table of a finished tree. */
void
convertBoxes(Bvh4 &out)
{
    out.boxes.reserve(out.nodes.size());
    for (const WideNode &n : out.nodes)
        out.boxes.push_back(n.box4());
}

} // namespace

core::golden::Box4
WideNode::box4() const
{
    std::array<core::Box, 4> b;
    for (size_t c = 0; c < b.size(); ++c)
        b[c] = child[c].kind == Kind::Empty ? emptySlotBox()
                                            : child[c].bounds.toIoBox();
    return core::golden::Box4(b.data());
}

size_t
Bvh4::childCount() const
{
    size_t n = 0;
    for (const auto &node : nodes)
        for (const auto &c : node.child)
            if (c.kind != WideNode::Kind::Empty)
                ++n;
    return n;
}

unsigned
Bvh4::depth() const
{
    if (nodes.empty())
        return 0;
    std::function<unsigned(uint32_t)> rec = [&](uint32_t idx) {
        unsigned d = 1;
        for (const auto &c : nodes[idx].child)
            if (c.kind == WideNode::Kind::Internal)
                d = std::max(d, 1 + rec(c.index));
        return d;
    };
    return rec(0);
}

Bvh4
buildBvh4(std::vector<SceneTriangle> tris, const BuildParams &params)
{
    Bvh4 out;
    if (tris.empty()) {
        out.nodes.push_back({});
        convertBoxes(out);
        return out;
    }
    Builder b(params, tris);
    int root = b.build(0, uint32_t(tris.size()));
    out.root_bounds = b.nodes[root].bounds;
    out.tris.reserve(tris.size());
    for (uint32_t i : b.order)
        out.tris.push_back(tris[i]);

    if (b.nodes[root].leaf) {
        // Single-leaf scene: wrap in one wide node.
        WideNode wn;
        wn.child[0].bounds = b.nodes[root].bounds;
        wn.child[0].kind = WideNode::Kind::Leaf;
        wn.child[0].index = b.nodes[root].first;
        wn.child[0].count = b.nodes[root].count;
        out.nodes.push_back(wn);
        convertBoxes(out);
        return out;
    }

    Collapser c{b.nodes, out};
    c.collapse(root);
    convertBoxes(out);
    return out;
}

std::string
validateBvh4(const Bvh4 &bvh)
{
    if (bvh.nodes.empty())
        return "no nodes";
    std::vector<unsigned> seen(bvh.tris.size(), 0);

    std::function<std::string(uint32_t, const Aabb *)> rec =
        [&](uint32_t idx, const Aabb *parent) -> std::string {
        if (idx >= bvh.nodes.size())
            return "child index out of range";
        const WideNode &n = bvh.nodes[idx];
        for (const auto &c : n.child) {
            if (c.kind == WideNode::Kind::Empty)
                continue;
            if (parent) {
                // Child boxes must be inside the parent slot's box.
                const float eps = 1e-4f;
                for (int d = 0; d < 3; ++d) {
                    if (c.bounds.lo[d] < parent->lo[d] - eps ||
                        c.bounds.hi[d] > parent->hi[d] + eps)
                        return "child box escapes parent box";
                }
            }
            if (c.kind == WideNode::Kind::Leaf) {
                if (c.index + c.count > bvh.tris.size())
                    return "leaf range out of bounds";
                for (uint32_t i = c.index; i < c.index + c.count; ++i) {
                    ++seen[i];
                    Aabb tb = bvh.tris[i].bounds();
                    const float eps = 1e-4f;
                    for (int d = 0; d < 3; ++d) {
                        if (tb.lo[d] < c.bounds.lo[d] - eps ||
                            tb.hi[d] > c.bounds.hi[d] + eps)
                            return "triangle escapes leaf box";
                    }
                }
            } else {
                if (c.index <= idx)
                    return "non-forward child index (cycle risk)";
                std::string err = rec(c.index, &c.bounds);
                if (!err.empty())
                    return err;
            }
        }
        return std::string();
    };

    std::string err = rec(0, nullptr);
    if (!err.empty())
        return err;
    for (size_t i = 0; i < seen.size(); ++i) {
        if (seen[i] != 1)
            return "triangle " + std::to_string(i) + " referenced " +
                   std::to_string(seen[i]) + " times";
    }
    return {};
}

} // namespace rayflex::bvh
