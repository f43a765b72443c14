/**
 * @file
 * Golden software model implementation.
 *
 * The FP32 golden functions use host float arithmetic. The build forces
 * -ffp-contract=off, so every add/mul rounds to binary32 exactly like the
 * datapath's per-operation rounding; results are bit-identical to the
 * hardware model by construction, which the randomized tests verify.
 */
#include "core/golden.hh"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rayflex::core::golden
{

using namespace rayflex::fp;

SlabRay::SlabRay(const Ray &ray)
    : t_beg(fromBits(ray.t_beg)), t_end(fromBits(ray.t_end)),
      nan(std::isnan(t_beg) | std::isnan(t_end))
{
    for (int d = 0; d < 3; ++d) {
        org[d] = fromBits(ray.origin[d]);
        inv[d] = fromBits(ray.inv_dir[d]);
    }
}

Box4::Box4(const Box *boxes)
{
    for (int d = 0; d < 3; ++d) {
        lo[d] = F32x4{fromBits(boxes[0].lo[d]), fromBits(boxes[1].lo[d]),
                      fromBits(boxes[2].lo[d]), fromBits(boxes[3].lo[d])};
        hi[d] = F32x4{fromBits(boxes[0].hi[d]), fromBits(boxes[1].hi[d]),
                      fromBits(boxes[2].hi[d]), fromBits(boxes[3].hi[d])};
    }
}

std::array<SortRecord<uint8_t>, kBoxesPerOp>
quadSortSlots(const Slab4 &s)
{
    // Each slot travels the network as one word: its key's order above
    // (the F32 bits mapped so that unsigned order is the host `<`,
    // with -0 folded onto +0 so the two stay equal; keys are never
    // NaN), its slot below. A comparator exchanges two words when the
    // upper half of the first is strictly greater — the host `>` on
    // the keys — so equal keys never swap, as in compareExchange.
    const M32x4 key = s.key();
    std::array<uint64_t, kBoxesPerOp> w;
    for (size_t b = 0; b < kBoxesPerOp; ++b) {
        uint32_t u = uint32_t(key[b]);
        u = u == 0x80000000u ? 0 : u;
        u = u & 0x80000000u ? ~u : u | 0x80000000u;
        w[b] = uint64_t(u) << 32 | b;
    }
    constexpr SortNetworkList net = kSortNetworks[kBoxesPerOp];
    [&]<size_t... c>(std::index_sequence<c...>) {
        const auto exchange = [&](uint64_t &a, uint64_t &z) {
            const uint64_t m = -uint64_t((a >> 32) > (z >> 32));
            const uint64_t x = (a ^ z) & m;
            a ^= x;
            z ^= x;
        };
        (exchange(w[net.ce[c].a], w[net.ce[c].b]), ...);
    }(std::make_index_sequence<net.count>{});
    // The key bits, -0 included, come back from the slot.
    std::array<SortRecord<uint8_t>, kBoxesPerOp> recs;
    for (size_t k = 0; k < kBoxesPerOp; ++k) {
        const uint8_t slot = uint8_t(w[k]);
        recs[k] = {F32(key[slot]), slot};
    }
    return recs;
}

namespace
{

/** Slots [from, kMaxBoxesPerOp) of a BoxResult: misses keyed +inf in
 *  slot order. */
inline void
missFrom(size_t from, BoxResult &out)
{
    for (size_t b = from; b < kMaxBoxesPerOp; ++b) {
        out.hit[b] = false;
        out.order[b] = static_cast<uint8_t>(b);
        out.sorted_dist[b] = kPosInf;
    }
}

/** Sorted records [0, n) into a BoxResult. */
template <size_t N>
inline void
writeSorted(const std::array<SortRecord<uint8_t>, N> &recs, size_t n,
            BoxResult &out)
{
    for (size_t i = 0; i < n; ++i) {
        out.order[i] = recs[i].payload;
        out.sorted_dist[i] = recs[i].key;
    }
}

} // namespace

BoxHit
rayBox(const Ray &ray, const Box &box)
{
    const Box four[kBoxesPerOp] = {box, box, box, box};
    const Slab4 s = slab4(SlabRay(ray), Box4(four));
    return {s.hit()[0] != 0, s.nan[0] ? kDefaultNaN : toBits(s.near[0])};
}

void
rayBoxN(const Ray &ray, const std::array<Box, kMaxBoxesPerOp> &boxes,
        unsigned width, BoxResult &out)
{
    const SlabRay r(ray);
    if (width == kBoxesPerOp) {
        const Slab4 s = slab4(r, Box4(boxes.data()));
        const M32x4 hit = s.hit();
        for (size_t b = 0; b < kBoxesPerOp; ++b)
            out.hit[b] = hit[b] != 0;
        writeSorted(quadSortSlots(s), kBoxesPerOp, out);
        missFrom(kBoxesPerOp, out);
        return;
    }
    // Four slots per slab test; the slots of the last group at or past
    // the width are computed and dropped.
    std::array<SortRecord<uint8_t>, kMaxBoxesPerOp> recs;
    for (size_t base = 0; base < width; base += kBoxesPerOp) {
        const Slab4 s = slab4(r, Box4(&boxes[base]));
        const M32x4 hit = s.hit(), key = s.key();
        for (size_t b = base; b < std::min<size_t>(width, base + kBoxesPerOp); ++b) {
            out.hit[b] = hit[b - base] != 0;
            recs[b] = {F32(key[b - base]), static_cast<uint8_t>(b)};
        }
    }
    sortNetwork(recs, width, HostGreater{});
    writeSorted(recs, width, out);
    missFrom(width, out);
}

void
rayTriangle(const Ray &ray, const Triangle &tri, TriangleResult &out)
{
    const int kx = ray.kx, ky = ray.ky, kz = ray.kz;
    const float sx = fromBits(ray.shear[0]);
    const float sy = fromBits(ray.shear[1]);
    const float sz = fromBits(ray.shear[2]);

    float v[3][3]; // translated vertices A, B, C
    for (int i = 0; i < 3; ++i)
        for (int d = 0; d < 3; ++d)
            v[i][d] = fromBits(tri.v[i][d]) - fromBits(ray.origin[d]);

    // Shear and scale (same op order as stages 3-4).
    float x[3], y[3], z[3];
    for (int i = 0; i < 3; ++i) {
        x[i] = v[i][kx] - sx * v[i][kz];
        y[i] = v[i][ky] - sy * v[i][kz];
        z[i] = sz * v[i][kz];
    }

    float u = x[2] * y[1] - y[2] * x[1]; // Cx*By - Cy*Bx
    float vv = x[0] * y[2] - y[0] * x[2]; // Ax*Cy - Ay*Cx
    float w = x[1] * y[0] - y[1] * x[0]; // Bx*Ay - By*Ax

    float det = (u + vv) + w;
    float t_num = (u * z[0] + vv * z[1]) + w * z[2];

    out.t_num = toBits(t_num);
    out.t_den = toBits(det);
    out.uvw = {toBits(u), toBits(vv), toBits(w)};
    // Backface culling: det must be strictly positive. All comparisons
    // are false on NaN.
    out.hit = (u >= 0.0f) & (vv >= 0.0f) & (w >= 0.0f) & (det > 0.0f) &
              (t_num >= 0.0f);
}

TriRay::TriRay(const Ray &ray) : k{ray.kx, ray.ky, ray.kz}
{
    for (int d = 0; d < 3; ++d) {
        org[d] = fromBits(ray.origin[k[d]]);
        shear[d] = fromBits(ray.shear[d]);
    }
}

Tri4
rayTriangle4(const std::array<const TriRay *, 4> &r, const float (&tri)[3][3])
{
    // Lane l reads ray r[l]; a vertex coordinate is gathered along
    // each lane's own permuted axis.
    const auto lanes = [&](auto f) {
        return F32x4{f(*r[0]), f(*r[1]), f(*r[2]), f(*r[3])};
    };
    const F32x4 sx = lanes([](const TriRay &t) { return t.shear[0]; });
    const F32x4 sy = lanes([](const TriRay &t) { return t.shear[1]; });
    const F32x4 sz = lanes([](const TriRay &t) { return t.shear[2]; });
    F32x4 x[3], y[3], z[3];
    for (int i = 0; i < 3; ++i) {
        // Translate, then shear and scale (same op order as
        // rayTriangle and stages 3-4).
        F32x4 v[3];
        for (int a = 0; a < 3; ++a)
            v[a] = lanes([&](const TriRay &t) { return tri[i][t.k[a]]; }) -
                   lanes([&](const TriRay &t) { return t.org[a]; });
        x[i] = v[0] - sx * v[2];
        y[i] = v[1] - sy * v[2];
        z[i] = sz * v[2];
    }
    Tri4 out;
    out.u = x[2] * y[1] - y[2] * x[1];
    out.v = x[0] * y[2] - y[0] * x[2];
    out.w = x[1] * y[0] - y[1] * x[0];
    out.det = (out.u + out.v) + out.w;
    out.t_num = (out.u * z[0] + out.v * z[1]) + out.w * z[2];
    const F32x4 zero = splat(0.0f);
    out.hit = (out.u >= zero) & (out.v >= zero) & (out.w >= zero) &
              (out.det > zero) & (out.t_num >= zero);
    return out;
}

F32
euclideanBeat(const std::array<F32, kEuclideanWidth> &a,
              const std::array<F32, kEuclideanWidth> &b, uint16_t mask)
{
    float sq[kEuclideanWidth];
    for (size_t i = 0; i < kEuclideanWidth; ++i) {
        if (mask & (1u << i)) {
            float d = fromBits(a[i]) - fromBits(b[i]);
            sq[i] = d * d;
        } else {
            sq[i] = 0.0f;
        }
    }
    // Balanced reduction tree, identical association to stages 4-9.
    for (int width = 8; width >= 1; width /= 2)
        for (int i = 0; i < width; ++i)
            sq[i] = sq[2 * i] + sq[2 * i + 1];
    return toBits(sq[0]);
}

CosineBeat
cosineBeat(const std::array<F32, kEuclideanWidth> &a,
           const std::array<F32, kEuclideanWidth> &b, uint16_t mask)
{
    float dot[kCosineWidth], sq[kCosineWidth];
    for (size_t i = 0; i < kCosineWidth; ++i) {
        if (mask & (1u << i)) {
            dot[i] = fromBits(a[i]) * fromBits(b[i]);
            sq[i] = fromBits(b[i]) * fromBits(b[i]);
        } else {
            dot[i] = 0.0f;
            sq[i] = 0.0f;
        }
    }
    for (int width = 4; width >= 1; width /= 2) {
        for (int i = 0; i < width; ++i) {
            dot[i] = dot[2 * i] + dot[2 * i + 1];
            sq[i] = sq[2 * i] + sq[2 * i + 1];
        }
    }
    return {toBits(dot[0]), toBits(sq[0])};
}

float
knnScore(const float *query, const float *candidate, size_t dims,
         bool cosine)
{
    const size_t width = cosine ? kCosineWidth : kEuclideanWidth;
    if (!cosine) {
        float acc = 0.0f;
        for (size_t base = 0; base < dims; base += width) {
            std::array<F32, kEuclideanWidth> a{}, b{};
            uint16_t mask = 0;
            for (size_t i = 0; i < width && base + i < dims; ++i) {
                a[i] = toBits(query[base + i]);
                b[i] = toBits(candidate[base + i]);
                mask |= uint16_t(1u << i);
            }
            acc = acc + fromBits(euclideanBeat(a, b, mask));
        }
        return acc;
    }
    float dot = 0.0f, norm = 0.0f;
    for (size_t base = 0; base < dims; base += width) {
        std::array<F32, kEuclideanWidth> a{}, b{};
        uint16_t mask = 0;
        for (size_t i = 0; i < width && base + i < dims; ++i) {
            a[i] = toBits(query[base + i]);
            b[i] = toBits(candidate[base + i]);
            mask |= uint16_t(1u << i);
        }
        CosineBeat cb = cosineBeat(a, b, mask);
        dot = dot + fromBits(cb.dot);
        norm = norm + fromBits(cb.norm);
    }
    return knnAngularScore(dot, norm);
}

std::vector<KnnNeighbor>
knnScan(const float *query, size_t dims,
        const std::vector<KnnCandidate> &candidates, size_t k,
        bool cosine)
{
    std::vector<KnnNeighbor> all;
    all.reserve(candidates.size());
    for (const KnnCandidate &c : candidates)
        all.push_back({knnScore(query, c.coords, dims, cosine), c.id});
    std::sort(all.begin(), all.end(), knnCloser);
    if (all.size() > k)
        all.resize(k);
    return all;
}

namespace
{

/** NaN-propagating double min/max mirroring the comparator + mux. */
double
minPropD(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return double(fromBits(kDefaultNaN));
    return a > b ? b : a;
}

double
maxPropD(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return double(fromBits(kDefaultNaN));
    return a < b ? b : a;
}

} // namespace

BoxHit
rayBoxUnrounded(const Ray &ray, const Box &box)
{
    double org[3], inv[3], lo[3], hi[3];
    for (int d = 0; d < 3; ++d) {
        org[d] = fromBits(ray.origin[d]);
        inv[d] = fromBits(ray.inv_dir[d]);
        lo[d] = fromBits(box.lo[d]);
        hi[d] = fromBits(box.hi[d]);
    }
    double near_d[3], far_d[3];
    for (int d = 0; d < 3; ++d) {
        double t0 = (lo[d] - org[d]) * inv[d];
        double t1 = (hi[d] - org[d]) * inv[d];
        near_d[d] = minPropD(t0, t1);
        far_d[d] = maxPropD(t0, t1);
    }
    double near = maxPropD(maxPropD(near_d[0], near_d[1]),
                           maxPropD(near_d[2], fromBits(ray.t_beg)));
    double far = minPropD(minPropD(far_d[0], far_d[1]),
                          minPropD(far_d[2], fromBits(ray.t_end)));
    BoxHit r;
    r.hit = !(std::isnan(near) || std::isnan(far)) && near <= far;
    // One rounding at the output converter.
    r.t_near = toBits(float(near));
    return r;
}

TriangleResult
rayTriangleUnrounded(const Ray &ray, const Triangle &tri)
{
    const int kx = ray.kx, ky = ray.ky, kz = ray.kz;
    const double sx = fromBits(ray.shear[0]);
    const double sy = fromBits(ray.shear[1]);
    const double sz = fromBits(ray.shear[2]);

    double v[3][3];
    for (int i = 0; i < 3; ++i)
        for (int d = 0; d < 3; ++d)
            v[i][d] = double(fromBits(tri.v[i][d])) -
                      double(fromBits(ray.origin[d]));

    double x[3], y[3], z[3];
    for (int i = 0; i < 3; ++i) {
        x[i] = v[i][kx] - sx * v[i][kz];
        y[i] = v[i][ky] - sy * v[i][kz];
        z[i] = sz * v[i][kz];
    }
    double u = x[2] * y[1] - y[2] * x[1];
    double vv = x[0] * y[2] - y[0] * x[2];
    double w = x[1] * y[0] - y[1] * x[0];
    double det = (u + vv) + w;
    double t_num = (u * z[0] + vv * z[1]) + w * z[2];

    TriangleResult r;
    r.t_num = toBits(float(t_num));
    r.t_den = toBits(float(det));
    r.uvw = {toBits(float(u)), toBits(float(vv)), toBits(float(w))};
    r.hit = (u >= 0.0) && (vv >= 0.0) && (w >= 0.0) && (det > 0.0) &&
            (t_num >= 0.0);
    return r;
}

F32
euclideanBeatUnrounded(const std::array<F32, kEuclideanWidth> &a,
                       const std::array<F32, kEuclideanWidth> &b,
                       uint16_t mask)
{
    double sum = 0.0;
    for (size_t i = 0; i < kEuclideanWidth; ++i) {
        if (mask & (1u << i)) {
            double d = double(fromBits(a[i])) - double(fromBits(b[i]));
            sum += d * d;
        }
    }
    return toBits(float(sum));
}

std::optional<double>
refRayBox(const Ray &ray, const Box &box)
{
    double t_near = fromBits(ray.t_beg);
    double t_far = fromBits(ray.t_end);
    for (int d = 0; d < 3; ++d) {
        double org = fromBits(ray.origin[d]);
        double dir = fromBits(ray.dir[d]);
        double lo = fromBits(box.lo[d]);
        double hi = fromBits(box.hi[d]);
        if (dir == 0.0) {
            // Parallel to the slab: on-boundary counts as outside to
            // match the hardware's NaN-miss convention.
            if (!(org > lo && org < hi))
                return std::nullopt;
            continue;
        }
        double t0 = (lo - org) / dir;
        double t1 = (hi - org) / dir;
        if (t0 > t1)
            std::swap(t0, t1);
        t_near = std::max(t_near, t0);
        t_far = std::min(t_far, t1);
        if (t_near > t_far)
            return std::nullopt;
    }
    return t_near;
}

std::optional<double>
refRayTriangle(const Ray &ray, const Triangle &tri)
{
    double org[3], dir[3], a[3], b[3], c[3];
    for (int d = 0; d < 3; ++d) {
        org[d] = fromBits(ray.origin[d]);
        dir[d] = fromBits(ray.dir[d]);
        a[d] = fromBits(tri.v[0][d]);
        b[d] = fromBits(tri.v[1][d]);
        c[d] = fromBits(tri.v[2][d]);
    }
    double e1[3], e2[3];
    for (int d = 0; d < 3; ++d) {
        e1[d] = b[d] - a[d];
        e2[d] = c[d] - a[d];
    }
    auto cross = [](const double *u, const double *v, double *out) {
        out[0] = u[1] * v[2] - u[2] * v[1];
        out[1] = u[2] * v[0] - u[0] * v[2];
        out[2] = u[0] * v[1] - u[1] * v[0];
    };
    auto dot = [](const double *u, const double *v) {
        return u[0] * v[0] + u[1] * v[1] + u[2] * v[2];
    };
    double p[3];
    cross(dir, e2, p);
    double det = dot(e1, p);
    if (det <= 0.0)
        return std::nullopt; // backface or coplanar
    double tvec[3] = {org[0] - a[0], org[1] - a[1], org[2] - a[2]};
    double u = dot(tvec, p) / det;
    if (u < 0.0 || u > 1.0)
        return std::nullopt;
    double q[3];
    cross(tvec, e1, q);
    double v = dot(dir, q) / det;
    if (v < 0.0 || u + v > 1.0)
        return std::nullopt;
    double t = dot(e2, q) / det;
    if (t < 0.0)
        return std::nullopt;
    return t;
}

double
refEuclidean(const std::array<F32, kEuclideanWidth> &a,
             const std::array<F32, kEuclideanWidth> &b, uint16_t mask)
{
    double sum = 0.0;
    for (size_t i = 0; i < kEuclideanWidth; ++i) {
        if (mask & (1u << i)) {
            double d = double(fromBits(a[i])) - double(fromBits(b[i]));
            sum += d * d;
        }
    }
    return sum;
}

} // namespace rayflex::core::golden
