/**
 * @file
 * Random workload generator implementation.
 */
#include "core/workloads.hh"

#include <algorithm>
#include <cmath>

namespace rayflex::core
{

using namespace rayflex::fp;

std::vector<BatchRange>
sliceBatches(size_t total, size_t batch_size)
{
    std::vector<BatchRange> out;
    if (total == 0)
        return out;
    if (batch_size == 0)
        batch_size = total;
    out.reserve((total + batch_size - 1) / batch_size);
    for (size_t begin = 0; begin < total; begin += batch_size)
        out.push_back({begin, std::min(begin + batch_size, total)});
    return out;
}

std::vector<std::vector<DatapathInput>>
sliceWorkload(const std::vector<DatapathInput> &beats, size_t batch_size)
{
    std::vector<std::vector<DatapathInput>> out;
    for (const BatchRange &r : sliceBatches(beats.size(), batch_size))
        out.emplace_back(beats.begin() + std::ptrdiff_t(r.begin),
                         beats.begin() + std::ptrdiff_t(r.end));
    return out;
}

float
WorkloadGen::uniform(float lo, float hi)
{
    std::uniform_real_distribution<float> d(lo, hi);
    return d(rng_);
}

Ray
WorkloadGen::ray(float s)
{
    float o[3], d[3];
    for (int i = 0; i < 3; ++i) {
        o[i] = uniform(-s, s);
        d[i] = uniform(-1.0f, 1.0f);
        // Occasionally force an exactly-zero component to exercise the
        // infinite inverse-direction paths.
        if ((rng_() & 7u) == 0)
            d[i] = 0.0f;
    }
    if (d[0] == 0.0f && d[1] == 0.0f && d[2] == 0.0f)
        d[0] = 1.0f;
    return makeRay(o[0], o[1], o[2], d[0], d[1], d[2], 0.0f, 4.0f * s);
}

Box
WorkloadGen::box(float s)
{
    float a[3], b[3];
    for (int i = 0; i < 3; ++i) {
        a[i] = uniform(-s, s);
        b[i] = uniform(-s, s);
        if (a[i] > b[i])
            std::swap(a[i], b[i]);
    }
    return makeBox(a[0], a[1], a[2], b[0], b[1], b[2]);
}

Triangle
WorkloadGen::triangle(float s)
{
    float v[3][3];
    for (auto &vert : v)
        for (float &c : vert)
            c = uniform(-s, s);
    return makeTriangle(v[0][0], v[0][1], v[0][2], v[1][0], v[1][1],
                        v[1][2], v[2][0], v[2][1], v[2][2]);
}

DatapathInput
WorkloadGen::rayBoxOp(uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.tag = tag;
    for (size_t b = 0; b < kBoxesPerOp; ++b)
        in.boxes[b] = box();

    if (rng_() & 1u) {
        in.ray = ray();
    } else {
        // Aim at the centre of a random box so hits are common.
        const Box &target = in.boxes[rng_() % kBoxesPerOp];
        float o[3], d[3];
        for (int i = 0; i < 3; ++i) {
            o[i] = uniform(-30.0f, 30.0f);
            float centre = (fromBits(target.lo[i]) +
                            fromBits(target.hi[i])) * 0.5f;
            d[i] = centre - o[i];
        }
        if (d[0] == 0.0f && d[1] == 0.0f && d[2] == 0.0f)
            d[0] = 1.0f;
        in.ray = makeRay(o[0], o[1], o[2], d[0], d[1], d[2], 0.0f, 200.0f);
    }
    return in;
}

DatapathInput
WorkloadGen::rayTriangleOp(uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayTriangle;
    in.tag = tag;
    in.tri = triangle();

    if (rng_() & 1u) {
        in.ray = ray();
    } else {
        // Aim at a random interior point of the triangle.
        // v spans [0.05, 0.9 - u). Scaling a unit draw keeps uniform()'s
        // bounds ordered when u > 0.85 (the span is then negative).
        float u = uniform(0.05f, 0.9f);
        float v = uniform(0.0f, 1.0f) * ((0.9f - u) - 0.05f) + 0.05f;
        float w = 1.0f - u - v;
        float target[3], o[3], d[3];
        for (int i = 0; i < 3; ++i) {
            target[i] = u * fromBits(in.tri.v[0][i]) +
                        v * fromBits(in.tri.v[1][i]) +
                        w * fromBits(in.tri.v[2][i]);
            o[i] = uniform(-30.0f, 30.0f);
            d[i] = target[i] - o[i];
        }
        if (d[0] == 0.0f && d[1] == 0.0f && d[2] == 0.0f)
            d[0] = 1.0f;
        in.ray = makeRay(o[0], o[1], o[2], d[0], d[1], d[2], 0.0f, 200.0f);
    }
    return in;
}

DatapathInput
WorkloadGen::euclideanOp(bool reset, uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::Euclidean;
    in.tag = tag;
    in.reset_accumulator = reset;
    for (size_t i = 0; i < kEuclideanWidth; ++i) {
        in.vec_a[i] = toBits(uniform(-100.0f, 100.0f));
        in.vec_b[i] = toBits(uniform(-100.0f, 100.0f));
    }
    in.mask = (rng_() & 3u) == 0
                  ? static_cast<uint16_t>(rng_())
                  : 0xFFFFu;
    return in;
}

DatapathInput
WorkloadGen::cosineOp(bool reset, uint64_t tag)
{
    DatapathInput in = euclideanOp(reset, tag);
    in.op = Opcode::Cosine;
    return in;
}

DatapathInput
WorkloadGen::adversarialRayBoxOp(uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayBox;
    in.tag = tag;
    for (size_t b = 0; b < kBoxesPerOp; ++b)
        in.boxes[b] = box(4.0f);

    const Box &target = in.boxes[rng_() % kBoxesPerOp];
    float lo[3], hi[3];
    for (int i = 0; i < 3; ++i) {
        lo[i] = fromBits(target.lo[i]);
        hi[i] = fromBits(target.hi[i]);
    }

    float o[3], d[3];
    switch (rng_() % 4) {
      case 0: // origin exactly on a face, direction parallel to it
        o[0] = lo[0];
        o[1] = (lo[1] + hi[1]) * 0.5f;
        o[2] = (lo[2] + hi[2]) * 0.5f;
        d[0] = 0.0f;
        d[1] = uniform(-1.0f, 1.0f);
        d[2] = uniform(-1.0f, 1.0f);
        if (d[1] == 0.0f && d[2] == 0.0f)
            d[1] = 1.0f;
        break;
      case 1: // origin exactly on a corner
        for (int i = 0; i < 3; ++i) {
            o[i] = (rng_() & 1u) ? hi[i] : lo[i];
            d[i] = uniform(-1.0f, 1.0f);
        }
        break;
      case 2: // ray along an edge
        o[0] = lo[0];
        o[1] = lo[1];
        o[2] = lo[2] - 1.0f;
        d[0] = 0.0f;
        d[1] = 0.0f;
        d[2] = 1.0f;
        break;
      default: // axis-parallel ray through the interior
        for (int i = 0; i < 3; ++i) {
            o[i] = (lo[i] + hi[i]) * 0.5f;
            d[i] = 0.0f;
        }
        o[1] = lo[1] - 2.0f;
        d[1] = 1.0f;
        break;
    }
    in.ray = makeRay(o[0], o[1], o[2], d[0], d[1], d[2], 0.0f, 100.0f);
    return in;
}

DatapathInput
WorkloadGen::adversarialRayTriangleOp(uint64_t tag)
{
    DatapathInput in;
    in.op = Opcode::RayTriangle;
    in.tag = tag;
    in.tri = triangle(4.0f);

    float a[3], b[3], c[3];
    for (int i = 0; i < 3; ++i) {
        a[i] = fromBits(in.tri.v[0][i]);
        b[i] = fromBits(in.tri.v[1][i]);
        c[i] = fromBits(in.tri.v[2][i]);
    }

    float o[3], d[3];
    switch (rng_() % 4) {
      case 0: { // aim exactly at a vertex
        const float *v = (rng_() % 3 == 0) ? a : (rng_() & 1u) ? b : c;
        for (int i = 0; i < 3; ++i) {
            o[i] = uniform(-20.0f, 20.0f);
            d[i] = v[i] - o[i];
        }
        break;
      }
      case 1: { // aim at an edge midpoint
        for (int i = 0; i < 3; ++i) {
            float mid = (a[i] + b[i]) * 0.5f;
            o[i] = uniform(-20.0f, 20.0f);
            d[i] = mid - o[i];
        }
        break;
      }
      case 2: { // coplanar ray: direction inside the triangle plane
        for (int i = 0; i < 3; ++i) {
            o[i] = a[i];
            d[i] = b[i] - a[i];
        }
        break;
      }
      default: { // degenerate (zero-area) triangle
        for (int i = 0; i < 3; ++i)
            in.tri.v[2][i] = in.tri.v[0][i];
        for (int i = 0; i < 3; ++i) {
            o[i] = uniform(-20.0f, 20.0f);
            d[i] = a[i] - o[i];
        }
        break;
      }
    }
    if (d[0] == 0.0f && d[1] == 0.0f && d[2] == 0.0f)
        d[0] = 1.0f;
    in.ray = makeRay(o[0], o[1], o[2], d[0], d[1], d[2], 0.0f, 100.0f);
    return in;
}

std::vector<DatapathInput>
WorkloadGen::batch(Opcode op, size_t n)
{
    std::vector<DatapathInput> v;
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) {
        switch (op) {
          case Opcode::RayBox:
            v.push_back(rayBoxOp(i));
            break;
          case Opcode::RayTriangle:
            v.push_back(rayTriangleOp(i));
            break;
          case Opcode::Euclidean:
            v.push_back(euclideanOp(true, i));
            break;
          case Opcode::Cosine:
            v.push_back(cosineOp(true, i));
            break;
        }
    }
    return v;
}

} // namespace rayflex::core
