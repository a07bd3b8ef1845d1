#include "rt/microkernels.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace patdnn {

PatternKernel
lowerPattern(const Pattern& p)
{
    PatternKernel pk;
    pk.mask = p.mask();
    PATDNN_CHECK_LE(std::popcount(p.keptBits()), 9, "pattern entries limited to 9");
    for (uint32_t m = p.keptBits(); m != 0; m &= m - 1, ++pk.entries) {
        int pos = std::countr_zero(m);
        pk.dy[pk.entries] = static_cast<int32_t>(pos / p.kw());
        pk.dx[pk.entries] = static_cast<int32_t>(pos % p.kw());
    }
    return pk;
}

namespace {

/** Fully guarded accumulation for one output element. */
inline float
guardedDot(const PatternKernel& pk, const float* weights, const float* in, int64_t h,
           int64_t w, int64_t pad, int64_t stride, int64_t y, int64_t x)
{
    float acc = 0.0f;
    for (int e = 0; e < pk.entries; ++e) {
        int64_t iy = y * stride - pad + pk.dy[e];
        int64_t ix = x * stride - pad + pk.dx[e];
        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
            acc += weights[e] * in[iy * w + ix];
    }
    return acc;
}

}  // namespace

__attribute__((noinline)) float
guardedPatternDot(const PatternKernel& pk, const float* weights, const float* in,
                  const PlaneGeom& g, int64_t y, int64_t x)
{
    return guardedDot(pk, weights, in, g.h, g.w, g.pad, g.stride, y, x);
}

void
kernelAccumulateLre(const PatternKernel& pk, const float* weights, const float* in,
                    float* out, const PlaneGeom& g)
{
    for (int64_t y = g.y0; y < g.y1; ++y) {
        float* orow = out + y * g.ow;
        for (int64_t x = g.x0; x < g.x1; ++x)
            orow[x] += guardedDot(pk, weights, in, g.h, g.w, g.pad, g.stride, y, x);
    }
}

void
kernelAccumulateNoLre(const PatternKernel& pk, const float* weights, const float* in,
                      float* out, const PlaneGeom& g)
{
    // One pass per entry: the output row is re-loaded and re-stored for
    // every entry and input rows are re-walked — the redundant register
    // loads LRE eliminates (Fig. 14b counts the difference).
    for (int e = 0; e < pk.entries; ++e) {
        float wv = weights[e];
        for (int64_t y = g.y0; y < g.y1; ++y) {
            int64_t iy = y * g.stride - g.pad + pk.dy[e];
            if (iy < 0 || iy >= g.h)
                continue;
            const float* irow = in + iy * g.w;
            float* orow = out + y * g.ow;
            for (int64_t x = g.x0; x < g.x1; ++x) {
                int64_t ix = x * g.stride - g.pad + pk.dx[e];
                if (ix < 0 || ix >= g.w)
                    continue;
                orow[x] += wv * irow[ix];
            }
        }
    }
}

}  // namespace patdnn
