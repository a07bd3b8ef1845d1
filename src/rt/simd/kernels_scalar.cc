/**
 * @file
 * Portable scalar SimdOps table: the exactness reference every vector
 * table must match bit-for-bit (see dispatch.h). The accumulation
 * order here — output loaded once, then kernels in FKW order and each
 * kernel's entries in index order — defines the numerics of the whole
 * pattern engine.
 */
#include "rt/simd/dispatch.h"

#include <algorithm>

namespace patdnn {
namespace {

// One block of NB consecutive positions: the accumulators stay in
// locals across the filter's whole kernel walk, so each position is
// loaded and stored once (the engine's register-level LRE).
template <int NB>
void
patternBlockScalar(const float* in, int64_t plane, const PatternSegment* segs,
                   int nsegs, float* out)
{
    float acc[NB];
    for (int v = 0; v < NB; ++v)
        acc[v] = out[v];
    for (int s = 0; s < nsegs; ++s) {
        const PatternSegment& sg = segs[s];
        const float* w = sg.weights;
        for (int64_t k = 0; k < sg.count; ++k, w += sg.entries) {
            const float* base = in + sg.channels[k] * plane;
            for (int e = 0; e < sg.entries; ++e) {
                const float* x = base + sg.taps[e];
                for (int v = 0; v < NB; ++v)
                    acc[v] += w[e] * x[v];
            }
        }
    }
    for (int v = 0; v < NB; ++v)
        out[v] = acc[v];
}

void
patternAccumScalar(const float* in, int64_t plane, const PatternSegment* segs,
                   int nsegs, float* out, int64_t n)
{
    for (int64_t i = 0; i < n; i += 4) {
        switch (std::min<int64_t>(4, n - i)) {
        case 1: patternBlockScalar<1>(in + i, plane, segs, nsegs, out + i); break;
        case 2: patternBlockScalar<2>(in + i, plane, segs, nsegs, out + i); break;
        case 3: patternBlockScalar<3>(in + i, plane, segs, nsegs, out + i); break;
        default: patternBlockScalar<4>(in + i, plane, segs, nsegs, out + i); break;
        }
    }
}

void
axpyScalar(float a, const float* x, float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
reluScalar(float* y, int64_t n)
{
    for (int64_t i = 0; i < n; ++i)
        y[i] = std::max(0.0f, y[i]);
}

// Packed-GEMM tile footprint. 4x4 keeps 16 independent accumulators
// live, which the baseline target maps onto whatever registers it has;
// correctness never depends on these numbers (see dispatch.h).
constexpr int kGemmMrScalar = 4;
constexpr int kGemmNrScalar = 4;

void
gemmTileScalar(const float* a_panel, const float* b_panel, float* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    // The per-element k chain — load C once, add a*b in k order, store
    // once — is the numerics contract every vector tile kernel
    // reproduces lane for lane. The tile accumulators live in locals so
    // the k loop runs over registers, not memory.
    float acc[kGemmMrScalar][kGemmNrScalar];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kc; ++k) {
        const float* a = a_panel + k * kGemmMrScalar;
        const float* b = b_panel + k * kGemmNrScalar;
        for (int m = 0; m < mr; ++m) {
            float av = a[m];
            for (int n = 0; n < nr; ++n)
                acc[m][n] += av * b[n];
        }
    }
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            c[m * ldc + n] = acc[m][n];
}

// Int8 tile footprint: small and square — the scalar table is the
// conformance reference, not a speed play (see dispatch.h: integer
// accumulation is exact, so any footprint gives identical results).
constexpr int kGemmI8MrScalar = 4;
constexpr int kGemmI8NrScalar = 4;

void
gemmTileI8Scalar(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
                 int64_t ldc, int64_t kc, int mr, int nr)
{
    int32_t acc[kGemmI8MrScalar][kGemmI8NrScalar];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrScalar * 2;
        const int8_t* b = b_panel + k * kGemmI8NrScalar * 2;
        for (int m = 0; m < mr; ++m) {
            int32_t a0 = a[m * 2];
            int32_t a1 = a[m * 2 + 1];
            for (int n = 0; n < nr; ++n)
                acc[m][n] += a0 * b[n * 2] + a1 * b[n * 2 + 1];
        }
    }
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            c[m * ldc + n] = acc[m][n];
}

// The quantize_row_i8 reference: clamp-then-round restated branch-free
// so adding the sign-matched 0.5 and truncating toward zero is exactly
// round half away from zero (dispatch.h) — and so the compiler can
// vectorize the flat loop even at the baseline ISA.
void
quantizeRowI8Scalar(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    for (int64_t i = 0; i < n; ++i) {
        float s = x[i] * inv_scale;
        s = s > 127.0f ? 127.0f : s;
        s = s < -127.0f ? -127.0f : s;
        s += s >= 0.0f ? 0.5f : -0.5f;
        out[i] = static_cast<int8_t>(static_cast<int32_t>(s));
    }
}

}  // namespace

const SimdOps&
scalarSimdOps()
{
    static const SimdOps ops = {SimdIsa::kScalar, "scalar", 1,
                                patternAccumScalar, axpyScalar, reluScalar,
                                kGemmMrScalar, kGemmNrScalar, gemmTileScalar,
                                kGemmI8MrScalar, kGemmI8NrScalar,
                                gemmTileI8Scalar, quantizeRowI8Scalar};
    return ops;
}

}  // namespace patdnn
