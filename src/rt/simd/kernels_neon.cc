/**
 * @file
 * NEON SimdOps table (aarch64): 4 output positions per vector, up to
 * 4 vectors per pattern register block — the layout PatDNN's generated
 * mobile kernels target. Explicit vmulq+vaddq (never vmlaq/vfmaq: aarch64 fuses those
 * into a single-rounding FMLA, which would break the bit-exactness
 * contract of dispatch.h). NEON is baseline on aarch64, so this TU
 * needs no extra compile flags and no cpuid gate.
 */
#include "rt/simd/dispatch.h"

#if defined(__aarch64__) || defined(__ARM_NEON)

#include <arm_neon.h>

#include <cstring>

namespace patdnn {
namespace {

// One block of NV full vectors (4 positions each) held in q-register
// accumulators across the filter's whole kernel walk; the same code
// shape as the AVX2 table (see kernels_avx2.cc).
template <int NV>
inline void
patternBlockNeon(const float* in, int64_t plane, const PatternSegment* segs,
                 int nsegs, float* out)
{
    float32x4_t acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = vld1q_f32(out + 4 * v);
    for (int s = 0; s < nsegs; ++s) {
        const PatternSegment& sg = segs[s];
        const float* w = sg.weights;
        if (sg.entries == 4) {
            const int64_t t0 = sg.taps[0], t1 = sg.taps[1];
            const int64_t t2 = sg.taps[2], t3 = sg.taps[3];
            for (int64_t k = 0; k < sg.count; ++k, w += 4) {
                const float* base = in + sg.channels[k] * plane;
                const float32x4_t w0 = vdupq_n_f32(w[0]);
                const float32x4_t w1 = vdupq_n_f32(w[1]);
                const float32x4_t w2 = vdupq_n_f32(w[2]);
                const float32x4_t w3 = vdupq_n_f32(w[3]);
                for (int v = 0; v < NV; ++v) {
                    const float* x = base + 4 * v;
                    float32x4_t a = acc[v];
                    a = vaddq_f32(a, vmulq_f32(w0, vld1q_f32(x + t0)));
                    a = vaddq_f32(a, vmulq_f32(w1, vld1q_f32(x + t1)));
                    a = vaddq_f32(a, vmulq_f32(w2, vld1q_f32(x + t2)));
                    a = vaddq_f32(a, vmulq_f32(w3, vld1q_f32(x + t3)));
                    acc[v] = a;
                }
            }
            continue;
        }
        for (int64_t k = 0; k < sg.count; ++k, w += sg.entries) {
            const float* base = in + sg.channels[k] * plane;
            for (int e = 0; e < sg.entries; ++e) {
                const float32x4_t we = vdupq_n_f32(w[e]);
                const float* x = base + sg.taps[e];
                for (int v = 0; v < NV; ++v)
                    acc[v] = vaddq_f32(acc[v],
                                       vmulq_f32(we, vld1q_f32(x + 4 * v)));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        vst1q_f32(out + 4 * v, acc[v]);
}

void
patternAccumNeon(const float* in, int64_t plane, const PatternSegment* segs,
                 int nsegs, float* out, int64_t n)
{
    int64_t i = 0;
    for (; i + 16 <= n; i += 16)
        patternBlockNeon<4>(in + i, plane, segs, nsegs, out + i);
    const int64_t rest = n - i;
    if (rest == 0)
        return;
    // The last 1-4 vectors run on a stack copy of the accumulators, so
    // no lane past n is stored (the next row tile may own it).
    float edge[16] = {};
    std::memcpy(edge, out + i, static_cast<size_t>(rest) * sizeof(float));
    switch ((rest + 3) / 4) {
    case 1: patternBlockNeon<1>(in + i, plane, segs, nsegs, edge); break;
    case 2: patternBlockNeon<2>(in + i, plane, segs, nsegs, edge); break;
    case 3: patternBlockNeon<3>(in + i, plane, segs, nsegs, edge); break;
    default: patternBlockNeon<4>(in + i, plane, segs, nsegs, edge); break;
    }
    std::memcpy(out + i, edge, static_cast<size_t>(rest) * sizeof(float));
}

void
axpyNeon(float a, const float* x, float* y, int64_t n)
{
    const float32x4_t av = vdupq_n_f32(a);
    int64_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(y + i, vaddq_f32(vld1q_f32(y + i),
                                   vmulq_f32(av, vld1q_f32(x + i))));
    for (; i < n; ++i)
        y[i] += a * x[i];
}

void
reluNeon(float* y, int64_t n)
{
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int64_t i = 0;
    // vmaxq returns the non-NaN operand lane-wise on aarch64 only for
    // fmax semantics; select explicitly so NaN lanes become 0 exactly
    // like std::max(0.0f, v).
    for (; i + 4 <= n; i += 4) {
        const float32x4_t v = vld1q_f32(y + i);
        const uint32x4_t keep = vcgtq_f32(v, zero);  // v > 0, false on NaN
        vst1q_f32(y + i, vbslq_f32(keep, v, zero));
    }
    for (; i < n; ++i)
        y[i] = 0.0f < y[i] ? y[i] : 0.0f;
}

// Packed-GEMM tile: 4 LHS rows x 8 RHS columns = 8 q-register
// accumulators plus one broadcast and two RHS loads per k step; well
// inside the 32 NEON registers. Explicit vmulq+vaddq, never
// vmlaq/vfmaq (see the file comment).
constexpr int kGemmMrNeon = 4;
constexpr int kGemmNrNeon = 8;

void
gemmTileNeon(const float* a_panel, const float* b_panel, float* c, int64_t ldc,
             int64_t kc, int mr, int nr)
{
    if (mr == kGemmMrNeon && nr == kGemmNrNeon) {
        float32x4_t acc[kGemmMrNeon][2];
        for (int m = 0; m < kGemmMrNeon; ++m) {
            acc[m][0] = vld1q_f32(c + m * ldc);
            acc[m][1] = vld1q_f32(c + m * ldc + 4);
        }
        for (int64_t k = 0; k < kc; ++k) {
            const float32x4_t b0 = vld1q_f32(b_panel + k * kGemmNrNeon);
            const float32x4_t b1 = vld1q_f32(b_panel + k * kGemmNrNeon + 4);
            const float* a = a_panel + k * kGemmMrNeon;
            for (int m = 0; m < kGemmMrNeon; ++m) {
                const float32x4_t av = vdupq_n_f32(a[m]);
                acc[m][0] = vaddq_f32(acc[m][0], vmulq_f32(av, b0));
                acc[m][1] = vaddq_f32(acc[m][1], vmulq_f32(av, b1));
            }
        }
        for (int m = 0; m < kGemmMrNeon; ++m) {
            vst1q_f32(c + m * ldc, acc[m][0]);
            vst1q_f32(c + m * ldc + 4, acc[m][1]);
        }
        return;
    }
    // Edge tiles: same per-element k chain, scalar lanes.
    float acc[kGemmMrNeon][kGemmNrNeon];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kc; ++k) {
        const float* a = a_panel + k * kGemmMrNeon;
        const float* b = b_panel + k * kGemmNrNeon;
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

// Int8 tile: 4 LHS rows x 8 RHS columns, one k-PAIR per step (the
// sdot-style shape without requiring the dotprod extension, which is
// not baseline armv8-a): the 16-byte RHS pair row widens to two i16x8
// vectors of interleaved (k0, k1) column pairs, the LHS pair broadcasts
// as one 32-bit lane, vmulq_s16 is exact (127*127 < 32767) and
// vpadalq_s16 does the pairwise i16 -> i32 add-accumulate. The LHS
// panel arrives pre-widened to i16, so the (a0, a1) pair is one
// naturally aligned 32-bit memory unit dup-loaded directly. Integer
// accumulation is exact, so no ordering contract applies (dispatch.h).
constexpr int kGemmI8MrNeon = 4;
constexpr int kGemmI8NrNeon = 8;

void
gemmTileI8Neon(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    const int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    if (mr == kGemmI8MrNeon && nr == kGemmI8NrNeon) {
        int32x4_t acc[kGemmI8MrNeon][2];
        for (int m = 0; m < kGemmI8MrNeon; ++m) {
            acc[m][0] = vld1q_s32(c + m * ldc);
            acc[m][1] = vld1q_s32(c + m * ldc + 4);
        }
        for (int64_t k = 0; k < kp; ++k) {
            const int8x16_t braw = vld1q_s8(b_panel + k * kGemmI8NrNeon * 2);
            // Columns 0-3 / 4-7 as interleaved (k0, k1) i16 pairs.
            const int16x8_t b_lo = vmovl_s8(vget_low_s8(braw));
            const int16x8_t b_hi = vmovl_s8(vget_high_s8(braw));
            const int16_t* a = a_panel + k * kGemmI8MrNeon * 2;
            for (int m = 0; m < kGemmI8MrNeon; ++m) {
                int32_t pair;
                std::memcpy(&pair, a + m * 2, sizeof(pair));
                const int16x8_t av =
                    vreinterpretq_s16_s32(vdupq_n_s32(pair));
                acc[m][0] = vpadalq_s16(acc[m][0], vmulq_s16(av, b_lo));
                acc[m][1] = vpadalq_s16(acc[m][1], vmulq_s16(av, b_hi));
            }
        }
        for (int m = 0; m < kGemmI8MrNeon; ++m) {
            vst1q_s32(c + m * ldc, acc[m][0]);
            vst1q_s32(c + m * ldc + 4, acc[m][1]);
        }
        return;
    }
    // Edge tiles: scalar lanes over the same pair layout.
    int32_t acc[kGemmI8MrNeon][kGemmI8NrNeon];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrNeon * 2;
        const int8_t* b = b_panel + k * kGemmI8NrNeon * 2;
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

// f32 -> i8 row quantization, 16 elements per step: each q-register
// lane runs the scalar contract verbatim (mul, clamp, sign-matched
// +0.5, truncate via vcvtq_s32_f32), then saturating narrows squeeze
// the four i32 vectors to i8 — values are already inside [-127, 127],
// so the saturation never engages; it is only the narrowing shape.
void
quantizeRowI8Neon(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    const float32x4_t vinv = vdupq_n_f32(inv_scale);
    const float32x4_t vhi = vdupq_n_f32(127.0f);
    const float32x4_t vlo = vdupq_n_f32(-127.0f);
    const uint32x4_t vhalf = vreinterpretq_u32_f32(vdupq_n_f32(0.5f));
    const uint32x4_t vsign = vdupq_n_u32(0x80000000u);
    auto lane = [&](const float* p) {
        float32x4_t s = vmulq_f32(vld1q_f32(p), vinv);
        s = vminq_f32(s, vhi);
        s = vmaxq_f32(s, vlo);
        const float32x4_t half = vreinterpretq_f32_u32(
            vorrq_u32(vandq_u32(vreinterpretq_u32_f32(s), vsign), vhalf));
        return vcvtq_s32_f32(vaddq_f32(s, half));
    };
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const int16x8_t q01 = vcombine_s16(vqmovn_s32(lane(x + i)),
                                           vqmovn_s32(lane(x + i + 4)));
        const int16x8_t q23 = vcombine_s16(vqmovn_s32(lane(x + i + 8)),
                                           vqmovn_s32(lane(x + i + 12)));
        vst1q_s8(out + i, vcombine_s8(vqmovn_s16(q01), vqmovn_s16(q23)));
    }
    for (; i < n; ++i) {
        float s = x[i] * inv_scale;
        s = s > 127.0f ? 127.0f : s;
        s = s < -127.0f ? -127.0f : s;
        s += s >= 0.0f ? 0.5f : -0.5f;
        out[i] = static_cast<int8_t>(static_cast<int32_t>(s));
    }
}

}  // namespace

const SimdOps&
neonSimdOps()
{
    static const SimdOps ops = {SimdIsa::kNeon, "neon", 4,
                                patternAccumNeon, axpyNeon, reluNeon,
                                kGemmMrNeon, kGemmNrNeon, gemmTileNeon,
                                kGemmI8MrNeon, kGemmI8NrNeon, gemmTileI8Neon,
                                quantizeRowI8Neon};
    return ops;
}

}  // namespace patdnn

#endif  // defined(__aarch64__) || defined(__ARM_NEON)
