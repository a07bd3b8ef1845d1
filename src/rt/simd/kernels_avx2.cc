/**
 * @file
 * AVX2 SimdOps table: 8 output positions per vector, up to 4 vectors
 * per pattern register block. Compiled with -mavx2 (no -mfma: the
 * mul+add pair must round like the scalar reference — the FMA's single
 * rounding would break the bit-exactness contract of dispatch.h).
 * Pattern tap offsets arrive pre-computed per segment and weights are
 * broadcast-loaded once per kernel and block.
 *
 * This TU contains AVX2 instructions, so it must only be reached via
 * simdOpsFor(kAvx2), which checks cpuid first.
 */
#include "rt/simd/dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <cstring>

namespace patdnn {
namespace {

// One block of NV full vectors (8 positions each) held in ymm
// accumulators across the filter's whole kernel walk. Four-entry
// patterns — every PatDNN pattern — get straight-line code with the
// segment's tap offsets hoisted into registers; other sizes loop over
// the entries. Either way each lane sees the reference chain order.
template <int NV>
inline void
patternBlockAvx2(const float* in, int64_t plane, const PatternSegment* segs,
                 int nsegs, float* out)
{
    __m256 acc[NV];
    for (int v = 0; v < NV; ++v)
        acc[v] = _mm256_loadu_ps(out + 8 * v);
    for (int s = 0; s < nsegs; ++s) {
        const PatternSegment& sg = segs[s];
        const float* w = sg.weights;
        if (sg.entries == 4) {
            const int64_t t0 = sg.taps[0], t1 = sg.taps[1];
            const int64_t t2 = sg.taps[2], t3 = sg.taps[3];
            for (int64_t k = 0; k < sg.count; ++k, w += 4) {
                const float* base = in + sg.channels[k] * plane;
                const __m256 w0 = _mm256_broadcast_ss(w);
                const __m256 w1 = _mm256_broadcast_ss(w + 1);
                const __m256 w2 = _mm256_broadcast_ss(w + 2);
                const __m256 w3 = _mm256_broadcast_ss(w + 3);
                for (int v = 0; v < NV; ++v) {
                    const float* x = base + 8 * v;
                    __m256 a = acc[v];
                    a = _mm256_add_ps(a, _mm256_mul_ps(w0, _mm256_loadu_ps(x + t0)));
                    a = _mm256_add_ps(a, _mm256_mul_ps(w1, _mm256_loadu_ps(x + t1)));
                    a = _mm256_add_ps(a, _mm256_mul_ps(w2, _mm256_loadu_ps(x + t2)));
                    a = _mm256_add_ps(a, _mm256_mul_ps(w3, _mm256_loadu_ps(x + t3)));
                    acc[v] = a;
                }
            }
            continue;
        }
        for (int64_t k = 0; k < sg.count; ++k, w += sg.entries) {
            const float* base = in + sg.channels[k] * plane;
            for (int e = 0; e < sg.entries; ++e) {
                const __m256 we = _mm256_broadcast_ss(w + e);
                const float* x = base + sg.taps[e];
                for (int v = 0; v < NV; ++v)
                    acc[v] = _mm256_add_ps(
                        acc[v], _mm256_mul_ps(we, _mm256_loadu_ps(x + 8 * v)));
            }
        }
    }
    for (int v = 0; v < NV; ++v)
        _mm256_storeu_ps(out + 8 * v, acc[v]);
}

void
patternAccumAvx2(const float* in, int64_t plane, const PatternSegment* segs,
                 int nsegs, float* out, int64_t n)
{
    int64_t i = 0;
    for (; i + 32 <= n; i += 32)
        patternBlockAvx2<4>(in + i, plane, segs, nsegs, out + i);
    const int64_t rest = n - i;
    if (rest == 0)
        return;
    // The last 1-4 vectors run on a stack copy of the accumulators, so
    // no lane past n is stored (the next row tile may own it).
    alignas(32) float edge[32] = {};
    std::memcpy(edge, out + i, static_cast<size_t>(rest) * sizeof(float));
    switch ((rest + 7) / 8) {
    case 1: patternBlockAvx2<1>(in + i, plane, segs, nsegs, edge); break;
    case 2: patternBlockAvx2<2>(in + i, plane, segs, nsegs, edge); break;
    case 3: patternBlockAvx2<3>(in + i, plane, segs, nsegs, edge); break;
    default: patternBlockAvx2<4>(in + i, plane, segs, nsegs, edge); break;
    }
    std::memcpy(out + i, edge, static_cast<size_t>(rest) * sizeof(float));
}

void
axpyAvx2(float a, const float* x, float* y, int64_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    int64_t i = 0;
    for (; i + 16 <= n; i += 16) {
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                 _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
        _mm256_storeu_ps(
            y + i + 8,
            _mm256_add_ps(_mm256_loadu_ps(y + i + 8),
                          _mm256_mul_ps(av, _mm256_loadu_ps(x + i + 8))));
    }
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(
            y + i, _mm256_add_ps(_mm256_loadu_ps(y + i),
                                 _mm256_mul_ps(av, _mm256_loadu_ps(x + i))));
    for (; i < n; ++i)
        y[i] += a * x[i];
}

void
reluAvx2(float* y, int64_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    int64_t i = 0;
    // maxps returns the second operand on equal/NaN lanes; (v, zero)
    // ordering matches std::max(0.0f, v) for ±0.0 and NaN inputs.
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
    for (; i < n; ++i)
        y[i] = 0.0f < y[i] ? y[i] : 0.0f;
}

// Packed-GEMM tile: 4 LHS rows x 16 RHS columns = 8 ymm accumulators,
// plus one broadcast and two RHS loads per k step — 11 of the 16 ymm
// registers, leaving headroom for addressing. Full and edge tiles share
// one vector path: the live row count is a template argument, so dead
// rows are never computed, and C moves through lane masks, so a padded
// column lane is neither read nor written (its accumulator only ever
// multiplies the panel's zero padding). The RHS panel is prefetched 4 KB
// ahead, since a small-M GEMM streams it from memory; the address is an
// integer, so no pointer leaves the panel (prefetches never fault).
constexpr int kGemmMrAvx2 = 4;
constexpr int kGemmNrAvx2 = 16;

template <int MR>
inline void
gemmRowsAvx2(const float* a_panel, const float* b_panel, float* c, int64_t ldc,
             int64_t kc, int nr)
{
    // Lane j of the low (high) vector is live when j < nr (j + 8 < nr); with
    // no live high lane, `hi` keeps its pointers inside C's live extent.
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i mask0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr), lane);
    const __m256i mask1 = _mm256_cmpgt_epi32(_mm256_set1_epi32(nr - 8), lane);
    const int64_t hi = nr > 8 ? 8 : 0;
    __m256 acc[MR][2];
    for (int m = 0; m < MR; ++m) {
        acc[m][0] = _mm256_maskload_ps(c + m * ldc, mask0);
        acc[m][1] = _mm256_maskload_ps(c + m * ldc + hi, mask1);
    }
    for (int64_t k = 0; k < kc; ++k) {
        const uintptr_t ahead = reinterpret_cast<uintptr_t>(b_panel + k * kGemmNrAvx2) + 4096;
        _mm_prefetch(reinterpret_cast<const char*>(ahead), _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(b_panel + k * kGemmNrAvx2);
        const __m256 b1 = _mm256_loadu_ps(b_panel + k * kGemmNrAvx2 + 8);
        const float* a = a_panel + k * kGemmMrAvx2;
        for (int m = 0; m < MR; ++m) {
            const __m256 av = _mm256_set1_ps(a[m]);
            acc[m][0] = _mm256_add_ps(acc[m][0], _mm256_mul_ps(av, b0));
            acc[m][1] = _mm256_add_ps(acc[m][1], _mm256_mul_ps(av, b1));
        }
    }
    for (int m = 0; m < MR; ++m) {
        _mm256_maskstore_ps(c + m * ldc, mask0, acc[m][0]);
        _mm256_maskstore_ps(c + m * ldc + hi, mask1, acc[m][1]);
    }
}

void
gemmTileAvx2(const float* a_panel, const float* b_panel, float* c, int64_t ldc,
             int64_t kc, int mr, int nr)
{
    switch (mr) {
    case 1: gemmRowsAvx2<1>(a_panel, b_panel, c, ldc, kc, nr); break;
    case 2: gemmRowsAvx2<2>(a_panel, b_panel, c, ldc, kc, nr); break;
    case 3: gemmRowsAvx2<3>(a_panel, b_panel, c, ldc, kc, nr); break;
    default: gemmRowsAvx2<4>(a_panel, b_panel, c, ldc, kc, nr); break;
    }
}

// Int8 tile: 4 LHS rows x 16 RHS columns. One k-PAIR per step: the
// 32-byte RHS pair row sign-extends into two ymm of interleaved
// (k0, k1) i16 column pairs, the LHS (a0, a1) i16 pair broadcasts as
// one 32-bit lane straight from the pre-widened panel (vpbroadcastd
// from memory — no per-visit sign-extension), and _mm256_madd_epi16
// does the pairwise i16 multiply + i32 add — two multiply-adds per k.
// Products fit i16 (127*127 = 16129 < 32767) and the pair sum fits
// i32, so this is exact (dispatch.h).
constexpr int kGemmI8MrAvx2 = 4;
constexpr int kGemmI8NrAvx2 = 16;

void
gemmTileI8Avx2(const int16_t* a_panel, const int8_t* b_panel, int32_t* c,
               int64_t ldc, int64_t kc, int mr, int nr)
{
    const int64_t kp = (kc + 1) / 2;  // Panels are k-pair interleaved.
    if (mr == kGemmI8MrAvx2 && nr == kGemmI8NrAvx2) {
        __m256i acc[kGemmI8MrAvx2][2];
        for (int m = 0; m < kGemmI8MrAvx2; ++m) {
            acc[m][0] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c + m * ldc));
            acc[m][1] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(c + m * ldc + 8));
        }
        for (int64_t k = 0; k < kp; ++k) {
            const __m256i braw = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(b_panel +
                                                 k * kGemmI8NrAvx2 * 2));
            // Columns 0-7 / 8-15 as interleaved (k0, k1) i16 pairs.
            const __m256i b_lo =
                _mm256_cvtepi8_epi16(_mm256_castsi256_si128(braw));
            const __m256i b_hi =
                _mm256_cvtepi8_epi16(_mm256_extracti128_si256(braw, 1));
            const int16_t* a = a_panel + k * kGemmI8MrAvx2 * 2;
            for (int m = 0; m < kGemmI8MrAvx2; ++m) {
                int32_t pair;
                std::memcpy(&pair, a + m * 2, sizeof(pair));
                const __m256i av = _mm256_set1_epi32(pair);
                acc[m][0] = _mm256_add_epi32(acc[m][0],
                                             _mm256_madd_epi16(b_lo, av));
                acc[m][1] = _mm256_add_epi32(acc[m][1],
                                             _mm256_madd_epi16(b_hi, av));
            }
        }
        for (int m = 0; m < kGemmI8MrAvx2; ++m) {
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + m * ldc),
                                acc[m][0]);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(c + m * ldc + 8),
                                acc[m][1]);
        }
        return;
    }
    // Edge tiles: scalar lanes over the same pair layout.
    int32_t acc[kGemmI8MrAvx2][kGemmI8NrAvx2];
    for (int m = 0; m < mr; ++m)
        for (int n = 0; n < nr; ++n)
            acc[m][n] = c[m * ldc + n];
    for (int64_t k = 0; k < kp; ++k) {
        const int16_t* a = a_panel + k * kGemmI8MrAvx2 * 2;
        const int8_t* b = b_panel + k * kGemmI8NrAvx2 * 2;
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

// f32 -> i8 row quantization, 32 elements per step. Each ymm lane runs
// the scalar contract verbatim (mul, clamp, sign-matched +0.5,
// truncate via cvttps2dq), then two saturating narrows squeeze the
// four i32 vectors to i8 — values are already inside [-127, 127], so
// the saturation never engages; it is only the narrowing shape — and
// one cross-lane permute undoes the 128-bit interleave of vpackss.
void
quantizeRowI8Avx2(const float* x, int64_t n, float inv_scale, int8_t* out)
{
    const __m256 vinv = _mm256_set1_ps(inv_scale);
    const __m256 vhi = _mm256_set1_ps(127.0f);
    const __m256 vlo = _mm256_set1_ps(-127.0f);
    const __m256 vhalf = _mm256_set1_ps(0.5f);
    const __m256 vsign = _mm256_set1_ps(-0.0f);
    const __m256i order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    auto lane = [&](const float* p) {
        __m256 s = _mm256_mul_ps(_mm256_loadu_ps(p), vinv);
        s = _mm256_min_ps(s, vhi);
        s = _mm256_max_ps(s, vlo);
        const __m256 half = _mm256_or_ps(_mm256_and_ps(s, vsign), vhalf);
        return _mm256_cvttps_epi32(_mm256_add_ps(s, half));
    };
    int64_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i q01 = _mm256_packs_epi32(lane(x + i), lane(x + i + 8));
        const __m256i q23 =
            _mm256_packs_epi32(lane(x + i + 16), lane(x + i + 24));
        const __m256i q = _mm256_permutevar8x32_epi32(
            _mm256_packs_epi16(q01, q23), order);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), q);
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
avx2SimdOps()
{
    static const SimdOps ops = {SimdIsa::kAvx2, "avx2", 8,
                                patternAccumAvx2, axpyAvx2, reluAvx2,
                                kGemmMrAvx2, kGemmNrAvx2, gemmTileAvx2,
                                kGemmI8MrAvx2, kGemmI8NrAvx2, gemmTileI8Avx2,
                                quantizeRowI8Avx2};
    return ops;
}

}  // namespace patdnn

#endif  // defined(__AVX2__)
