/**
 * @file
 * Runtime SIMD dispatch for the pattern micro-kernels.
 *
 * PatDNN's generated mobile code leans on the vector units (NEON on the
 * paper's Snapdragon/Kirin targets); this layer is the host-side
 * equivalent. Each ISA provides one table of vectorized primitives
 * (SimdOps) for the hot inner loops — the pattern engine's per-filter
 * register-block accumulation, the CSR row saxpy, the ReLU epilogue and
 * the packed-GEMM tile kernel the dense im2col/Winograd executors run
 * on — and one binary selects the best table at load
 * time from CPU features (AVX2 on x86-64, NEON on aarch64, scalar
 * otherwise).
 *
 * Determinism contract: every table computes bit-identical results to
 * scalarSimdOps() — same per-element operation order, plain IEEE mul
 * then add, no FMA contraction — so executors can switch ISA freely
 * (and tests can diff exactly). Vector kernels only widen the
 * position loop; they never reassociate the per-entry accumulation
 * chain.
 *
 * Build gating: PATDNN_ENABLE_SIMD=OFF compiles only the scalar table.
 * The AVX2 translation unit is compiled with -mavx2 but its table is
 * only ever returned after a cpuid check, so one binary runs anywhere.
 * Adding an ISA = one kernels_<isa>.cc defining a SimdOps table + a
 * case in simdOpsFor(); see docs/ARCHITECTURE.md.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace patdnn {

/** Instruction sets a kernel table can be specialized for. */
enum class SimdIsa : uint32_t
{
    kScalar = 0,  ///< Portable C++ (also the exactness reference).
    kAvx2 = 1,    ///< x86-64 AVX2, 8 floats per vector.
    kNeon = 2,    ///< aarch64 NEON, 4 floats per vector.
};

/** Display name ("scalar" / "avx2" / "neon"). */
const char* isaName(SimdIsa isa);

/** Parse an ISA name; false if `s` names no known ISA. */
bool parseIsaName(const std::string& s, SimdIsa* out);

/**
 * One pattern segment of a reordered filter as pattern_accum walks it:
 * `count` consecutive FKW kernels sharing one pattern.
 */
struct PatternSegment
{
    const int32_t* taps = nullptr;      ///< `entries` flat tap offsets.
    int entries = 0;
    const float* weights = nullptr;     ///< count x entries, FKW order.
    const int32_t* channels = nullptr;  ///< count input channels (FKW index).
    int64_t count = 0;
};

/**
 * One ISA's vectorized primitives. All functions tolerate unaligned
 * pointers and any n >= 0; `out`/`y` must not alias the inputs.
 */
struct SimdOps
{
    SimdIsa isa = SimdIsa::kScalar;
    const char* name = "scalar";
    int width = 1;  ///< Floats per vector step.

    /**
     * Pattern-engine inner loop (rt/conv_pattern.h): one reordered
     * filter's FKW kernels over flat output positions [0, n) of a
     * zero-padded, row-flattened input, held in registers in blocks of
     * up to 4 vectors. For every position i:
     *   acc = out[i];
     *   for each segment s, kernel k < s.count, entry e < s.entries:
     *     acc = acc + s.weights[k*s.entries + e]
     *                 * in[s.channels[k]*plane + s.taps[e] + i];
     *   out[i] = acc;
     * — one fixed order, mul then add, whatever the block size.
     * Writes exactly out[0, n). Reads each tap up to position
     * roundup(n, width) - 1, so the caller leaves width - 1 readable
     * floats past the furthest tap of the last position.
     */
    void (*pattern_accum)(const float* in, int64_t plane,
                          const PatternSegment* segs, int nsegs, float* out,
                          int64_t n);

    /** y[i] += a * x[i] (the CSR stride-1 inner row update). */
    void (*axpy)(float a, const float* x, float* y, int64_t n);

    /** y[i] = max(0, y[i]) (fused ReLU epilogue). */
    void (*relu)(float* y, int64_t n);

    /// Full tile footprint of gemm_tile: rows per LHS panel step.
    int gemm_mr = 1;
    /// Full tile footprint of gemm_tile: columns per RHS panel step.
    int gemm_nr = 1;

    /**
     * Packed-GEMM tile micro-kernel (the mmt4d-style dense inner loop;
     * rt/gemm_packed.h owns the packing and the cache-blocked outer
     * loops). `a_panel` is one LHS tile panel slice laid out
     * [kc][gemm_mr], `b_panel` one RHS tile panel slice laid out
     * [kc][gemm_nr]; `c` is the [mr x nr] output tile at row stride
     * `ldc`, already holding the accumulation state (bias or the
     * previous K block's partial sums). mr/nr are the live extents
     * (< gemm_mr/gemm_nr only on edge tiles; the padded panel lanes
     * hold zeros, and C past the live extent is never read or written).
     *
     * Numerics: for every output element the chain is
     *   acc = c[m*ldc+n]; for k in [0,kc): acc += a[k][m] * b[k][n];
     * — sequential in k, mul then add, no FMA. The chain runs through
     * the C element itself, so splitting K into blocks is bit-neutral,
     * and every ISA produces bit-identical results regardless of its
     * gemm_mr/gemm_nr footprint (tiling only partitions the m/n space,
     * never the per-element k chain).
     */
    void (*gemm_tile)(const float* a_panel, const float* b_panel, float* c,
                      int64_t ldc, int64_t kc, int mr, int nr);

    /// Full tile footprint of gemm_tile_i8: rows per LHS panel step.
    int gemm_i8_mr = 1;
    /// Full tile footprint of gemm_tile_i8: columns per RHS panel step.
    int gemm_i8_nr = 1;

    /**
     * Int8 packed-GEMM tile micro-kernel: i8×i8 products accumulated in
     * i32 (the quantized dense inner loop; rt/gemm_packed.h owns the
     * packing and blocked outer loops). Panels are K-PAIR interleaved so
     * the AVX2 kernel can feed `_mm256_madd_epi16`-style pairwise
     * multiply-adds straight from memory:
     *
     *   a_panel: [ceil(kc/2)][gemm_i8_mr][2]  (row tile,   k pairs inner)
     *   b_panel: [ceil(kc/2)][gemm_i8_nr][2]  (column tile, k pairs inner)
     *
     * i.e. logical element (k, m) lives at (k/2)*mr*2 + m*2 + (k%2).
     * The LHS panel is widened to i16 at pack time (values still in
     * [-127, 127]) so one (a0, a1) pair is a naturally aligned 4-byte
     * unit the kernel can broadcast straight from memory (vpbroadcastd
     * on AVX2) instead of sign-extending per tile visit; the RHS panel
     * stays i8 since each row is loaded once per k-pair. When kc is odd
     * the trailing k-lane of the last pair is zero in both panels (the
     * packers guarantee this). `c` is the [mr x nr] i32 tile at row
     * stride `ldc`, already holding accumulation state; mr/nr are live
     * extents as in gemm_tile, and padded lanes are never stored.
     *
     * Numerics: every product of two values in [-127, 127] and every
     * running sum fits i32 exactly for any practical kc (|a*b| <= 16129,
     * so ~133k k-steps of headroom), so unlike the f32 tile there is no
     * ordering contract to respect — integer accumulation is exact and
     * every ISA is bit-identical by construction.
     */
    void (*gemm_tile_i8)(const int16_t* a_panel, const int8_t* b_panel,
                         int32_t* c, int64_t ldc, int64_t kc, int mr, int nr);

    /**
     * Activation-side row quantization feeding gemm_tile_i8:
     * out[i] = clamp(round(x[i] * inv_scale), -127, 127) with round
     * half away from zero — prune/quant.h's quantizeValue contract.
     * Every table performs the identical per-lane f32 sequence
     * (multiply, clamp, add sign-matched 0.5, truncate toward zero),
     * so results are bit-identical across ISAs for finite inputs.
     * This runs over the whole im2col patch matrix once per quantized
     * conv call, which makes it the second-hottest loop of the int8
     * path after the GEMM itself.
     */
    void (*quantize_row_i8)(const float* x, int64_t n, float inv_scale,
                            int8_t* out);
};

/** The portable reference table; always available. */
const SimdOps& scalarSimdOps();

/**
 * Table for `isa`, or nullptr when it was not compiled in
 * (PATDNN_ENABLE_SIMD=OFF / wrong arch) or this CPU lacks the feature.
 */
const SimdOps* simdOpsFor(SimdIsa isa);

/** ISAs usable in this process (compiled in + CPU-supported). */
std::vector<SimdIsa> availableSimdIsas();

/**
 * Best ISA for this process, decided once at first use: the widest
 * available table, overridable with PATDNN_SIMD=scalar|avx2|neon (an
 * unavailable override falls back to scalar with a warning).
 */
SimdIsa detectSimdIsa();

/** Table for `isa` if available, else the scalar table (never null). */
const SimdOps& resolveSimdOps(SimdIsa isa);

}  // namespace patdnn
