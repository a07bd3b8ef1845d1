/**
 * @file
 * Packed, tiled, cache-blocked dense GEMM (mmt4d-style).
 *
 * The dense executors (im2col, Winograd stage 2) compute
 * C[M x N] (+)= A[M x K] * B[K x N]. This layer rearranges both
 * operands into tile-major "panel" layouts so the per-ISA tile kernel
 * (SimdOps::gemm_tile, rt/simd/dispatch.h) streams contiguous,
 * vector-width-aligned memory:
 *
 *   packed LHS: [ceil(M/MR)] tiles, each [K][MR]   (row panels)
 *   packed RHS: [ceil(N/NR)] tiles, each [K][NR]   (column panels)
 *
 * Edge tiles are zero-padded; the padded lanes feed only discarded
 * accumulator lanes and are never stored back. The outer loops are
 * blocked for cache: within one row tile, the N dimension is walked in
 * `nc`-column blocks (keeping the [MR x nc] C block resident across K)
 * and K in `kc`-element blocks (keeping one [kc x MR] LHS panel slice
 * plus one [kc x NR] RHS panel slice L1-resident). Because the tile
 * kernel's per-element accumulation chain runs through C itself,
 * kc-blocking is bit-neutral, and results are bit-identical across
 * ISAs and blocking choices (the cross-ISA contract of dispatch.h).
 *
 * Blocking defaults derive from the ISA's tile footprint and the
 * device's cache budget (IREE KernelDispatch-style); the tuner times
 * the gemmTuneCandidates() grid per layer and overrides them through
 * TuneParams::gemm_kc / gemm_nc, memoized in the process-wide TuneCache
 * (see rt/tuner.h).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "rt/lr.h"
#include "rt/simd/dispatch.h"

namespace patdnn {

/** Cache-blocking factors of the packed GEMM outer loops. */
struct GemmBlocking
{
    int64_t kc = 0;  ///< K elements per block (panel-slice depth).
    int64_t nc = 0;  ///< N columns per block (C-block width).
};

/**
 * Derive blocking from the tile footprint and the device's L1-resident
 * working-set budget (DeviceSpec::tile_budget_kb): kc sized so one LHS
 * slice + one RHS slice + the C tile fit the budget, nc a few tiles
 * wide so the C block stays register/L1 friendly. `kc_override` /
 * `nc_override` (> 0) replace the heuristic — the tuner's knobs.
 */
GemmBlocking gemmBlockingFor(const SimdOps& ops, int64_t k, int64_t n,
                             int64_t tile_budget_kb, int64_t kc_override = 0,
                             int64_t nc_override = 0);

/**
 * The dense engines' tuning candidates: gemm_kc {0, 64, 128, 256} x
 * gemm_nc {0, 4, 8, 16} whole tiles of `ops.gemm_nr` (0 = the heuristic
 * above), `own` first; every other field is copied from `own`. An
 * engine whose GEMMs are one column panel wide (`n_blocked` false)
 * never reads gemm_nc, so it keeps `own`'s and only gemm_kc varies.
 */
std::vector<TuneParams> gemmTuneCandidates(const SimdOps& ops, const TuneParams& own,
                                           bool n_blocked);

/** Packed-buffer extents (in floats). */
int64_t packedLhsElems(int64_t m, int64_t k, int mr);
int64_t packedRhsElems(int64_t k, int64_t n, int nr);

/**
 * Pack row-major A[M x K] (row stride `lda`) into MR-row tile panels:
 * dst tile i holds A rows [i*MR, i*MR+MR) as [K][MR], zero-padded past
 * M. `dst` must hold packedLhsElems(m, k, mr) floats.
 */
void packLhsTiles(const float* a, int64_t m, int64_t k, int64_t lda, int mr,
                  float* dst);

/**
 * Pack row-major B[K x N] (row stride `ldb`) into NR-column tile
 * panels: dst tile j holds B columns [j*NR, j*NR+NR) as [K][NR],
 * zero-padded past N. `dst` must hold packedRhsElems(k, n, nr) floats.
 */
void packRhsTiles(const float* b, int64_t k, int64_t n, int64_t ldb, int nr,
                  float* dst);

/**
 * Run the blocked GEMM over row tiles [tile_begin, tile_end) of
 * C[M x N] (row stride `ldc`): C (+)= A * B with C pre-initialized by
 * the caller (bias or zero). Callers parallelize by splitting the
 * [0, ceil(M/MR)) row-tile range across workers; each call is
 * independent and touches only its own C rows.
 */
void packedGemmRowTiles(const SimdOps& ops, const float* packed_lhs,
                        const float* packed_rhs, int64_t m, int64_t k,
                        int64_t n, float* c, int64_t ldc, int64_t tile_begin,
                        int64_t tile_end, const GemmBlocking& blocking);

// ---------------------------------------------------------------------------
// Int8 variant (i8 x i8 -> i32, SimdOps::gemm_tile_i8)
// ---------------------------------------------------------------------------
//
// Same tile-panel scheme with two differences dictated by the i8 tile
// kernel contract (dispatch.h): panels are K-PAIR interleaved
// ([ceil(K/2)][MR|NR][2], odd-K tail zero-padded), and C accumulates in
// i32. Integer accumulation is exact, so the cross-ISA/bit-neutral-
// blocking property holds trivially; kc blocks are rounded to even so a
// block boundary never splits a k pair.

/** Blocking for the i8 path: same heuristic on the i8 tile footprint
 * and 1-byte elements, kc rounded up to even. */
GemmBlocking gemmBlockingForI8(const SimdOps& ops, int64_t k, int64_t n,
                               int64_t tile_budget_kb, int64_t kc_override = 0,
                               int64_t nc_override = 0);

/** Packed-buffer extents in elements (LHS elements are i16 — the pack
 * widens them — RHS elements are i8). */
int64_t packedLhsElemsI8(int64_t m, int64_t k, int mr);
int64_t packedRhsElemsI8(int64_t k, int64_t n, int nr);

/** Pack row-major i8 A[M x K] (row stride `lda`) into MR-row k-pair
 * panels, sign-extending each value to i16 so the kernels broadcast
 * whole (k0, k1) pairs as aligned 32-bit memory units (dispatch.h);
 * `dst` must hold packedLhsElemsI8(m, k, mr) i16 elements. */
void packLhsTilesI8(const int8_t* a, int64_t m, int64_t k, int64_t lda, int mr,
                    int16_t* dst);

/** Pack row-major i8 B[K x N] (row stride `ldb`) into NR-column k-pair
 * panels; `dst` must hold packedRhsElemsI8(k, n, nr) bytes. */
void packRhsTilesI8(const int8_t* b, int64_t k, int64_t n, int64_t ldb, int nr,
                    int8_t* dst);

/**
 * Blocked i8 GEMM over row tiles [tile_begin, tile_end) of the i32
 * C[M x N] (row stride `ldc`): C (+)= A * B with C pre-initialized by
 * the caller (normally zero; bias lands in the f32 requant epilogue).
 * Parallelize exactly like packedGemmRowTiles.
 */
void packedGemmRowTilesI8(const SimdOps& ops, const int16_t* packed_lhs,
                          const int8_t* packed_rhs, int64_t m, int64_t k,
                          int64_t n, int32_t* c, int64_t ldc,
                          int64_t tile_begin, int64_t tile_end,
                          const GemmBlocking& blocking);

}  // namespace patdnn
