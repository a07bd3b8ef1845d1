#include "rt/gemm_packed.h"

#include <algorithm>

#include "util/logging.h"

namespace patdnn {

GemmBlocking
gemmBlockingFor(const SimdOps& ops, int64_t k, int64_t n,
                int64_t tile_budget_kb, int64_t kc_override,
                int64_t nc_override)
{
    GemmBlocking b;
    if (kc_override > 0) {
        b.kc = kc_override;
    } else {
        // One [kc x MR] LHS slice + one [kc x NR] RHS slice should fill
        // about half the L1 budget, leaving the rest for the C block
        // and the streaming write-back.
        int64_t budget_elems = std::max<int64_t>(1, tile_budget_kb) * 1024 / 4;
        int64_t per_k = ops.gemm_mr + ops.gemm_nr;
        b.kc = std::max<int64_t>(16, budget_elems / (2 * per_k));
    }
    b.kc = std::min(b.kc, std::max<int64_t>(1, k));
    if (nc_override > 0) {
        b.nc = nc_override;
    } else {
        // A handful of column tiles per C block: wide enough to amortize
        // the LHS panel reload, narrow enough that [MR x nc] stays hot.
        b.nc = static_cast<int64_t>(ops.gemm_nr) * 8;
    }
    // Round up to whole tiles so blocks never split a tile.
    int64_t nr = ops.gemm_nr;
    b.nc = std::max<int64_t>(nr, (b.nc / nr) * nr);
    b.nc = std::min(b.nc, std::max<int64_t>(1, n));
    return b;
}

std::vector<TuneParams>
gemmTuneCandidates(const SimdOps& ops, const TuneParams& own, bool n_blocked)
{
    const int64_t nr = ops.gemm_nr;
    const std::vector<int64_t> ncs =
        n_blocked ? std::vector<int64_t>{0, 4 * nr, 8 * nr, 16 * nr}
                  : std::vector<int64_t>{own.gemm_nc};
    std::vector<TuneParams> list = {own};
    for (int64_t kc : {int64_t{0}, int64_t{64}, int64_t{128}, int64_t{256}})
        for (int64_t nc : ncs) {
            if (kc == own.gemm_kc && nc == own.gemm_nc)
                continue;
            TuneParams t = own;
            t.gemm_kc = kc;
            t.gemm_nc = nc;
            list.push_back(t);
        }
    return list;
}

int64_t
packedLhsElems(int64_t m, int64_t k, int mr)
{
    return ((m + mr - 1) / mr) * k * mr;
}

int64_t
packedRhsElems(int64_t k, int64_t n, int nr)
{
    return ((n + nr - 1) / nr) * k * nr;
}

void
packLhsTiles(const float* a, int64_t m, int64_t k, int64_t lda, int mr,
             float* dst)
{
    int64_t tiles = (m + mr - 1) / mr;
    for (int64_t i = 0; i < tiles; ++i) {
        int live = static_cast<int>(std::min<int64_t>(mr, m - i * mr));
        float* panel = dst + i * k * mr;
        for (int64_t kk = 0; kk < k; ++kk) {
            float* out = panel + kk * mr;
            const float* src = a + i * mr * lda + kk;
            int r = 0;
            for (; r < live; ++r)
                out[r] = src[r * lda];
            for (; r < mr; ++r)
                out[r] = 0.0f;
        }
    }
}

void
packRhsTiles(const float* b, int64_t k, int64_t n, int64_t ldb, int nr,
             float* dst)
{
    int64_t tiles = (n + nr - 1) / nr;
    for (int64_t j = 0; j < tiles; ++j) {
        int live = static_cast<int>(std::min<int64_t>(nr, n - j * nr));
        float* panel = dst + j * k * nr;
        const float* src_col = b + j * nr;
        for (int64_t kk = 0; kk < k; ++kk) {
            float* out = panel + kk * nr;
            const float* src = src_col + kk * ldb;
            int x = 0;
            for (; x < live; ++x)
                out[x] = src[x];
            for (; x < nr; ++x)
                out[x] = 0.0f;
        }
    }
}

void
packedGemmRowTiles(const SimdOps& ops, const float* packed_lhs,
                   const float* packed_rhs, int64_t m, int64_t k, int64_t n,
                   float* c, int64_t ldc, int64_t tile_begin, int64_t tile_end,
                   const GemmBlocking& blocking)
{
    PATDNN_CHECK(ops.gemm_tile != nullptr, "SimdOps table lacks gemm_tile");
    const int mr = ops.gemm_mr;
    const int nr = ops.gemm_nr;
    const int64_t kc = std::max<int64_t>(1, blocking.kc);
    const int64_t nc = std::max<int64_t>(nr, blocking.nc);
    for (int64_t i = tile_begin; i < tile_end; ++i) {
        const int live_m = static_cast<int>(std::min<int64_t>(mr, m - i * mr));
        const float* lhs_tile = packed_lhs + i * k * mr;
        float* c_rows = c + i * mr * ldc;
        for (int64_t n0 = 0; n0 < n; n0 += nc) {
            const int64_t n1 = std::min(n, n0 + nc);
            // K blocks accumulate through C, so this loop is bit-neutral
            // (dispatch.h): the [mr x (n1-n0)] C block stays resident
            // while K streams through it.
            for (int64_t k0 = 0; k0 < k; k0 += kc) {
                const int64_t kcur = std::min(kc, k - k0);
                const float* a_panel = lhs_tile + k0 * mr;
                for (int64_t jn = n0; jn < n1; jn += nr) {
                    const int64_t j = jn / nr;
                    const int live_n =
                        static_cast<int>(std::min<int64_t>(nr, n - jn));
                    const float* b_panel =
                        packed_rhs + (j * k + k0) * nr;
                    ops.gemm_tile(a_panel, b_panel, c_rows + jn, ldc, kcur,
                                  live_m, live_n);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Int8 variant
// ---------------------------------------------------------------------------

namespace {

/** K extent in interleaved pairs (odd K pads one zero lane). */
int64_t
kPairs(int64_t k)
{
    return (k + 1) / 2;
}

}  // namespace

GemmBlocking
gemmBlockingForI8(const SimdOps& ops, int64_t k, int64_t n,
                  int64_t tile_budget_kb, int64_t kc_override,
                  int64_t nc_override)
{
    GemmBlocking b;
    if (kc_override > 0) {
        b.kc = kc_override;
    } else {
        // i8 elements are 1 byte, so four times the f32 K depth fits the
        // same L1 budget.
        int64_t budget_elems = std::max<int64_t>(1, tile_budget_kb) * 1024;
        int64_t per_k = ops.gemm_i8_mr + ops.gemm_i8_nr;
        b.kc = std::max<int64_t>(16, budget_elems / (2 * per_k));
    }
    b.kc = std::min(b.kc, std::max<int64_t>(1, k));
    b.kc = ((b.kc + 1) / 2) * 2;  // Never split a k pair.
    if (nc_override > 0) {
        b.nc = nc_override;
    } else {
        b.nc = static_cast<int64_t>(ops.gemm_i8_nr) * 8;
    }
    int64_t nr = ops.gemm_i8_nr;
    b.nc = std::max<int64_t>(nr, (b.nc / nr) * nr);
    b.nc = std::min(b.nc, std::max<int64_t>(1, n));
    return b;
}

int64_t
packedLhsElemsI8(int64_t m, int64_t k, int mr)
{
    return ((m + mr - 1) / mr) * kPairs(k) * 2 * mr;
}

int64_t
packedRhsElemsI8(int64_t k, int64_t n, int nr)
{
    return ((n + nr - 1) / nr) * kPairs(k) * 2 * nr;
}

void
packLhsTilesI8(const int8_t* a, int64_t m, int64_t k, int64_t lda, int mr,
               int16_t* dst)
{
    int64_t tiles = (m + mr - 1) / mr;
    int64_t kp = kPairs(k);
    for (int64_t i = 0; i < tiles; ++i) {
        int live = static_cast<int>(std::min<int64_t>(mr, m - i * mr));
        int16_t* panel = dst + i * kp * 2 * mr;
        for (int64_t kk = 0; kk < kp; ++kk) {
            int16_t* out = panel + kk * mr * 2;
            const int8_t* src = a + i * mr * lda + kk * 2;
            bool has_k1 = kk * 2 + 1 < k;
            int r = 0;
            for (; r < live; ++r) {
                out[r * 2] = src[r * lda];
                out[r * 2 + 1] = has_k1 ? src[r * lda + 1] : 0;
            }
            for (; r < mr; ++r) {
                out[r * 2] = 0;
                out[r * 2 + 1] = 0;
            }
        }
    }
}

void
packRhsTilesI8(const int8_t* b, int64_t k, int64_t n, int64_t ldb, int nr,
               int8_t* dst)
{
    int64_t tiles = (n + nr - 1) / nr;
    int64_t kp = kPairs(k);
    for (int64_t j = 0; j < tiles; ++j) {
        int live = static_cast<int>(std::min<int64_t>(nr, n - j * nr));
        int8_t* panel = dst + j * kp * 2 * nr;
        const int8_t* src_col = b + j * nr;
        for (int64_t kk = 0; kk < kp; ++kk) {
            int8_t* out = panel + kk * nr * 2;
            const int8_t* src0 = src_col + kk * 2 * ldb;
            bool has_k1 = kk * 2 + 1 < k;
            int x = 0;
            for (; x < live; ++x) {
                out[x * 2] = src0[x];
                out[x * 2 + 1] = has_k1 ? src0[ldb + x] : 0;
            }
            for (; x < nr; ++x) {
                out[x * 2] = 0;
                out[x * 2 + 1] = 0;
            }
        }
    }
}

void
packedGemmRowTilesI8(const SimdOps& ops, const int16_t* packed_lhs,
                     const int8_t* packed_rhs, int64_t m, int64_t k, int64_t n,
                     int32_t* c, int64_t ldc, int64_t tile_begin,
                     int64_t tile_end, const GemmBlocking& blocking)
{
    PATDNN_CHECK(ops.gemm_tile_i8 != nullptr,
                 "SimdOps table lacks gemm_tile_i8");
    const int mr = ops.gemm_i8_mr;
    const int nr = ops.gemm_i8_nr;
    const int64_t kp = kPairs(k);
    // kc in whole pairs so a K block never splits one (the pair is the
    // panel's indexing unit).
    const int64_t kc = ((std::max<int64_t>(1, blocking.kc) + 1) / 2) * 2;
    const int64_t nc = std::max<int64_t>(nr, blocking.nc);
    for (int64_t i = tile_begin; i < tile_end; ++i) {
        const int live_m = static_cast<int>(std::min<int64_t>(mr, m - i * mr));
        const int16_t* lhs_tile = packed_lhs + i * kp * 2 * mr;
        int32_t* c_rows = c + i * mr * ldc;
        for (int64_t n0 = 0; n0 < n; n0 += nc) {
            const int64_t n1 = std::min(n, n0 + nc);
            for (int64_t k0 = 0; k0 < k; k0 += kc) {
                const int64_t kcur = std::min(kc, k - k0);
                const int16_t* a_panel = lhs_tile + (k0 / 2) * mr * 2;
                for (int64_t jn = n0; jn < n1; jn += nr) {
                    const int64_t j = jn / nr;
                    const int live_n =
                        static_cast<int>(std::min<int64_t>(nr, n - jn));
                    const int8_t* b_panel =
                        packed_rhs + (j * kp + k0 / 2) * nr * 2;
                    ops.gemm_tile_i8(a_panel, b_panel, c_rows + jn, ldc, kcur,
                                     live_m, live_n);
                }
            }
        }
    }
}

}  // namespace patdnn
