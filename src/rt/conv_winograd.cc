#include "rt/conv_winograd.h"

#include <algorithm>

#include "util/logging.h"

namespace patdnn {
namespace {

/**
 * Filter transform U = G g G^T for F(2x2,3x3):
 *   G = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]].
 */
void
transformFilter(const float* g, float* u)
{
    float t[4][3];
    for (int c = 0; c < 3; ++c) {
        float g0 = g[0 * 3 + c], g1 = g[1 * 3 + c], g2 = g[2 * 3 + c];
        t[0][c] = g0;
        t[1][c] = 0.5f * (g0 + g1 + g2);
        t[2][c] = 0.5f * (g0 - g1 + g2);
        t[3][c] = g2;
    }
    for (int r = 0; r < 4; ++r) {
        float g0 = t[r][0], g1 = t[r][1], g2 = t[r][2];
        u[r * 4 + 0] = g0;
        u[r * 4 + 1] = 0.5f * (g0 + g1 + g2);
        u[r * 4 + 2] = 0.5f * (g0 - g1 + g2);
        u[r * 4 + 3] = g2;
    }
}

/** Input transform V = B^T d B with B^T rows [1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]. */
void
transformInput(const float d[4][4], float v[16])
{
    float t[4][4];
    for (int c = 0; c < 4; ++c) {
        t[0][c] = d[0][c] - d[2][c];
        t[1][c] = d[1][c] + d[2][c];
        t[2][c] = d[2][c] - d[1][c];
        t[3][c] = d[1][c] - d[3][c];
    }
    for (int r = 0; r < 4; ++r) {
        v[r * 4 + 0] = t[r][0] - t[r][2];
        v[r * 4 + 1] = t[r][1] + t[r][2];
        v[r * 4 + 2] = t[r][2] - t[r][1];
        v[r * 4 + 3] = t[r][1] - t[r][3];
    }
}

/** Output transform Y = A^T m A with A^T = [[1,1,1,0],[0,1,-1,-1]]. */
void
transformOutput(const float m[16], float y[4])
{
    float t[2][4];
    for (int c = 0; c < 4; ++c) {
        t[0][c] = m[0 * 4 + c] + m[1 * 4 + c] + m[2 * 4 + c];
        t[1][c] = m[1 * 4 + c] - m[2 * 4 + c] - m[3 * 4 + c];
    }
    y[0] = t[0][0] + t[0][1] + t[0][2];
    y[1] = t[0][1] - t[0][2] - t[0][3];
    y[2] = t[1][0] + t[1][1] + t[1][2];
    y[3] = t[1][1] - t[1][2] - t[1][3];
}

}  // namespace

WinogradConv::WinogradConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
                           TuneParams tuning)
    : desc_(std::move(desc)), device_(std::move(device)),
      ops_(&resolveSimdOps(device_.simd_isa))
{
    PATDNN_CHECK(applies(desc_), "Winograd needs a stride-1 3x3 conv");
    // Each transformed filter lands straight in the stage-2 RHS column
    // panels of the 16 U[t]^T [cin x cout], which stay zero past cout.
    const int nr = ops_->gemm_nr;
    blocking_ = gemmBlockingFor(*ops_, desc_.cin, desc_.cout,
                                device_.tile_budget_kb, tuning.gemm_kc,
                                tuning.gemm_nc);
    int64_t per_t = packedRhsElems(desc_.cin, desc_.cout, nr);
    packed_u_ = Tensor(Shape{16 * per_t});
    for (int64_t oc = 0; oc < desc_.cout; ++oc) {
        for (int64_t ic = 0; ic < desc_.cin; ++ic) {
            float u[16];
            transformFilter(weight->data() + (oc * desc_.cin + ic) * 9, u);
            float* dst = packed_u_.data() + ((oc / nr) * desc_.cin + ic) * nr +
                         oc % nr;
            for (int t = 0; t < 16; ++t)
                dst[t * per_t] = u[t];
        }
    }
}

void
WinogradConv::run(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    const ConvDesc& d = desc_;
    const SimdOps& ops = *ops_;
    const int mr = ops.gemm_mr;
    const int nr = ops.gemm_nr;
    int64_t n = in.shape().dim(0);
    int64_t oh = d.outH(), ow = d.outW();
    int64_t tiles_y = (oh + 1) / 2;
    int64_t tiles_x = (ow + 1) / 2;
    int64_t tiles = tiles_y * tiles_x;
    int64_t lhs_tiles = (tiles + mr - 1) / mr;
    int64_t per_t_lhs = packedLhsElems(tiles, d.cin, mr);
    int64_t rhs_tiles = (d.cout + nr - 1) / nr;
    int64_t per_t_rhs = packedRhsElems(d.cin, d.cout, nr);
    // Row panels of the 16 V[t]^T [tiles x cin]; rows past `tiles` stay 0.
    Tensor packed_v(Shape{16 * per_t_lhs});

    for (int64_t b = 0; b < n; ++b) {
        Tensor mbuf(Shape{16, tiles, d.cout});  // M[t]^T, zeroed.
        // Stage 1: input transform, written straight into the LHS row
        // panels: tile is the row, ic the k index.
        device_.pool().parallelFor(d.cin, [&](int64_t ic) {
            const float* iptr = in.data() + ((b * d.cin + ic) * d.h) * d.w;
            for (int64_t ty = 0; ty < tiles_y; ++ty) {
                for (int64_t tx = 0; tx < tiles_x; ++tx) {
                    float patch[4][4];
                    for (int r = 0; r < 4; ++r) {
                        int64_t iy = ty * 2 - d.pad + r;
                        for (int c = 0; c < 4; ++c) {
                            int64_t ix = tx * 2 - d.pad + c;
                            patch[r][c] = (iy < 0 || iy >= d.h || ix < 0 || ix >= d.w)
                                              ? 0.0f
                                              : iptr[iy * d.w + ix];
                        }
                    }
                    float vt[16];
                    transformInput(patch, vt);
                    int64_t tile = ty * tiles_x + tx;
                    for (int t = 0; t < 16; ++t)
                        packed_v[t * per_t_lhs + ((tile / mr) * d.cin + ic) * mr +
                                 tile % mr] = vt[t];
                }
            }
        });

        // Stage 2: 16 independent GEMMs M[t]^T = V[t]^T * U[t]^T,
        // [tiles x cin] * [cin x cout], on the packed tile kernel. cout
        // fills the tile's columns, so a small plane (few tiles) still
        // runs full-width vectors. Each job owns one t and one column
        // panel and walks every row tile over it, so its U^T panel
        // streams from memory once. Each element's chain is 0 + V*U in
        // cin order, and V*U == U*V exactly.
        device_.pool().parallelFor(16 * rhs_tiles, [&](int64_t job) {
            int64_t t = job / rhs_tiles;
            int64_t col0 = (job % rhs_tiles) * nr;
            int64_t cols = std::min<int64_t>(nr, d.cout - col0);
            packedGemmRowTiles(ops, packed_v.data() + t * per_t_lhs,
                               packed_u_.data() + t * per_t_rhs + col0 * d.cin,
                               tiles, d.cin, cols,
                               mbuf.data() + t * tiles * d.cout + col0, d.cout,
                               0, lhs_tiles, blocking_);
        });

        // Stage 3: output transform. Each worker takes a range of
        // tiles; a tile's 16 rows of M^T each hold every oc in order.
        device_.pool().parallelChunks(tiles, [&](int64_t tile0, int64_t tile1) {
            for (int64_t tile = tile0; tile < tile1; ++tile) {
                int64_t ty = tile / tiles_x, tx = tile % tiles_x;
                const float* mrow = mbuf.data() + tile * d.cout;
                for (int64_t oc = 0; oc < d.cout; ++oc) {
                    float m[16];
                    for (int t = 0; t < 16; ++t)
                        m[t] = mrow[t * tiles * d.cout + oc];
                    float y[4];
                    transformOutput(m, y);
                    float bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
                    float* optr = out.data() + ((b * d.cout + oc) * oh) * ow;
                    for (int r = 0; r < 2; ++r) {
                        int64_t oy = ty * 2 + r;
                        if (oy >= oh)
                            continue;
                        for (int c = 0; c < 2; ++c) {
                            int64_t ox = tx * 2 + c;
                            if (ox >= ow)
                                continue;
                            float val = y[r * 2 + c] + bias;
                            if (ep.relu && val < 0.0f)
                                val = 0.0f;
                            optr[oy * ow + ox] = val;
                        }
                    }
                }
            }
        });
    }
}

}  // namespace patdnn
