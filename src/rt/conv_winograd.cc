#include "rt/conv_winograd.h"

#include <algorithm>
#include <vector>

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
      ops_(&resolveSimdOps(device_.simd_isa)), tuning_(tuning)
{
    PATDNN_CHECK(applies(desc_), "Winograd needs a stride-1 3x3 conv");
    // The transformed filters fill the stage-2 RHS column panels of the
    // 16 U[t]^T [cin x cout], which stay zero past cout. Panel p of U[t]^T
    // is one contiguous run of cin*nr floats ([ic][lane]), so each
    // nr-wide panel is transformed into a 16-row scratch, then each row
    // is copied into place whole. Scattering straight into packed_u_
    // would put a kernel's 16 stores per_t floats apart, each on a fresh
    // cache line (and, when per_t*4 B is a large power of two, all in
    // one L1 set); the scratch pitch is padded by one cache line instead.
    const int nr = ops_->gemm_nr;
    const int64_t cin = desc_.cin, cout = desc_.cout;
    blocking_ = gemmBlockingFor(*ops_, cin, cout, device_.tile_budget_kb,
                                tuning.gemm_kc, tuning.gemm_nc);
    const int64_t per_t = packedRhsElems(cin, cout, nr);
    packed_u_ = Tensor(Shape{16 * per_t});
    const int64_t run = cin * nr;
    const int64_t pitch = run + 16;
    std::vector<float> scratch(static_cast<size_t>(16 * pitch));
    for (int64_t oc0 = 0; oc0 < cout; oc0 += nr) {
        const int64_t cols = std::min<int64_t>(nr, cout - oc0);
        if (cols < nr)  // The last panel's lanes past cout stay zero.
            std::fill(scratch.begin(), scratch.end(), 0.0f);
        for (int64_t ic = 0; ic < cin; ++ic) {
            for (int64_t lane = 0; lane < cols; ++lane) {
                float u[16];
                transformFilter(weight->data() + ((oc0 + lane) * cin + ic) * 9, u);
                float* dst = scratch.data() + ic * nr + lane;
                for (int t = 0; t < 16; ++t)
                    dst[t * pitch] = u[t];
            }
        }
        for (int t = 0; t < 16; ++t)
            std::copy_n(scratch.data() + t * pitch, run,
                        packed_u_.data() + t * per_t + oc0 * cin);
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
