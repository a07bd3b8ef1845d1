#include "rt/conv_im2col.h"

#include <algorithm>

#include "prune/quant.h"
#include "rt/quant_epilogue.h"
#include "util/logging.h"

namespace patdnn {

Im2colConv::Im2colConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
                       TuneParams tuning)
    : desc_(std::move(desc)), device_(std::move(device)),
      ops_(&resolveSimdOps(device_.simd_isa)), tuning_(tuning)
{
    int64_t opg = desc_.coutPerGroup();
    int64_t k_dim = desc_.cinPerGroup() * desc_.kh * desc_.kw;
    int64_t n_dim = desc_.outH() * desc_.outW();
    blocking_ = gemmBlockingFor(*ops_, k_dim, n_dim, device_.tile_budget_kb,
                                tuning.gemm_kc, tuning.gemm_nc);
    // Weights are row-major [cout, cinPerGroup*kh*kw], so each group is
    // a contiguous [opg x k_dim] LHS; pack all groups back to back.
    int64_t per_group = packedLhsElems(opg, k_dim, ops_->gemm_mr);
    packed_w_ = Tensor(Shape{desc_.groups * per_group});
    for (int64_t g = 0; g < desc_.groups; ++g)
        packLhsTiles(weight->data() + g * opg * k_dim, opg, k_dim, k_dim,
                     ops_->gemm_mr, packed_w_.data() + g * per_group);
}

Im2colConv::Im2colConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
                       TuneParams tuning, float act_scale,
                       std::vector<float> weight_scales)
    : desc_(std::move(desc)), device_(std::move(device)),
      ops_(&resolveSimdOps(device_.simd_isa)), tuning_(tuning),
      quantized_(true), act_scale_(act_scale)
{
    PATDNN_CHECK_GT(act_scale_, 0.0f,
                    "quantized Im2colConv needs a positive activation scale");
    int64_t opg = desc_.coutPerGroup();
    int64_t k_dim = desc_.cinPerGroup() * desc_.kh * desc_.kw;
    int64_t n_dim = desc_.outH() * desc_.outW();
    blocking_ = gemmBlockingForI8(*ops_, k_dim, n_dim, device_.tile_budget_kb,
                                  tuning.gemm_kc, tuning.gemm_nc);
    // Quantize once (per-cout channel scales), then pack each group's
    // [opg x k_dim] i8 block into k-pair LHS panels. The stored scales
    // win over derived ones so restored artifacts are authoritative.
    QuantizedWeights qw =
        quantizeWeightsPerChannel(*weight, std::move(weight_scales));
    wscales_ = std::move(qw.scales);
    int64_t per_group = packedLhsElemsI8(opg, k_dim, ops_->gemm_i8_mr);
    packed_wq_.resize(static_cast<size_t>(desc_.groups * per_group));
    for (int64_t g = 0; g < desc_.groups; ++g)
        packLhsTilesI8(qw.data.data() + g * opg * k_dim, opg, k_dim, k_dim,
                       ops_->gemm_i8_mr, packed_wq_.data() + g * per_group);
}

Tensor
Im2colConv::im2col(const ConvDesc& d, const Tensor& in, int64_t batch_index,
                   int64_t group)
{
    int64_t oh = d.outH(), ow = d.outW();
    int64_t cpg = d.cinPerGroup();
    int64_t rows = cpg * d.kh * d.kw;
    Tensor cols(Shape{rows, oh * ow});
    for (int64_t ic = 0; ic < cpg; ++ic) {
        const float* iptr =
            in.data() + ((batch_index * d.cin + group * cpg + ic) * d.h) * d.w;
        for (int64_t r = 0; r < d.kh; ++r) {
            for (int64_t c = 0; c < d.kw; ++c) {
                float* dst = cols.data() + ((ic * d.kh + r) * d.kw + c) * oh * ow;
                for (int64_t y = 0; y < oh; ++y) {
                    int64_t iy = y * d.stride - d.pad + r * d.dilation;
                    if (iy < 0 || iy >= d.h) {
                        std::fill(dst + y * ow, dst + (y + 1) * ow, 0.0f);
                        continue;
                    }
                    for (int64_t x = 0; x < ow; ++x) {
                        int64_t ix = x * d.stride - d.pad + c * d.dilation;
                        dst[y * ow + x] =
                            (ix < 0 || ix >= d.w) ? 0.0f : iptr[iy * d.w + ix];
                    }
                }
            }
        }
    }
    return cols;
}

void
Im2colConv::run(const Tensor& in, Tensor& out, const Epilogue& ep) const
{
    if (quantized_) {
        runQuantized(in, out, ep);
        return;
    }
    const ConvDesc& d = desc_;
    const SimdOps& ops = *ops_;
    int64_t n = in.shape().dim(0);
    int64_t oh = d.outH(), ow = d.outW();
    int64_t opg = d.coutPerGroup();
    int64_t k_dim = d.cinPerGroup() * d.kh * d.kw;
    int64_t n_dim = oh * ow;
    const int mr = ops.gemm_mr;
    const int nr = ops.gemm_nr;
    int64_t lhs_tiles = (opg + mr - 1) / mr;
    int64_t rhs_tiles = (n_dim + nr - 1) / nr;
    int64_t per_group = packedLhsElems(opg, k_dim, mr);

    // Per-call scratch (run() is const and may race across sessions).
    Tensor packed_cols(Shape{packedRhsElems(k_dim, n_dim, nr)});

    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < d.groups; ++g) {
            Tensor cols = im2col(d, in, b, g);
            // Pack the patch matrix into NR-column panels in parallel:
            // each tile is an independent [k_dim x NR] slab.
            device_.pool().parallelChunks(
                rhs_tiles, [&](int64_t begin, int64_t end) {
                    for (int64_t j = begin; j < end; ++j) {
                        int64_t live = std::min<int64_t>(nr, n_dim - j * nr);
                        packRhsTiles(cols.data() + j * nr, k_dim, live, n_dim,
                                     nr, packed_cols.data() + j * k_dim * nr);
                    }
                });
            // Blocked GEMM over LHS row tiles: bias prefill, tile
            // kernels, fused ReLU — each worker owns its output rows.
            const float* plhs = packed_w_.data() + g * per_group;
            float* cbase = out.data() + (b * d.cout + g * opg) * n_dim;
            device_.pool().parallelChunks(
                lhs_tiles, [&](int64_t begin, int64_t end) {
                    int64_t row0 = begin * mr;
                    int64_t row1 = std::min<int64_t>(end * mr, opg);
                    for (int64_t m = row0; m < row1; ++m) {
                        float bias = ep.bias ? (*ep.bias)[g * opg + m] : 0.0f;
                        std::fill(cbase + m * n_dim, cbase + (m + 1) * n_dim,
                                  bias);
                    }
                    packedGemmRowTiles(ops, plhs, packed_cols.data(), opg,
                                       k_dim, n_dim, cbase, n_dim, begin, end,
                                       blocking_);
                    if (ep.relu)
                        for (int64_t m = row0; m < row1; ++m)
                            ops.relu(cbase + m * n_dim, n_dim);
                });
        }
    }
}

void
Im2colConv::runQuantized(const Tensor& in, Tensor& out,
                         const Epilogue& ep) const
{
    const ConvDesc& d = desc_;
    const SimdOps& ops = *ops_;
    int64_t n = in.shape().dim(0);
    int64_t opg = d.coutPerGroup();
    int64_t k_dim = d.cinPerGroup() * d.kh * d.kw;
    int64_t n_dim = d.outH() * d.outW();
    const int mr = ops.gemm_i8_mr;
    const int nr = ops.gemm_i8_nr;
    int64_t lhs_tiles = (opg + mr - 1) / mr;
    int64_t rhs_tiles = (n_dim + nr - 1) / nr;
    int64_t kp2 = ((k_dim + 1) / 2) * 2;  // Panel K extent in lanes.
    int64_t per_group = packedLhsElemsI8(opg, k_dim, mr);

    // Per-call scratch (run() is const and may race across sessions):
    // the quantized patch matrix, its packed panels, and the i32
    // accumulator the requant epilogue drains into `out`.
    std::vector<int8_t> qcols(static_cast<size_t>(k_dim * n_dim));
    std::vector<int8_t> packed_cols(
        static_cast<size_t>(packedRhsElemsI8(k_dim, n_dim, nr)));
    std::vector<int32_t> acc(static_cast<size_t>(opg * n_dim));

    const float inv_scale = act_scale_ > 0.0f ? 1.0f / act_scale_ : 0.0f;
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t g = 0; g < d.groups; ++g) {
            Tensor cols = im2col(d, in, b, g);
            // Quantize the patch matrix at the calibrated input scale
            // through the per-ISA kernel (bit-identical across tables),
            // in parallel over K rows (independent slabs).
            device_.pool().parallelChunks(
                k_dim, [&](int64_t begin, int64_t end) {
                    for (int64_t r = begin; r < end; ++r)
                        ops.quantize_row_i8(cols.data() + r * n_dim, n_dim,
                                            inv_scale,
                                            qcols.data() + r * n_dim);
                });
            // Pack into NR-column k-pair panels in parallel.
            device_.pool().parallelChunks(
                rhs_tiles, [&](int64_t begin, int64_t end) {
                    for (int64_t j = begin; j < end; ++j) {
                        int64_t live = std::min<int64_t>(nr, n_dim - j * nr);
                        packRhsTilesI8(qcols.data() + j * nr, k_dim, live,
                                       n_dim, nr,
                                       packed_cols.data() + j * kp2 * nr);
                    }
                });
            // Exact i32 GEMM over LHS row tiles, then the requant
            // epilogue (combined scale + bias + ReLU) into f32 output —
            // each worker owns its accumulator and output rows.
            const int16_t* plhs = packed_wq_.data() + g * per_group;
            float* obase = out.data() + (b * d.cout + g * opg) * n_dim;
            device_.pool().parallelChunks(
                lhs_tiles, [&](int64_t begin, int64_t end) {
                    int64_t row0 = begin * mr;
                    int64_t row1 = std::min<int64_t>(end * mr, opg);
                    std::fill(acc.begin() + row0 * n_dim,
                              acc.begin() + row1 * n_dim, 0);
                    packedGemmRowTilesI8(ops, plhs, packed_cols.data(), opg,
                                         k_dim, n_dim, acc.data(), n_dim,
                                         begin, end, blocking_);
                    for (int64_t m = row0; m < row1; ++m) {
                        int64_t oc = g * opg + m;
                        float bias = ep.bias ? (*ep.bias)[oc] : 0.0f;
                        float scale =
                            wscales_[static_cast<size_t>(oc)] * act_scale_;
                        requantRowToF32(acc.data() + m * n_dim, n_dim, scale,
                                        bias, ep.relu, obase + m * n_dim);
                    }
                });
        }
    }
}

}  // namespace patdnn
