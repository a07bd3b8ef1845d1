/**
 * @file
 * Winograd F(2x2, 3x3) convolution: the hand-optimized dense path the
 * paper enables "for all dense runs" (Section 6.1) and the MNN-like
 * facade's fast 3x3 kernel. It applies to stride-1 3x3 convs only
 * (applies()); selectConvEngine() runs every other geometry on im2col.
 * The 16 per-tile-position stage-2 GEMMs run on the im2col backend's
 * packed SimdOps::gemm_tile kernel (rt/gemm_packed.h) as M[t]^T =
 * V[t]^T * U[t]^T, [tiles x cin] * [cin x cout], so cout fills the
 * tile's columns even on a 2x2 plane. U^T is packed once at
 * construction; the input transform writes V^T straight into its panels.
 */
#pragma once

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "rt/gemm_packed.h"
#include "rt/lr.h"

namespace patdnn {

/** Winograd F(2x2,3x3) executor; only for geometries where applies(). */
class WinogradConv : public ConvEngine
{
  public:
    /** Transforms and packs the filters; `desc` must satisfy applies(). */
    WinogradConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
                 TuneParams tuning = {});

    /** True if the geometry has a Winograd F(2x2,3x3) form: ungrouped,
     * undilated 3x3 at stride 1. */
    static bool applies(const ConvDesc& d)
    {
        return d.kh == 3 && d.kw == 3 && d.stride == 1 && d.dilation == 1 &&
               d.groups == 1;
    }

    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "winograd"; }
    /** gemm_kc only: each stage-2 GEMM is one column panel wide. */
    std::vector<TuneParams> tuneCandidates() const override
    {
        return gemmTuneCandidates(*ops_, tuning_, /*n_blocked=*/false);
    }

  private:
    ConvDesc desc_;
    DeviceSpec device_;
    const SimdOps* ops_ = nullptr;  ///< Resolved kernel table.
    Tensor packed_u_;     ///< 16 packed RHS column-panel sets of U^T.
    TuneParams tuning_;
    GemmBlocking blocking_;
};

}  // namespace patdnn
