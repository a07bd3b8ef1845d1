/**
 * @file
 * im2col + packed tiled GEMM convolution: the optimized dense baseline
 * standing in for TVM's scheduled dense kernels (Table 1's "tensor
 * optimization" row: packing, cache blocking, vectorized tile kernels,
 * threading). The filter matrix is packed once at construction; each
 * run packs the im2col patch matrix and dispatches the per-ISA
 * SimdOps::gemm_tile micro-kernel through rt/gemm_packed.h, so the
 * Fig. 17 pattern-vs-dense comparison runs against a competitive dense
 * baseline rather than a scalar loop.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv_desc.h"
#include "rt/conv_engine.h"
#include "rt/device.h"
#include "rt/gemm_packed.h"
#include "rt/lr.h"

namespace patdnn {

/** Dense conv via im2col and a packed, cache-blocked, tiled GEMM. */
class Im2colConv : public ConvEngine
{
  public:
    /**
     * Packs the filter matrix per group for `device`'s kernel ISA.
     * `tuning.gemm_kc` / `tuning.gemm_nc` override the cache-blocking
     * heuristic when > 0 (the auto-tuner's dense knobs).
     */
    Im2colConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
               TuneParams tuning = {});

    /**
     * Build in int8 quantized mode: the filter matrix is quantized per
     * output channel (prune/quant.h) and packed as k-pair i8 panels at
     * construction. Each run quantizes the im2col patch matrix at
     * `act_scale` (the calibrated input scale for this layer), runs the
     * exact i8×i8→i32 packed GEMM (SimdOps::gemm_tile_i8), and
     * requantizes to f32 with weight_scale[ch] * act_scale + bias
     * (+ fused ReLU). Non-empty `weight_scales` override the derived
     * per-channel scales (the artifact-restore path, where the stored
     * scales are authoritative); size must be desc.cout.
     */
    Im2colConv(ConvDesc desc, const Tensor* weight, DeviceSpec device,
               TuneParams tuning, float act_scale,
               std::vector<float> weight_scales = {});

    void run(const Tensor& in, Tensor& out, const Epilogue& ep = {}) const override;
    const char* name() const override { return "im2col"; }
    Precision precision() const override
    {
        return quantized_ ? Precision::kInt8 : Precision::kF32;
    }

    std::vector<TuneParams> tuneCandidates() const override
    {
        return gemmTuneCandidates(*ops_, tuning_, /*n_blocked=*/true);
    }

    /** Expose im2col for testing: [cin*kh*kw, outH*outW] column matrix. */
    static Tensor im2col(const ConvDesc& d, const Tensor& in, int64_t batch_index,
                         int64_t group);

    /** The cache-blocking factors in effect (heuristic or tuned). */
    const GemmBlocking& blocking() const { return blocking_; }

  private:
    void runQuantized(const Tensor& in, Tensor& out, const Epilogue& ep) const;

    ConvDesc desc_;
    DeviceSpec device_;
    const SimdOps* ops_;   ///< Resolved kernel table (never null).
    Tensor packed_w_;      ///< [groups][lhs-tile panels] packed filters (f32).
    TuneParams tuning_;
    GemmBlocking blocking_;

    // Int8 mode (see the quantized constructor).
    bool quantized_ = false;
    float act_scale_ = 0.0f;
    std::vector<int16_t> packed_wq_;  ///< [groups][i16-widened k-pair panels].
    std::vector<float> wscales_;     ///< Per-cout weight scales.
};

}  // namespace patdnn
