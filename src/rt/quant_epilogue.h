/**
 * @file
 * Quantized-GEMM epilogues: the f32 <-> i8 boundary of the int8 dense
 * path. The quantized Im2colConv quantizes its im2col patch matrix with
 * the calibrated activation scale, runs the exact i8×i8→i32 packed GEMM
 * (rt/gemm_packed.h), then requantizes each output row here:
 *
 *   f32 out = i32 acc * (weight_scale[ch] * act_scale) + bias [, ReLU]
 *
 * The requant loop is plain scalar code — it touches each element once
 * and is bandwidth-bound next to the GEMM. The activation-side quantizeRowToI8 is different: it covers
 * the whole im2col patch matrix per call, so the run path uses the
 * per-ISA SimdOps::quantize_row_i8 kernel and the function here is the
 * portable wrapper over the scalar reference table (rounding pinned by
 * tests/quant_test.cc and cross-ISA by tests/simd_kernels_test.cc).
 */
#pragma once

#include <cstdint>

#include "prune/quant.h"

namespace patdnn {

/** out[i] = acc[i] * scale + bias, optionally clamped at 0 (ReLU). */
void requantRowToF32(const int32_t* acc, int64_t n, float scale, float bias,
                     bool relu, float* out);

/** Quantize one f32 row at 1/scale (the activation-side entry into the
 * i8 GEMM): round-to-nearest, saturating clamp to [-127, 127]. */
void quantizeRowToI8(const float* x, int64_t n, float scale, int8_t* out);

}  // namespace patdnn
