#include "rt/quant_epilogue.h"

#include "rt/simd/dispatch.h"

namespace patdnn {

void
requantRowToF32(const int32_t* acc, int64_t n, float scale, float bias,
                bool relu, float* out)
{
    if (relu) {
        for (int64_t i = 0; i < n; ++i) {
            float v = static_cast<float>(acc[i]) * scale + bias;
            out[i] = v > 0.0f ? v : 0.0f;
        }
        return;
    }
    for (int64_t i = 0; i < n; ++i)
        out[i] = static_cast<float>(acc[i]) * scale + bias;
}

void
quantizeRowToI8(const float* x, int64_t n, float scale, int8_t* out)
{
    // The portable entry: the scalar table's quantize_row_i8 is the
    // reference rounding (dispatch.h); the quantized conv run path
    // calls its per-ISA sibling directly with the same 1/scale.
    scalarSimdOps().quantize_row_i8(x, n, scale > 0.0f ? 1.0f / scale : 0.0f,
                                    out);
}

}  // namespace patdnn
