#include "rt/load_analysis.h"

#include <algorithm>

namespace patdnn {

LoadCounts
analyzeLoads(const ConvDesc& desc, const FkwLayer& fkw, const TuneParams& tuning,
             const OptSwitches& opts, const DeviceSpec& device)
{
    LoadCounts counts;
    const int64_t oh = desc.outH(), ow = desc.outW();
    const int64_t entries = fkw.entries;
    const int64_t kernels = fkw.kernelCount();
    if (!opts.lre || desc.stride != 1) {
        // Guarded passes over the output pixels: per entry without LRE
        // (output re-loaded per entry), per kernel with it.
        const int64_t pixels = oh * ow;
        const int64_t passes = opts.lre ? kernels : kernels * entries;
        counts.output_loads = passes * pixels;
        counts.input_loads = kernels * entries * pixels;
        counts.weight_loads = kernels * entries;
        return counts;
    }
    // The padded flat-row kernel, tile by tile as PatternConv runs it.
    const int64_t wp = desc.w + 2 * desc.pad;
    const int64_t block = 4 * resolveSimdOps(device.simd_isa).width;
    const int64_t tile = tuning.rowTile(oh);
    int64_t positions = 0, blocks = 0;
    for (int64_t y0 = 0; y0 < oh; y0 += tile) {
        const int64_t len = (std::min(oh, y0 + tile) - y0 - 1) * wp + ow;
        positions += len;
        blocks += (len + block - 1) / block;
    }
    const bool block_outside = tuning.permute == LoopPermutation::kCoHWCi;
    counts.output_loads = (block_outside ? fkw.filters : kernels) * positions;
    counts.input_loads = kernels * entries * positions;
    counts.weight_loads = kernels * entries * blocks;
    return counts;
}

}  // namespace patdnn
