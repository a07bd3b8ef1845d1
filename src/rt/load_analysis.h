/**
 * @file
 * Register-load analysis (Fig. 14b): counts the register load operations
 * the engine's code performs with and without LRE, for the loop
 * structure PatternConv actually runs on the layer. Counts are per
 * value (a vector load of w floats counts w), so the before/after
 * ratio mirrors the paper's profiling experiment independent of the
 * vector width.
 */
#pragma once

#include <cstdint>

#include "rt/conv_pattern.h"

namespace patdnn {

/** Load counts attributable to one conv layer's execution. */
struct LoadCounts
{
    int64_t input_loads = 0;    ///< Register loads of input values.
    int64_t output_loads = 0;   ///< Register loads of output accumulators.
    int64_t weight_loads = 0;   ///< Register loads of weight values.
    int64_t total() const { return input_loads + output_loads + weight_loads; }
};

/**
 * Count register loads for executing `fkw` under `tuning` and `opts` on
 * `device`.
 *
 * Without LRE every entry performs its own pass: each output element is
 * re-loaded per entry and every input value is loaded per use. A
 * strided layer with LRE makes one guarded pass per kernel. A stride-1
 * layer with LRE runs SimdOps::pattern_accum over flat rows of
 * OH·(W+2p) positions (pad columns included): with the pixel block
 * outside the kernel loop each accumulator is loaded once per filter
 * and row tile, inside it once per kernel; every input value is loaded
 * once per (kernel, entry, position) and every weight once per
 * (kernel, entry, register block of 4 vectors of the device's ISA).
 */
LoadCounts analyzeLoads(const ConvDesc& desc, const FkwLayer& fkw,
                        const TuneParams& tuning, const OptSwitches& opts,
                        const DeviceSpec& device);

}  // namespace patdnn
