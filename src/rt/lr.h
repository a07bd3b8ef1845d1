/**
 * @file
 * The tuning half of the Layerwise Representation (LR), paper Section
 * 5.1 / Fig. 8.
 *
 * The LR is the high-level, sparsity-aware description of one layer
 * that the execution-code-generation stage consumes. Here it is a
 * CompiledLayerState (rt/framework.h): its `conv` (the layer's
 * geometry), `fkw` (the pattern types present and their FKW storage),
 * `tuning` (the TuneParams below) and `opts` (the OptSwitches below).
 * PatternConv is built from exactly those four. The tuner fills in
 * `tuning` with the fastest of the configurations the layer's engine
 * lists (ConvEngine::tuneCandidates); the split of filters across
 * threads is not a tuned value, since PatternConv derives it from the
 * FKW kernel counts (preparePatternPlan).
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

namespace patdnn {

/**
 * Computation loop permutations explored by tuning (Fig. 15). On the
 * stride-1 LRE path the spatial loop is the register pixel block.
 */
enum class LoopPermutation
{
    kCoCiHW,  ///< filter -> kernel -> spatial (weight-stationary).
    kCoHWCi,  ///< filter -> spatial -> kernel (accumulators stay put).
};

/** Permutation display name ("cohwci" as in Fig. 8). */
std::string permutationName(LoopPermutation p);

/** Tuning-decided execution parameters of one layer. */
struct TuneParams
{
    LoopPermutation permute = LoopPermutation::kCoHWCi;
    int64_t tile_oh = 16;     ///< Output-row tile; 0 = the whole plane.

    // Dense packed-GEMM cache blocking (rt/gemm_packed.h). 0 = derive
    // from the ISA tile footprint and the device tile budget; the
    // tuner times concrete values per layer.
    int64_t gemm_kc = 0;      ///< K elements per GEMM block.
    int64_t gemm_nc = 0;      ///< N columns per GEMM block.

    /** The row tile the pattern engine runs on an `oh`-row plane. */
    int64_t rowTile(int64_t oh) const
    {
        return tile_oh > 0 ? std::min(oh, tile_oh) : oh;
    }
};

/** Optimization switches (the Fig. 13 ablation axes). */
struct OptSwitches
{
    bool reorder = true;  ///< FKR applied.
    bool lre = true;      ///< Register-level load redundancy elimination.
};

}  // namespace patdnn
