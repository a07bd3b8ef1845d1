/**
 * @file
 * Layerwise Representation (LR), paper Section 5.1 / Fig. 8.
 *
 * The LR is the high-level, sparsity-aware description of one layer
 * that the execution-code-generation stage consumes: which pattern
 * types are present, how the weights are stored (FKW), and the
 * tuning-decided parameters (row tile, task size, the loop
 * permutation). The pattern engine is configured entirely from an LR,
 * and the auto-tuner's job is to fill in its `tuning` block.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/conv_desc.h"

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

/** Permutation display name ("cohwci_b"-style as in Fig. 8). */
std::string permutationName(LoopPermutation p, bool blocked);

/** Tuning-decided execution parameters of one layer. */
struct TuneParams
{
    LoopPermutation permute = LoopPermutation::kCoHWCi;
    bool blocked = true;      ///< Spatial tiling on/off.
    int64_t tile_oh = 16;     ///< Output-row tile (when blocked).
    int filters_per_task = 8; ///< Scheduling granularity.

    // Dense packed-GEMM cache blocking (rt/gemm_packed.h). 0 = derive
    // from the ISA tile footprint and the device tile budget; the
    // auto-tuner searches concrete values per layer.
    int64_t gemm_kc = 0;      ///< K elements per GEMM block.
    int64_t gemm_nc = 0;      ///< N columns per GEMM block.
};

/** Optimization switches (the Fig. 13 ablation axes). */
struct OptSwitches
{
    bool reorder = true;  ///< FKR applied.
    bool lre = true;      ///< Register-level load redundancy elimination.
};

/** The LR: everything needed to generate execution code for a layer. */
struct LayerwiseRep
{
    std::string device = "CPU";
    std::string storage = "tight";  ///< FKW compact storage.
    ConvDesc conv;
    std::vector<int> pattern_types;  ///< Pattern ids present.
    std::string layout = "FKW";
    TuneParams tuning;
    OptSwitches opts;

    /** Render in the Fig. 8 YAML-like style. */
    std::string str() const;
};

}  // namespace patdnn
