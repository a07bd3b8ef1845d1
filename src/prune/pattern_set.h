/**
 * @file
 * Pattern-set design (paper Section 4.1): mine the natural patterns of a
 * trained model's kernels and keep the top-k most frequent ones as the
 * candidate set the ADMM projection selects from.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "prune/pattern.h"
#include "tensor/tensor.h"

namespace patdnn {

/** A candidate pattern set shared by every 3x3 conv layer of a model. */
struct PatternSet
{
    std::vector<Pattern> patterns;

    /** Number of candidate patterns. */
    int size() const { return static_cast<int>(patterns.size()); }

    /** Index of the pattern with maximum kept energy for this kernel
     * (the first on ties). Every pattern shares the first one's window. */
    int bestFor(const float* kernel) const;
};

/** Frequency of one natural pattern across a model's kernels. */
struct PatternFrequency
{
    Pattern pattern;
    int64_t count = 0;
};

/**
 * Scan every kh x kw kernel of every weight tensor, compute its natural
 * pattern, and histogram the results. Weights are OIHW conv tensors;
 * non-3x3 tensors are skipped (the paper applies patterns to 3x3 only).
 */
std::vector<PatternFrequency> minePatternFrequencies(
    const std::vector<const Tensor*>& conv_weights, int entries = 4);

/**
 * Build the top-k pattern candidate set from mined frequencies
 * (ties broken by mask value for determinism).
 */
PatternSet selectTopK(const std::vector<PatternFrequency>& freqs, int k);

/** Convenience: mine + select in one call. */
PatternSet designPatternSet(const std::vector<const Tensor*>& conv_weights, int k,
                            int entries = 4);

/**
 * A fixed, model-independent canonical set used when no pre-trained
 * weights exist yet (e.g. pruning from scratch): the k patterns chosen
 * to cover all 8 center-adjacent orientations as evenly as possible.
 */
PatternSet canonicalPatternSet(int k);

}  // namespace patdnn
