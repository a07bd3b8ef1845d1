/**
 * @file
 * Kernel patterns: the fine-grained pruning shapes inside coarse-grained
 * structures that are the paper's central idea (Section 3.1).
 *
 * A pattern is the set of kernel positions whose weights are kept. For
 * the common 3x3 kernel the paper uses 4-entry patterns that always keep
 * the central weight; with the center fixed there are C(8,3) = 56
 * possible "natural" patterns.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace patdnn {

/** A kept-position bitmask over a kh x kw kernel (row-major bits). */
class Pattern
{
  public:
    Pattern() = default;

    /** Build from a bitmask; bit (r*kw+c) set means position kept. */
    Pattern(int64_t kh, int64_t kw, uint32_t mask);

    /** Build from explicit kept positions (r*kw+c indices). */
    Pattern(int64_t kh, int64_t kw, const std::vector<int>& kept);

    int64_t kh() const { return kh_; }
    int64_t kw() const { return kw_; }
    uint32_t mask() const { return mask_; }

    /** Number of kept entries. */
    int popcount() const;

    /** Whether position (r, c) is kept. */
    bool keeps(int64_t r, int64_t c) const;

    /** Kept positions as the mask's bits inside the kh x kw window (bit
     * r*kw+c); walk them ascending with countr_zero. */
    uint32_t keptBits() const { return mask_ & static_cast<uint32_t>((1ull << kh_ * kw_) - 1); }

    /** Whether the central position of an odd-sized kernel is kept. */
    bool keepsCenter() const;

    /**
     * Kept L2 energy: sum of squares of kernel entries at kept positions.
     * The projection picks the pattern maximizing this (equivalently
     * minimizing the pruning distortion).
     */
    double keptEnergy(const float* kernel) const;

    /** Zero all positions of `kernel` the pattern does not keep. */
    void apply(float* kernel) const;

    /** ASCII art, 'x' kept / '.' pruned, rows separated by '\n'. */
    std::string str() const;

    bool operator==(const Pattern& o) const
    {
        return kh_ == o.kh_ && kw_ == o.kw_ && mask_ == o.mask_;
    }

  private:
    int64_t kh_ = 0;
    int64_t kw_ = 0;
    uint32_t mask_ = 0;
};

/**
 * Enumerate all 4-entry natural patterns of a 3x3 kernel: center kept
 * plus every choice of 3 of the remaining 8 positions (56 total).
 */
std::vector<Pattern> allNaturalPatterns3x3();

/**
 * The natural pattern of one kernel: the center plus the
 * (entries-1) largest-magnitude remaining positions (Section 4.1), the
 * earlier position first among equal magnitudes.
 */
Pattern naturalPatternOf(const float* kernel, int64_t kh, int64_t kw, int entries = 4);

}  // namespace patdnn
