#include "prune/pattern_set.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace patdnn {

int
PatternSet::bestFor(const float* kernel) const
{
    PATDNN_CHECK(!patterns.empty(), "empty pattern set");
    // Square each tap once; each pattern then sums its kept squares in
    // ascending position order, the same additions as keptEnergy.
    double sq[32] = {};
    for (int64_t i = 0; i < patterns.front().kh() * patterns.front().kw(); ++i)
        sq[i] = static_cast<double>(kernel[i]) * kernel[i];
    int best = 0;
    double best_e = -1.0;
    for (size_t i = 0; i < patterns.size(); ++i) {
        double e = 0.0;
        for (uint32_t m = patterns[i].keptBits(); m != 0; m &= m - 1)
            e += sq[std::countr_zero(m)];
        if (e > best_e) {
            best_e = e;
            best = static_cast<int>(i);
        }
    }
    return best;
}

std::vector<PatternFrequency>
minePatternFrequencies(const std::vector<const Tensor*>& conv_weights, int entries)
{
    // Every 3x3 mask is below 1 << 9.
    int64_t hist[512] = {};
    for (const Tensor* w : conv_weights) {
        if (w == nullptr || w->shape().rank() != 4)
            continue;
        int64_t kh = w->shape().dim(2);
        int64_t kw = w->shape().dim(3);
        if (kh != 3 || kw != 3)
            continue;
        int64_t kernels = w->shape().dim(0) * w->shape().dim(1);
        for (int64_t k = 0; k < kernels; ++k) {
            const float* kp = w->data() + k * kh * kw;
            Pattern nat = naturalPatternOf(kp, kh, kw, entries);
            hist[nat.mask()] += 1;
        }
    }
    std::vector<PatternFrequency> out;
    for (uint32_t mask = 0; mask < 512; ++mask)
        if (hist[mask] != 0)
            out.push_back({Pattern(3, 3, mask), hist[mask]});
    std::sort(out.begin(), out.end(), [](const PatternFrequency& a, const PatternFrequency& b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.pattern.mask() < b.pattern.mask();
    });
    return out;
}

PatternSet
selectTopK(const std::vector<PatternFrequency>& freqs, int k)
{
    PATDNN_CHECK_GT(k, 0, "pattern set size");
    PatternSet set;
    for (const auto& f : freqs) {
        set.patterns.push_back(f.pattern);
        if (set.size() == k)
            break;
    }
    PATDNN_CHECK(!set.patterns.empty(), "no patterns mined; need 3x3 conv weights");
    // Pad with canonical patterns if the model had too few distinct
    // natural patterns (tiny models).
    if (set.size() < k) {
        for (const auto& p : canonicalPatternSet(56).patterns) {
            bool dup = false;
            for (const auto& q : set.patterns)
                if (q == p)
                    dup = true;
            if (!dup)
                set.patterns.push_back(p);
            if (set.size() == k)
                break;
        }
    }
    return set;
}

PatternSet
designPatternSet(const std::vector<const Tensor*>& conv_weights, int k, int entries)
{
    return selectTopK(minePatternFrequencies(conv_weights, entries), k);
}

PatternSet
canonicalPatternSet(int k)
{
    PATDNN_CHECK_GT(k, 0, "pattern set size");
    // Orientation-balanced 4-entry patterns: the center plus three of
    // its neighbours, sweeping edge-anchored then corner-anchored
    // shapes. The first 8 match the L-shaped patterns the pattern
    // theory work (PCONV) identifies as accuracy-preserving.
    const std::vector<std::vector<int>> shapes = {
        {4, 0, 1, 3}, {4, 1, 2, 5}, {4, 3, 6, 7}, {4, 5, 7, 8},
        {4, 0, 1, 2}, {4, 6, 7, 8}, {4, 0, 3, 6}, {4, 2, 5, 8},
        {4, 1, 3, 5}, {4, 3, 5, 7}, {4, 1, 5, 7}, {4, 1, 3, 7},
        {4, 0, 2, 6}, {4, 0, 2, 8}, {4, 0, 6, 8}, {4, 2, 6, 8},
    };
    PatternSet set;
    for (const auto& s : shapes) {
        set.patterns.emplace_back(3, 3, s);
        if (set.size() == k)
            return set;
    }
    // Beyond 16, extend with the remaining natural patterns.
    for (const auto& p : allNaturalPatterns3x3()) {
        bool dup = false;
        for (const auto& q : set.patterns)
            if (q == p)
                dup = true;
        if (!dup)
            set.patterns.push_back(p);
        if (set.size() == k)
            return set;
    }
    return set;
}

}  // namespace patdnn
