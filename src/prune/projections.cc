#include "prune/projections.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "util/logging.h"

namespace patdnn {
namespace {

void
checkConvWeight(const Tensor& w)
{
    PATDNN_CHECK_EQ(w.shape().rank(), 4, "conv weight must be OIHW");
}

/** Project the kernels with keep[i] != 0 (every kernel when `keep` is
 * null) onto their best pattern; the others stay assigned -1. */
PatternAssignment
assignPatterns(Tensor& weight, const PatternSet& set, const uint8_t* keep)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t kernels = weight.shape().dim(1);
    int64_t kh = weight.shape().dim(2);
    int64_t kw = weight.shape().dim(3);
    PatternAssignment asg;
    asg.filters = filters;
    asg.kernels_per_filter = kernels;
    asg.pattern_of_kernel.assign(static_cast<size_t>(filters * kernels), -1);
    if (kh != 3 || kw != 3)
        return asg;  // Patterns apply to 3x3 kernels only.
    for (int64_t i = 0; i < filters * kernels; ++i) {
        if (keep != nullptr && keep[i] == 0)
            continue;
        float* kp = weight.data() + i * kh * kw;
        int best = set.bestFor(kp);
        set.patterns[static_cast<size_t>(best)].apply(kp);
        asg.pattern_of_kernel[static_cast<size_t>(i)] = best;
    }
    return asg;
}

}  // namespace

std::vector<double>
kernelNorms(const Tensor& weight)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t kernels = weight.shape().dim(1);
    int64_t ksz = weight.shape().dim(2) * weight.shape().dim(3);
    std::vector<double> norms(static_cast<size_t>(filters * kernels), 0.0);
    for (int64_t i = 0; i < filters * kernels; ++i) {
        const float* kp = weight.data() + i * ksz;
        double s = 0.0;
        for (int64_t j = 0; j < ksz; ++j)
            s += static_cast<double>(kp[j]) * kp[j];
        norms[static_cast<size_t>(i)] = std::sqrt(s);
    }
    return norms;
}

int64_t
countNonZeroKernels(const Tensor& weight)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t kernels = weight.shape().dim(1);
    int64_t ksz = weight.shape().dim(2) * weight.shape().dim(3);
    int64_t n = 0;
    for (int64_t i = 0; i < filters * kernels; ++i) {
        const float* kp = weight.data() + i * ksz;
        for (int64_t j = 0; j < ksz; ++j) {
            if (kp[j] != 0.0f) {
                ++n;
                break;
            }
        }
    }
    return n;
}

PatternAssignment
projectPattern(Tensor& weight, const PatternSet& set)
{
    return assignPatterns(weight, set, nullptr);
}

std::vector<uint8_t>
projectConnectivity(Tensor& weight, int64_t alpha)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t kernels = weight.shape().dim(1);
    int64_t ksz = weight.shape().dim(2) * weight.shape().dim(3);
    int64_t total = filters * kernels;
    PATDNN_CHECK(alpha >= 0 && alpha <= total, "alpha out of range");
    std::vector<double> norms = kernelNorms(weight);
    std::vector<uint8_t> keep(static_cast<size_t>(total), 0);
    if (alpha > 0) {
        // v is the alpha-th largest norm. Keep every norm above v and the
        // first (in index order) of those equal to v until alpha are kept:
        // the first alpha of a stable descending sort.
        std::vector<double> sorted = norms;
        auto nth = sorted.begin() + (alpha - 1);
        std::nth_element(sorted.begin(), nth, sorted.end(), std::greater<>());
        const double v = *nth;
        int64_t kept = 0;
        for (size_t i = 0; i < norms.size(); ++i) {
            keep[i] = norms[i] > v;
            kept += keep[i];
        }
        // Only a NaN v (NaN weights) can leave fewer than alpha kept.
        for (size_t i = 0; i < norms.size() && kept < alpha; ++i)
            if (norms[i] == v) {
                keep[i] = 1;
                ++kept;
            }
    }
    for (int64_t i = 0; i < total; ++i) {
        if (!keep[static_cast<size_t>(i)]) {
            float* kp = weight.data() + i * ksz;
            std::fill(kp, kp + ksz, 0.0f);
        }
    }
    return keep;
}

PatternAssignment
projectJoint(Tensor& weight, const PatternSet& set, int64_t alpha)
{
    // Only the kernels connectivity keeps need a pattern; the rest are
    // zero and assigned -1.
    std::vector<uint8_t> keep = projectConnectivity(weight, alpha);
    return assignPatterns(weight, set, keep.data());
}

void
projectMagnitude(Tensor& weight, int64_t keep)
{
    int64_t n = weight.numel();
    PATDNN_CHECK(keep >= 0 && keep <= n, "keep out of range");
    if (keep == n)
        return;
    std::vector<float> mags(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        mags[static_cast<size_t>(i)] = std::fabs(weight[i]);
    std::nth_element(mags.begin(), mags.begin() + static_cast<size_t>(n - keep),
                     mags.end());
    float threshold = mags[static_cast<size_t>(n - keep)];
    // Zero strictly-below-threshold first, then trim ties to hit `keep`.
    int64_t kept = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (std::fabs(weight[i]) < threshold)
            weight[i] = 0.0f;
        else
            ++kept;
    }
    for (int64_t i = 0; i < n && kept > keep; ++i) {
        if (weight[i] != 0.0f && std::fabs(weight[i]) == threshold) {
            weight[i] = 0.0f;
            --kept;
        }
    }
}

void
projectFilters(Tensor& weight, int64_t keep)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t fsz = weight.shape().dim(1) * weight.shape().dim(2) * weight.shape().dim(3);
    PATDNN_CHECK(keep >= 0 && keep <= filters, "keep out of range");
    std::vector<double> norms(static_cast<size_t>(filters), 0.0);
    for (int64_t f = 0; f < filters; ++f) {
        const float* p = weight.data() + f * fsz;
        double s = 0.0;
        for (int64_t j = 0; j < fsz; ++j)
            s += static_cast<double>(p[j]) * p[j];
        norms[static_cast<size_t>(f)] = s;
    }
    std::vector<int64_t> order(static_cast<size_t>(filters));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return norms[static_cast<size_t>(a)] > norms[static_cast<size_t>(b)];
    });
    for (int64_t i = keep; i < filters; ++i) {
        float* p = weight.data() + order[static_cast<size_t>(i)] * fsz;
        std::fill(p, p + fsz, 0.0f);
    }
}

void
projectChannels(Tensor& weight, int64_t keep)
{
    checkConvWeight(weight);
    int64_t filters = weight.shape().dim(0);
    int64_t channels = weight.shape().dim(1);
    int64_t ksz = weight.shape().dim(2) * weight.shape().dim(3);
    PATDNN_CHECK(keep >= 0 && keep <= channels, "keep out of range");
    std::vector<double> norms(static_cast<size_t>(channels), 0.0);
    for (int64_t f = 0; f < filters; ++f)
        for (int64_t c = 0; c < channels; ++c) {
            const float* kp = weight.data() + (f * channels + c) * ksz;
            double s = 0.0;
            for (int64_t j = 0; j < ksz; ++j)
                s += static_cast<double>(kp[j]) * kp[j];
            norms[static_cast<size_t>(c)] += s;
        }
    std::vector<int64_t> order(static_cast<size_t>(channels));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return norms[static_cast<size_t>(a)] > norms[static_cast<size_t>(b)];
    });
    std::vector<uint8_t> keep_mask(static_cast<size_t>(channels), 0);
    for (int64_t i = 0; i < keep; ++i)
        keep_mask[static_cast<size_t>(order[static_cast<size_t>(i)])] = 1;
    for (int64_t f = 0; f < filters; ++f)
        for (int64_t c = 0; c < channels; ++c)
            if (!keep_mask[static_cast<size_t>(c)]) {
                float* kp = weight.data() + (f * channels + c) * ksz;
                std::fill(kp, kp + ksz, 0.0f);
            }
}

}  // namespace patdnn
