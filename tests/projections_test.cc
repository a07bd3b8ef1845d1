/** @file Euclidean projection property tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "prune/projections.h"

namespace patdnn {
namespace {

Tensor
randomWeights(int64_t f, int64_t c, Rng& rng)
{
    Tensor w(Shape{f, c, 3, 3});
    w.fillNormal(rng, 0.0f, 1.0f);
    return w;
}

/** The stable-sort connectivity projection: order kernel indices by
 * descending norm (lower index first on ties), keep the first alpha. */
std::vector<uint8_t>
referenceConnectivity(Tensor& weight, int64_t alpha)
{
    int64_t total = weight.shape().dim(0) * weight.shape().dim(1);
    int64_t ksz = weight.shape().dim(2) * weight.shape().dim(3);
    std::vector<double> norms = kernelNorms(weight);
    std::vector<int64_t> order(static_cast<size_t>(total));
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return norms[static_cast<size_t>(a)] > norms[static_cast<size_t>(b)];
    });
    std::vector<uint8_t> keep(static_cast<size_t>(total), 0);
    for (int64_t i = 0; i < alpha; ++i)
        keep[static_cast<size_t>(order[static_cast<size_t>(i)])] = 1;
    for (int64_t i = 0; i < total; ++i)
        if (!keep[static_cast<size_t>(i)])
            std::fill(weight.data() + i * ksz, weight.data() + (i + 1) * ksz, 0.0f);
    return keep;
}

/** Weights whose kernels repeat a few templates (so norms tie across
 * any alpha boundary), with every fifth kernel all zero. */
Tensor
tiedWeights(int64_t f, int64_t c, int64_t k, Rng& rng)
{
    Tensor templates(Shape{4, k * k});
    templates.fillNormal(rng);
    Tensor w(Shape{f, c, k, k});
    for (int64_t i = 0; i < f * c; ++i) {
        float* kp = w.data() + i * k * k;
        if (i % 5 == 4) {
            std::fill(kp, kp + k * k, 0.0f);
            continue;
        }
        const float* t = templates.data() + rng.uniformInt(0, 3) * k * k;
        // A sign flip keeps the norm, so tied norms come from different kernels.
        float sign = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        for (int64_t j = 0; j < k * k; ++j)
            kp[j] = sign * t[j];
    }
    return w;
}

bool
sameBits(const Tensor& a, const Tensor& b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(Projections, ConnectivityMatchesStableSortReference)
{
    Rng rng(31);
    std::vector<Tensor> cases;
    cases.push_back(randomWeights(12, 10, rng));
    cases.push_back(tiedWeights(12, 10, 3, rng));
    cases.push_back(tiedWeights(6, 7, 1, rng));
    Tensor zeros(Shape{5, 6, 3, 3});
    zeros.fill(0.0f);
    cases.push_back(zeros);
    for (const Tensor& w : cases) {
        int64_t total = w.shape().dim(0) * w.shape().dim(1);
        for (int64_t alpha = 0; alpha <= total; ++alpha) {
            Tensor got = w;
            Tensor want = w;
            auto got_keep = projectConnectivity(got, alpha);
            auto want_keep = referenceConnectivity(want, alpha);
            ASSERT_EQ(got_keep, want_keep) << "alpha " << alpha << " of " << total;
            ASSERT_TRUE(sameBits(got, want)) << "alpha " << alpha;
        }
    }
}

TEST(Projections, ConnectivityWithNaNWeightsStaysInBounds)
{
    // NaN norms have no place in a descending order; the projection must
    // still keep at most alpha kernels and read nothing past the layer.
    Rng rng(33);
    Tensor w = randomWeights(6, 6, rng);
    for (int64_t nan_every : {1, 5}) {
        Tensor nan_w = w;
        for (int64_t k = 0; k < 36; k += nan_every)
            nan_w[k * 9] = std::nanf("");
        for (int64_t alpha = 0; alpha <= 36; ++alpha) {
            Tensor c = nan_w;
            auto keep = projectConnectivity(c, alpha);
            EXPECT_LE(std::count(keep.begin(), keep.end(), 1), alpha);
        }
    }
}

TEST(Projections, JointEqualsConnectivityThenPattern)
{
    // projectJoint projects only the kept kernels; that must equal
    // projecting every kernel after connectivity and assigning the
    // pruned ones -1. The 1x1 case keeps its kept kernels dense.
    Rng rng(32);
    PatternSet set = canonicalPatternSet(8);
    std::vector<Tensor> cases;
    cases.push_back(randomWeights(16, 12, rng));
    cases.push_back(tiedWeights(16, 12, 3, rng));
    cases.push_back(tiedWeights(8, 6, 1, rng));
    for (const Tensor& w : cases) {
        int64_t total = w.shape().dim(0) * w.shape().dim(1);
        for (int64_t alpha : {int64_t{0}, int64_t{1}, total / 3, total / 2 + 1, total}) {
            Tensor got = w;
            PatternAssignment asg = projectJoint(got, set, alpha);
            Tensor want = w;
            auto keep = referenceConnectivity(want, alpha);
            PatternAssignment ref = projectPattern(want, set);
            for (size_t i = 0; i < keep.size(); ++i)
                if (!keep[i])
                    ref.pattern_of_kernel[i] = -1;
            EXPECT_EQ(asg.pattern_of_kernel, ref.pattern_of_kernel) << "alpha " << alpha;
            EXPECT_EQ(asg.filters, ref.filters);
            EXPECT_EQ(asg.kernels_per_filter, ref.kernels_per_filter);
            EXPECT_TRUE(sameBits(got, want)) << "alpha " << alpha;
        }
    }
}

TEST(Projections, PatternProjectionSatisfiesConstraint)
{
    Rng rng(1);
    Tensor w = randomWeights(8, 8, rng);
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectPattern(w, set);
    for (int64_t i = 0; i < 64; ++i) {
        int pid = asg.pattern_of_kernel[static_cast<size_t>(i)];
        ASSERT_GE(pid, 0);
        const float* kp = w.data() + i * 9;
        const Pattern& p = set.patterns[static_cast<size_t>(pid)];
        for (int pos = 0; pos < 9; ++pos) {
            if (!((p.mask() >> pos) & 1u)) {
                EXPECT_EQ(kp[pos], 0.0f);
            }
        }
    }
}

TEST(Projections, PatternProjectionIsIdempotent)
{
    Rng rng(2);
    Tensor w = randomWeights(6, 6, rng);
    PatternSet set = canonicalPatternSet(6);
    projectPattern(w, set);
    Tensor once = w;
    projectPattern(w, set);
    EXPECT_EQ(Tensor::maxAbsDiff(once, w), 0.0);
}

TEST(Projections, PatternProjectionMinimizesDistortion)
{
    // The projection keeps the pattern with max kept energy, which is
    // the Euclidean projection onto the union of pattern subspaces.
    Rng rng(3);
    Tensor w = randomWeights(4, 4, rng);
    Tensor original = w;
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectPattern(w, set);
    for (int64_t i = 0; i < 16; ++i) {
        const float* orig = original.data() + i * 9;
        double kept =
            set.patterns[static_cast<size_t>(
                             asg.pattern_of_kernel[static_cast<size_t>(i)])]
                .keptEnergy(orig);
        for (const auto& p : set.patterns)
            EXPECT_LE(p.keptEnergy(orig), kept + 1e-9);
    }
}

TEST(Projections, PatternLeavesNon3x3Dense)
{
    Rng rng(4);
    Tensor w(Shape{4, 8, 1, 1});
    w.fillNormal(rng);
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectPattern(w, set);
    EXPECT_EQ(w.countNonZero(), 32);
    for (int pid : asg.pattern_of_kernel)
        EXPECT_EQ(pid, -1);
}

TEST(Projections, ConnectivityKeepsExactlyAlphaKernels)
{
    Rng rng(5);
    Tensor w = randomWeights(10, 10, rng);
    auto keep = projectConnectivity(w, 30);
    EXPECT_EQ(countNonZeroKernels(w), 30);
    int64_t kept = 0;
    for (uint8_t k : keep)
        kept += k;
    EXPECT_EQ(kept, 30);
}

TEST(Projections, ConnectivityKeepsLargestNorms)
{
    Rng rng(6);
    Tensor w = randomWeights(6, 6, rng);
    auto norms = kernelNorms(w);
    projectConnectivity(w, 10);
    auto after = kernelNorms(w);
    // The 10 surviving kernels must be the 10 largest by original norm.
    std::vector<double> sorted = norms;
    std::sort(sorted.rbegin(), sorted.rend());
    double threshold = sorted[9];
    for (size_t i = 0; i < norms.size(); ++i) {
        if (after[i] > 0.0) {
            EXPECT_GE(norms[i], threshold - 1e-9);
        }
    }
}

TEST(Projections, JointSatisfiesBothConstraints)
{
    Rng rng(7);
    Tensor w = randomWeights(8, 8, rng);
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectJoint(w, set, 20);
    EXPECT_EQ(countNonZeroKernels(w), 20);
    int64_t assigned = 0;
    for (int pid : asg.pattern_of_kernel)
        if (pid >= 0)
            ++assigned;
    EXPECT_EQ(assigned, 20);
    // Every surviving kernel has exactly <= 4 non-zeros.
    for (int64_t i = 0; i < 64; ++i) {
        const float* kp = w.data() + i * 9;
        int nnz = 0;
        for (int j = 0; j < 9; ++j)
            if (kp[j] != 0.0f)
                ++nnz;
        EXPECT_LE(nnz, 4);
    }
}

TEST(Projections, MagnitudeKeepsExactCount)
{
    Rng rng(8);
    Tensor w = randomWeights(4, 4, rng);
    projectMagnitude(w, 37);
    EXPECT_EQ(w.countNonZero(), 37);
}

TEST(Projections, MagnitudeKeepsLargest)
{
    Tensor w(Shape{1, 1, 3, 3}, {1, -9, 2, -8, 3, 7, 0.5f, -0.1f, 6});
    projectMagnitude(w, 4);
    EXPECT_EQ(w[1], -9.0f);
    EXPECT_EQ(w[3], -8.0f);
    EXPECT_EQ(w[5], 7.0f);
    EXPECT_EQ(w[8], 6.0f);
    EXPECT_EQ(w.countNonZero(), 4);
}

TEST(Projections, FilterPruningZeroesWholeFilters)
{
    Rng rng(9);
    Tensor w = randomWeights(8, 4, rng);
    projectFilters(w, 3);
    int64_t live_filters = 0;
    for (int64_t f = 0; f < 8; ++f) {
        const float* p = w.data() + f * 36;
        bool any = false;
        for (int64_t i = 0; i < 36; ++i)
            if (p[i] != 0.0f)
                any = true;
        live_filters += any;
    }
    EXPECT_EQ(live_filters, 3);
}

TEST(Projections, ChannelPruningZeroesWholeChannels)
{
    Rng rng(10);
    Tensor w = randomWeights(4, 8, rng);
    projectChannels(w, 2);
    int64_t live_channels = 0;
    for (int64_t c = 0; c < 8; ++c) {
        bool any = false;
        for (int64_t f = 0; f < 4; ++f) {
            const float* kp = w.data() + (f * 8 + c) * 9;
            for (int j = 0; j < 9; ++j)
                if (kp[j] != 0.0f)
                    any = true;
        }
        live_channels += any;
    }
    EXPECT_EQ(live_channels, 2);
}

class ConnectivitySweep : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(ConnectivitySweep, AlphaRespectedAcrossRates)
{
    Rng rng(11);
    Tensor w = randomWeights(12, 12, rng);
    int64_t alpha = GetParam();
    projectConnectivity(w, alpha);
    EXPECT_EQ(countNonZeroKernels(w), alpha);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ConnectivitySweep,
                         ::testing::Values(0, 1, 10, 40, 100, 144));

}  // namespace
}  // namespace patdnn
