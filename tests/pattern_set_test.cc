/** @file Pattern-set mining and selection tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "prune/pattern_set.h"

namespace patdnn {
namespace {

Tensor
makeWeights(int64_t filters, int64_t channels, Rng& rng)
{
    Tensor w(Shape{filters, channels, 3, 3});
    w.fillNormal(rng, 0.0f, 1.0f);
    return w;
}

/** The std::map histogram: counts per natural-pattern mask, emitted in
 * ascending mask order, then sorted by count (mask breaks ties). */
std::vector<PatternFrequency>
referenceMine(const std::vector<const Tensor*>& conv_weights, int entries)
{
    std::map<uint32_t, int64_t> hist;
    for (const Tensor* w : conv_weights) {
        if (w == nullptr || w->shape().rank() != 4 || w->shape().dim(2) != 3 ||
            w->shape().dim(3) != 3)
            continue;
        for (int64_t k = 0; k < w->shape().dim(0) * w->shape().dim(1); ++k)
            hist[naturalPatternOf(w->data() + k * 9, 3, 3, entries).mask()] += 1;
    }
    std::vector<PatternFrequency> out;
    for (const auto& [mask, count] : hist)
        out.push_back({Pattern(3, 3, mask), count});
    std::sort(out.begin(), out.end(), [](const PatternFrequency& a, const PatternFrequency& b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.pattern.mask() < b.pattern.mask();
    });
    return out;
}

/** The keptEnergy argmax; the first pattern wins ties. */
int
referenceBestFor(const PatternSet& set, const float* kernel)
{
    int best = 0;
    double best_e = -1.0;
    for (size_t i = 0; i < set.patterns.size(); ++i) {
        double e = set.patterns[i].keptEnergy(kernel);
        if (e > best_e) {
            best_e = e;
            best = static_cast<int>(i);
        }
    }
    return best;
}

TEST(PatternSet, BestForMaximizesKeptEnergy)
{
    PatternSet set = canonicalPatternSet(8);
    Rng rng(2);
    for (int trial = 0; trial < 30; ++trial) {
        float kernel[9];
        for (auto& v : kernel)
            v = rng.normal();
        int best = set.bestFor(kernel);
        double best_e = set.patterns[static_cast<size_t>(best)].keptEnergy(kernel);
        for (const auto& p : set.patterns)
            EXPECT_LE(p.keptEnergy(kernel), best_e + 1e-9);
    }
}

TEST(PatternSet, MiningCountsKernels)
{
    Rng rng(4);
    Tensor w = makeWeights(8, 6, rng);
    auto freqs = minePatternFrequencies({&w});
    int64_t total = 0;
    for (const auto& f : freqs)
        total += f.count;
    EXPECT_EQ(total, 48);  // 8 * 6 kernels.
    // Frequencies sorted descending.
    for (size_t i = 1; i < freqs.size(); ++i)
        EXPECT_GE(freqs[i - 1].count, freqs[i].count);
}

TEST(PatternSet, MiningSkipsNon3x3)
{
    Rng rng(4);
    Tensor w1(Shape{4, 4, 1, 1});
    w1.fillNormal(rng);
    auto freqs = minePatternFrequencies({&w1});
    EXPECT_TRUE(freqs.empty());
}

TEST(PatternSet, SelectTopKSizes)
{
    Rng rng(5);
    Tensor w = makeWeights(32, 16, rng);
    for (int k : {4, 6, 8, 12}) {
        PatternSet set = designPatternSet({&w}, k);
        EXPECT_EQ(set.size(), k);
        for (const auto& p : set.patterns)
            EXPECT_EQ(p.popcount(), 4);
    }
}

TEST(PatternSet, TopKAreMostFrequent)
{
    Rng rng(6);
    Tensor w = makeWeights(16, 16, rng);
    auto freqs = minePatternFrequencies({&w});
    PatternSet set = selectTopK(freqs, 6);
    for (int i = 0; i < 6 && i < static_cast<int>(freqs.size()); ++i)
        EXPECT_TRUE(set.patterns[static_cast<size_t>(i)] ==
                    freqs[static_cast<size_t>(i)].pattern);
}

TEST(PatternSet, CanonicalSetsAreDistinctCenterKeeping)
{
    for (int k : {4, 6, 8, 12, 16, 56}) {
        PatternSet set = canonicalPatternSet(k);
        EXPECT_EQ(set.size(), k);
        for (size_t i = 0; i < set.patterns.size(); ++i) {
            EXPECT_TRUE(set.patterns[i].keepsCenter());
            for (size_t j = i + 1; j < set.patterns.size(); ++j)
                EXPECT_FALSE(set.patterns[i] == set.patterns[j]);
        }
    }
}

TEST(PatternSet, PadsWithCanonicalWhenModelTooSmall)
{
    // A tiny model may exhibit < k distinct natural patterns.
    Rng rng(7);
    Tensor w = makeWeights(1, 2, rng);
    PatternSet set = designPatternSet({&w}, 12);
    EXPECT_EQ(set.size(), 12);
}

TEST(PatternSet, MiningMatchesMapReference)
{
    // Continuous weights, weights from {-1, 0, 1} (magnitude ties), an
    // all-zero tensor, a non-3x3 tensor and a null entry, at entries 1-9.
    Rng rng(21);
    Tensor normal = makeWeights(24, 16, rng);
    Tensor ternary(Shape{16, 12, 3, 3});
    for (int64_t i = 0; i < ternary.numel(); ++i)
        ternary[i] = static_cast<float>(rng.uniformInt(-1, 1));
    Tensor zeros(Shape{4, 4, 3, 3});
    zeros.fill(0.0f);
    Tensor five(Shape{2, 2, 5, 5});
    five.fillNormal(rng);
    std::vector<const Tensor*> ws = {&normal, &ternary, &zeros, &five, nullptr};
    for (int entries = 1; entries <= 9; ++entries) {
        auto got = minePatternFrequencies(ws, entries);
        auto want = referenceMine(ws, entries);
        ASSERT_EQ(got.size(), want.size()) << "entries=" << entries;
        for (size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].pattern.mask(), want[i].pattern.mask()) << i;
            EXPECT_EQ(got[i].count, want[i].count) << i;
        }
    }
}

TEST(PatternSet, BestForMatchesKeptEnergyArgmax)
{
    // Mined, canonical and all-56 sets; continuous kernels, kernels from
    // {-1, 0, 1} and {-0.5, 0.5} whose patterns tie on kept energy, and
    // the zero kernel (every pattern ties at 0: the first wins).
    Rng rng(22);
    Tensor w = makeWeights(16, 16, rng);
    PatternSet all;
    all.patterns = allNaturalPatterns3x3();
    for (const PatternSet& set : {designPatternSet({&w}, 8), canonicalPatternSet(6),
                                  canonicalPatternSet(16), all}) {
        for (int trial = 0; trial < 600; ++trial) {
            float kernel[9];
            for (auto& v : kernel) {
                if (trial % 3 == 0)
                    v = rng.normal();
                else if (trial % 3 == 1)
                    v = static_cast<float>(rng.uniformInt(-1, 1));
                else
                    v = rng.bernoulli(0.5) ? 0.5f : -0.5f;
            }
            if (trial == 0)
                std::fill(kernel, kernel + 9, 0.0f);
            ASSERT_EQ(set.bestFor(kernel), referenceBestFor(set, kernel))
                << "set size " << set.size() << " trial " << trial;
        }
    }
}

TEST(PatternSetDeath, EmptySetRejected)
{
    PatternSet set;
    float kernel[9] = {0};
    EXPECT_DEATH(set.bestFor(kernel), "empty pattern set");
}

}  // namespace
}  // namespace patdnn
