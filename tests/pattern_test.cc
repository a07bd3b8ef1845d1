/** @file Pattern representation tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "prune/pattern.h"
#include "util/rng.h"

namespace patdnn {
namespace {

/** The stable-sort natural pattern: order the non-center positions by
 * descending magnitude (earlier position first on ties), keep the
 * center and the first entries-1. */
Pattern
referenceNaturalPattern(const float* kernel, int64_t kh, int64_t kw, int entries)
{
    int n = static_cast<int>(kh * kw);
    int center = static_cast<int>((kh / 2) * kw + kw / 2);
    std::vector<int> order;
    for (int i = 0; i < n; ++i)
        if (i != center)
            order.push_back(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return std::fabs(kernel[a]) > std::fabs(kernel[b]);
    });
    std::vector<int> kept = {center};
    for (int i = 0; i < entries - 1 && i < static_cast<int>(order.size()); ++i)
        kept.push_back(order[static_cast<size_t>(i)]);
    return Pattern(kh, kw, kept);
}

TEST(Pattern, MaskAndPositionsRoundTrip)
{
    Pattern p(3, 3, std::vector<int>{4, 0, 1, 3});
    EXPECT_EQ(p.popcount(), 4);
    EXPECT_TRUE(p.keeps(1, 1));
    EXPECT_TRUE(p.keeps(0, 0));
    EXPECT_FALSE(p.keeps(2, 2));
    EXPECT_EQ(p.keptBits(), 0b11011u);  // Positions 0, 1, 3, 4.
}

TEST(Pattern, KeepsCenter)
{
    EXPECT_TRUE(Pattern(3, 3, std::vector<int>{4, 0, 1, 2}).keepsCenter());
    EXPECT_FALSE(Pattern(3, 3, std::vector<int>{0, 1, 2, 3}).keepsCenter());
}

TEST(Pattern, KeptEnergy)
{
    float kernel[9] = {1, 0, 0, 0, 2, 0, 0, 0, 3};
    Pattern p(3, 3, std::vector<int>{0, 4});
    EXPECT_DOUBLE_EQ(p.keptEnergy(kernel), 5.0);
}

TEST(Pattern, ApplyZeroesPrunedPositions)
{
    float kernel[9];
    for (int i = 0; i < 9; ++i)
        kernel[i] = static_cast<float>(i + 1);
    Pattern p(3, 3, std::vector<int>{4, 0, 1, 3});
    p.apply(kernel);
    EXPECT_EQ(kernel[0], 1.0f);
    EXPECT_EQ(kernel[4], 5.0f);
    EXPECT_EQ(kernel[2], 0.0f);
    EXPECT_EQ(kernel[8], 0.0f);
}

TEST(Pattern, StrRendering)
{
    Pattern p(3, 3, std::vector<int>{4, 0, 1, 3});
    EXPECT_EQ(p.str(), "xx.\nxx.\n...");
}

TEST(Pattern, FiftySixNaturalPatterns)
{
    auto all = allNaturalPatterns3x3();
    EXPECT_EQ(all.size(), 56u);
    for (const auto& p : all) {
        EXPECT_EQ(p.popcount(), 4);
        EXPECT_TRUE(p.keepsCenter());
    }
    // All distinct.
    for (size_t i = 0; i < all.size(); ++i)
        for (size_t j = i + 1; j < all.size(); ++j)
            EXPECT_FALSE(all[i] == all[j]);
}

TEST(Pattern, NaturalPatternPicksLargestMagnitudes)
{
    float kernel[9] = {0.1f, 9.0f, 0.2f, 8.0f, 0.0f, 0.3f, 7.0f, 0.1f, 0.2f};
    Pattern nat = naturalPatternOf(kernel, 3, 3, 4);
    EXPECT_TRUE(nat.keepsCenter());  // Center always kept even when small.
    EXPECT_TRUE(nat.keeps(0, 1));
    EXPECT_TRUE(nat.keeps(1, 0));
    EXPECT_TRUE(nat.keeps(2, 0));
}

TEST(Pattern, NaturalPatternIsOneOfTheFiftySix)
{
    Rng rng(3);
    auto all = allNaturalPatterns3x3();
    for (int trial = 0; trial < 50; ++trial) {
        float kernel[9];
        for (auto& v : kernel)
            v = rng.normal();
        Pattern nat = naturalPatternOf(kernel, 3, 3, 4);
        bool found = false;
        for (const auto& p : all)
            if (p == nat)
                found = true;
        EXPECT_TRUE(found);
    }
}

TEST(Pattern, NaturalPatternMatchesStableSortReference)
{
    // Entries 1-9 on 3x3 and 1-25 on 5x5, over continuous weights and
    // over weights drawn from {-2..2} so magnitudes tie at every rank
    // (including zeros, signed zeros and all-equal kernels).
    Rng rng(11);
    for (int64_t k : {3, 5}) {
        const int n = static_cast<int>(k * k);
        std::vector<float> kernel(static_cast<size_t>(n));
        for (int trial = 0; trial < 400; ++trial) {
            for (auto& v : kernel) {
                if (trial % 4 == 0)
                    v = rng.normal();
                else if (trial % 4 == 3)
                    v = trial % 8 == 3 ? 1.5f : -0.0f;
                else
                    v = static_cast<float>(rng.uniformInt(-2, 2));
            }
            for (int entries = 1; entries <= n; ++entries) {
                Pattern got = naturalPatternOf(kernel.data(), k, k, entries);
                Pattern want = referenceNaturalPattern(kernel.data(), k, k, entries);
                ASSERT_EQ(got.mask(), want.mask())
                    << "k=" << k << " entries=" << entries << " trial=" << trial;
                EXPECT_EQ(got.popcount(), entries);
            }
        }
    }
}

TEST(Pattern, KeptBitsAreTheMaskInsideTheWindow)
{
    // Stray mask bits past the kh x kw window are not kept positions.
    Rng rng(12);
    for (int trial = 0; trial < 200; ++trial) {
        auto mask = static_cast<uint32_t>(rng.uniformInt(0, 4095));
        EXPECT_EQ(Pattern(3, 3, mask).keptBits(), mask & 0x1FFu);
    }
    EXPECT_EQ(Pattern(1, 1, 3u).keptBits(), 1u);
    EXPECT_EQ(Pattern(4, 8, ~0u).keptBits(), ~0u);
}

TEST(PatternDeath, OversizedMaskRejected)
{
    EXPECT_DEATH(Pattern(7, 7, 0u), "32 positions");
}

}  // namespace
}  // namespace patdnn
