/**
 * @file
 * Property suite for the int8 quantization front-end (prune/quant.h):
 * round-trip error bounds, exact-zero preservation, saturation pins,
 * scale-override semantics, and calibration determinism — driven over
 * 1000+ randomized per-channel tensors rather than a handful of
 * hand-picked cases, since the quantizer sits under every i8 layer.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "prune/quant.h"
#include "util/rng.h"

namespace patdnn {
namespace {

// ---------------------------------------------------------------------------
// quantizeValue / symmetricScaleFor pins
// ---------------------------------------------------------------------------

TEST(Quant, ScaleForZeroRangeIsOne)
{
    EXPECT_EQ(symmetricScaleFor(0.0f), 1.0f);
    EXPECT_FLOAT_EQ(symmetricScaleFor(127.0f), 1.0f);
    EXPECT_FLOAT_EQ(symmetricScaleFor(1.0f), 1.0f / 127.0f);
}

TEST(Quant, QuantizeValuePins)
{
    // scale = 1 → inv_scale = 1: the mapping is plain round+clamp.
    EXPECT_EQ(quantizeValue(0.0f, 1.0f), 0);
    EXPECT_EQ(quantizeValue(1.0f, 1.0f), 1);
    EXPECT_EQ(quantizeValue(-1.0f, 1.0f), -1);
    // Ties round away from zero, symmetric in sign.
    EXPECT_EQ(quantizeValue(0.5f, 1.0f), 1);
    EXPECT_EQ(quantizeValue(-0.5f, 1.0f), -1);
    EXPECT_EQ(quantizeValue(1.5f, 1.0f), 2);
    EXPECT_EQ(quantizeValue(-1.5f, 1.0f), -2);
    // Saturation pins: the symmetric range never produces -128.
    EXPECT_EQ(quantizeValue(127.0f, 1.0f), 127);
    EXPECT_EQ(quantizeValue(1000.0f, 1.0f), 127);
    EXPECT_EQ(quantizeValue(-127.0f, 1.0f), -127);
    EXPECT_EQ(quantizeValue(-1000.0f, 1.0f), -127);
    EXPECT_EQ(quantizeValue(-128.0f, 1.0f), -127);
}

TEST(Quant, QuantizeValueNeverProducesMinus128)
{
    Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
        float v = (rng.uniform() * 2.0f - 1.0f) * 300.0f;
        int8_t q = quantizeValue(v, 1.0f);
        EXPECT_GE(q, -127);
        EXPECT_LE(q, 127);
    }
}

// ---------------------------------------------------------------------------
// Per-channel weight quantization properties (randomized)
// ---------------------------------------------------------------------------

/** One randomized round-trip check; returns the tensor's channel count
 * so the caller can keep a running tally of checked channels. */
void
checkRoundTrip(Rng& rng, int64_t cout, int64_t celems, float amplitude)
{
    Tensor w(Shape{cout, celems});
    w.fillUniform(rng, -amplitude, amplitude);
    float* wd = w.data();
    // Plant exact zeros (the pattern-pruned positions) in every channel.
    for (int64_t c = 0; c < cout; ++c)
        wd[c * celems + static_cast<int64_t>(rng.uniform() *
                                             static_cast<float>(celems)) %
                            celems] = 0.0f;

    QuantizedWeights q = quantizeWeightsPerChannel(w);
    ASSERT_EQ(q.scales.size(), static_cast<size_t>(cout));
    ASSERT_EQ(q.data.size(), static_cast<size_t>(w.numel()));
    ASSERT_EQ(q.channel_elems, celems);

    Tensor back = dequantizeWeights(q, w.shape());
    const float* bd = back.data();
    for (int64_t c = 0; c < cout; ++c) {
        float absmax = 0.0f;
        for (int64_t i = 0; i < celems; ++i)
            absmax = std::max(absmax, std::fabs(wd[c * celems + i]));
        float scale = q.scales[c];
        EXPECT_FLOAT_EQ(scale, symmetricScaleFor(absmax));
        for (int64_t i = 0; i < celems; ++i) {
            int64_t at = c * celems + i;
            // Round-trip error of an in-range value is at most scale/2
            // (round-to-nearest at step `scale`); the relative slack
            // covers the f32 rounding of q * scale itself.
            EXPECT_LE(std::fabs(bd[at] - wd[at]), scale * 0.5f * (1.0f + 1e-5f))
                << "channel " << c << " elem " << i;
            // Exact zero must survive exactly (sparsity preservation).
            if (wd[at] == 0.0f) {
                EXPECT_EQ(bd[at], 0.0f);
            }
            // The channel absmax maps to ±127 (full range used).
            if (std::fabs(wd[at]) == absmax && absmax > 0.0f) {
                EXPECT_EQ(std::abs(static_cast<int>(q.data[at])), 127);
            }
        }
    }
}

TEST(Quant, RoundTripPropertyOverThousandTensors)
{
    Rng rng(42);
    // 1040 randomized tensors across shapes and amplitudes, including
    // tiny (1-elem channels) and denormal-ish amplitude extremes.
    const int64_t couts[] = {1, 2, 3, 8, 16};
    const int64_t elems[] = {1, 3, 9, 27, 64};
    const float amps[] = {1e-4f, 0.1f, 1.0f, 100.0f};
    int tensors = 0;
    for (int rep = 0; rep < 13; ++rep)
        for (int64_t cout : couts)
            for (int64_t ce : elems)
                for (float amp : amps) {
                    checkRoundTrip(rng, cout, ce, amp);
                    ++tensors;
                }
    EXPECT_GE(tensors, 1000);
}

TEST(Quant, AllZeroChannelQuantizesToZerosWithScaleOne)
{
    Tensor w(Shape{2, 5});
    float* wd = w.data();
    for (int i = 0; i < 5; ++i)
        wd[i] = 0.0f;               // Channel 0: all zero.
    for (int i = 5; i < 10; ++i)
        wd[i] = static_cast<float>(i);  // Channel 1: nonzero.
    QuantizedWeights q = quantizeWeightsPerChannel(w);
    EXPECT_EQ(q.scales[0], 1.0f);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.data[static_cast<size_t>(i)], 0);
    Tensor back = dequantizeWeights(q, w.shape());
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(back.data()[i], 0.0f);
}

TEST(Quant, ScaleOverrideIsAuthoritative)
{
    Rng rng(9);
    Tensor w(Shape{3, 16});
    w.fillUniform(rng, -2.0f, 2.0f);
    std::vector<float> forced = {0.5f, 0.25f, 1.0f};
    QuantizedWeights q = quantizeWeightsPerChannel(w, forced);
    EXPECT_EQ(q.scales, forced);
    // Re-quantizing with the derived scales of a restored tensor must
    // reproduce the same bytes: this is the artifact-restore contract.
    QuantizedWeights q2 = quantizeWeightsPerChannel(w, q.scales);
    EXPECT_EQ(q.data, q2.data);
}

TEST(Quant, QuantizationIsDeterministic)
{
    Rng rng(11);
    Tensor w(Shape{4, 32});
    w.fillUniform(rng, -1.0f, 1.0f);
    QuantizedWeights a = quantizeWeightsPerChannel(w);
    QuantizedWeights b = quantizeWeightsPerChannel(w);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.scales, b.scales);
}

// ---------------------------------------------------------------------------
// Activation calibration
// ---------------------------------------------------------------------------

TEST(Quant, CalibratorAbsMaxMatchesTrueMax)
{
    Rng rng(3);
    std::vector<float> xs(4096);
    float truth = 0.0f;
    for (float& x : xs) {
        x = (rng.uniform() * 2.0f - 1.0f) * 5.0f;
        truth = std::max(truth, std::fabs(x));
    }
    ActivationCalibrator cal(CalibrationMethod::kAbsMax);
    cal.observe(xs.data(), static_cast<int64_t>(xs.size()));
    EXPECT_FLOAT_EQ(cal.effectiveAbsMax(), truth);
    EXPECT_FLOAT_EQ(cal.scale(), symmetricScaleFor(truth));
    EXPECT_EQ(cal.observedCount(), static_cast<int64_t>(xs.size()));
}

TEST(Quant, CalibratorScaleBeforeDataIsOne)
{
    ActivationCalibrator a(CalibrationMethod::kAbsMax);
    ActivationCalibrator p(CalibrationMethod::kPercentile, 99.0);
    EXPECT_EQ(a.scale(), 1.0f);
    EXPECT_EQ(p.scale(), 1.0f);
}

TEST(Quant, CalibratorPercentileClipsOutliers)
{
    // 10k small values plus a handful of huge outliers: the 99th
    // percentile scale must sit near the bulk, far below the outlier.
    Rng rng(5);
    ActivationCalibrator p(CalibrationMethod::kPercentile, 99.0);
    ActivationCalibrator a(CalibrationMethod::kAbsMax);
    std::vector<float> xs;
    for (int i = 0; i < 10000; ++i)
        xs.push_back((rng.uniform() * 2.0f - 1.0f) * 1.0f);
    for (int i = 0; i < 5; ++i)
        xs.push_back(1000.0f);
    p.observe(xs.data(), static_cast<int64_t>(xs.size()));
    a.observe(xs.data(), static_cast<int64_t>(xs.size()));
    EXPECT_FLOAT_EQ(a.effectiveAbsMax(), 1000.0f);
    EXPECT_LT(p.effectiveAbsMax(), 10.0f);
    EXPECT_GE(p.effectiveAbsMax(), 0.9f);  // Still covers the bulk.
}

TEST(Quant, CalibratorPercentile100TracksMax)
{
    // percentile == 100 keeps every observation inside the range, so
    // the effective absmax is within one histogram bin of the true max.
    Rng rng(6);
    ActivationCalibrator p(CalibrationMethod::kPercentile, 100.0);
    float truth = 0.0f;
    std::vector<float> xs(8192);
    for (float& x : xs) {
        x = (rng.uniform() * 2.0f - 1.0f) * 3.0f;
        truth = std::max(truth, std::fabs(x));
    }
    p.observe(xs.data(), static_cast<int64_t>(xs.size()));
    EXPECT_GE(p.effectiveAbsMax(), truth);
    EXPECT_LE(p.effectiveAbsMax(), truth * 1.01f + 0.01f);
}

TEST(Quant, CalibratorIsDeterministicAcrossChunking)
{
    // The scale must be a pure function of the observed stream, not of
    // how the stream was split into observe() calls.
    Rng rng(8);
    std::vector<float> xs(10000);
    for (float& x : xs)
        x = (rng.uniform() * 2.0f - 1.0f) * 7.0f;
    for (CalibrationMethod m :
         {CalibrationMethod::kAbsMax, CalibrationMethod::kPercentile}) {
        ActivationCalibrator one(m, 99.9);
        one.observe(xs.data(), static_cast<int64_t>(xs.size()));
        ActivationCalibrator chunked(m, 99.9);
        int64_t pos = 0;
        for (int64_t sz : {1, 7, 100, 1000, 8892}) {
            chunked.observe(xs.data() + pos, sz);
            pos += sz;
        }
        ASSERT_EQ(pos, static_cast<int64_t>(xs.size()));
        EXPECT_EQ(one.scale(), chunked.scale()) << calibrationMethodName(m);
        EXPECT_EQ(one.effectiveAbsMax(), chunked.effectiveAbsMax());
    }
}

TEST(Quant, CalibratorPercentileDropsNonFinite)
{
    ActivationCalibrator p(CalibrationMethod::kPercentile, 99.0);
    std::vector<float> xs(1000, 0.5f);
    xs[10] = std::numeric_limits<float>::infinity();
    xs[20] = std::numeric_limits<float>::quiet_NaN();
    p.observe(xs.data(), static_cast<int64_t>(xs.size()));
    EXPECT_TRUE(std::isfinite(p.scale()));
    EXPECT_LT(p.effectiveAbsMax(), 1.0f);
}

TEST(Quant, CalibrationMethodNames)
{
    EXPECT_STREQ(calibrationMethodName(CalibrationMethod::kAbsMax), "absmax");
    EXPECT_STREQ(calibrationMethodName(CalibrationMethod::kPercentile),
                 "percentile");
}

}  // namespace
}  // namespace patdnn
