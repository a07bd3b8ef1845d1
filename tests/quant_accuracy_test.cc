/**
 * @file
 * Differential accuracy harness for the int8 path: the quantized model
 * is a *different numerics* for the same function, so the gate is
 * Table-3-style top-1 agreement against the f32 compile of the same
 * zoo model over a sampled input batch — not bitwise equality. Also
 * pins that quantization actually engages (layers flip to i8), that
 * the quantized compile is deterministic, and that the RunProfile
 * attributes precision per layer.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/patdnn.h"
#include "nn/zoo.h"

namespace patdnn {
namespace {

/** Per-sample argmax over a [batch, classes] logit tensor. */
std::vector<int64_t>
topOne(const Tensor& logits)
{
    const Shape& s = logits.shape();
    EXPECT_EQ(s.rank(), 2);
    std::vector<int64_t> out(static_cast<size_t>(s.dim(0)));
    const float* d = logits.data();
    for (int64_t b = 0; b < s.dim(0); ++b) {
        int64_t best = 0;
        for (int64_t c = 1; c < s.dim(1); ++c)
            if (d[b * s.dim(1) + c] > d[b * s.dim(1) + best])
                best = c;
        out[static_cast<size_t>(b)] = best;
    }
    return out;
}

int64_t
countQuantizedLayers(const CompiledModel& m)
{
    int64_t n = 0;
    for (const CompiledLayerState& st : m.exportState())
        if (st.live && st.quantized)
            ++n;
    return n;
}

TEST(QuantAccuracy, VggTopOneAgreementAtLeast99Percent)
{
    // VGG-16 on CIFAR-10 geometry: all 13 convs are groups==1 dense
    // layers, so the whole conv stack runs quantized. 100 samples make
    // the >= 99% gate allow exactly one argmax flip.
    Model m = buildVGG16(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompileOptions f32_opts;
    CompiledModel f32(m, FrameworkKind::kPatDnnDense, dev, f32_opts);

    CompileOptions i8_opts;
    i8_opts.precision = Precision::kInt8;
    CompiledModel i8(m, FrameworkKind::kPatDnnDense, dev, i8_opts);
    EXPECT_EQ(countQuantizedLayers(f32), 0);
    EXPECT_EQ(countQuantizedLayers(i8), 13)
        << "every VGG conv layer should run quantized";

    const int64_t samples = 100;
    Tensor in(Shape{samples, 3, 32, 32});
    Rng rng(2024);
    in.fillUniform(rng, 0.0f, 1.0f);

    std::vector<int64_t> want = topOne(f32.run(in));
    std::vector<int64_t> got = topOne(i8.run(in));
    ASSERT_EQ(want.size(), static_cast<size_t>(samples));
    int64_t agree = 0;
    for (size_t i = 0; i < want.size(); ++i)
        agree += want[i] == got[i] ? 1 : 0;
    EXPECT_GE(agree, 99)
        << "top-1 agreement " << agree << "/" << samples
        << " fell below the 99% accuracy-delta gate";
}

TEST(QuantAccuracy, QuantizedCompileAndRunAreDeterministic)
{
    Model m = buildVGG16(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    CompiledModel a(m, FrameworkKind::kPatDnnDense, dev, opts);
    CompiledModel b(m, FrameworkKind::kPatDnnDense, dev, opts);

    Tensor in(Shape{2, 3, 32, 32});
    Rng rng(7);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor ya = a.run(in);
    Tensor yb = b.run(in);
    ASSERT_EQ(ya.shape(), yb.shape());
    EXPECT_EQ(std::memcmp(ya.data(), yb.data(),
                          static_cast<size_t>(ya.numel()) * sizeof(float)),
              0)
        << "two identical int8 compiles must run bit-identically "
           "(calibration and quantization are deterministic)";

    // The calibrated scales themselves must match layer for layer.
    std::vector<CompiledLayerState> sa = a.exportState();
    std::vector<CompiledLayerState> sb = b.exportState();
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].quantized, sb[i].quantized);
        EXPECT_EQ(sa[i].act_scale, sb[i].act_scale);
        EXPECT_EQ(sa[i].weight_scales, sb[i].weight_scales);
    }
}

TEST(QuantAccuracy, PercentileCalibrationAlsoClearsTheGate)
{
    Model m = buildVGG16(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel f32(m, FrameworkKind::kPatDnnDense, dev);

    CompileOptions opts;
    opts.precision = Precision::kInt8;
    opts.calibration.method = CalibrationMethod::kPercentile;
    opts.calibration.percentile = 99.9;
    CompiledModel i8(m, FrameworkKind::kPatDnnDense, dev, opts);
    ASSERT_GT(countQuantizedLayers(i8), 0);

    const int64_t samples = 50;
    Tensor in(Shape{samples, 3, 32, 32});
    Rng rng(11);
    in.fillUniform(rng, 0.0f, 1.0f);
    std::vector<int64_t> want = topOne(f32.run(in));
    std::vector<int64_t> got = topOne(i8.run(in));
    int64_t agree = 0;
    for (size_t i = 0; i < want.size(); ++i)
        agree += want[i] == got[i] ? 1 : 0;
    EXPECT_GE(agree, (samples * 98) / 100);
}

TEST(QuantAccuracy, SparseKindsIgnoreThePrecisionKnob)
{
    // Pattern-pruned FKW layers have no i8 engine; asking for int8 on a
    // sparse kind must be a no-op, not an error or a silent wrong path.
    Model m = buildVGG16(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev, opts);
    EXPECT_EQ(countQuantizedLayers(sparse), 0);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(5);
    in.fillUniform(rng, 0.0f, 1.0f);
    EXPECT_EQ(sparse.run(in).shape(), Shape({1, 10}));
}

TEST(QuantAccuracy, RunProfileAttributesPrecisionPerLayer)
{
    Model m = buildVGG16(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(2);
    CompileOptions opts;
    opts.precision = Precision::kInt8;
    CompiledModel i8(m, FrameworkKind::kPatDnnDense, dev, opts);

    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(9);
    in.fillUniform(rng, 0.0f, 1.0f);
    Workspace ws(i8.memoryPlan());
    RunProfile profile;
    i8.run(in, ws, &profile);

    int64_t i8_layers = 0, f32_layers = 0;
    for (const RunProfileEntry& e : profile.entries) {
        if (e.calls == 0)
            continue;
        if (e.prec == "i8")
            ++i8_layers;
        else if (e.prec == "f32")
            ++f32_layers;
    }
    EXPECT_EQ(i8_layers, 13) << "all conv layers attribute as i8";
    EXPECT_GT(f32_layers, 0) << "fc/pool layers stay f32";
    EXPECT_NE(profile.renderTable().find("i8"), std::string::npos);
}

}  // namespace
}  // namespace patdnn
