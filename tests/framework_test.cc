/** @file End-to-end framework facade tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "rt/framework.h"

namespace patdnn {
namespace {

Model
tinyModel()
{
    // A small VGG-flavored model that runs in milliseconds.
    Model m("tiny-vgg", "test");
    auto add_conv = [&](const std::string& name, int64_t cin, int64_t cout,
                        int64_t res) {
        Layer conv;
        conv.kind = OpKind::kConv;
        conv.name = name;
        conv.conv = ConvDesc{name, cin, cout, 3, 3, res, res, 1, 1, 1, 1};
        m.addLayer(std::move(conv));
        Layer relu;
        relu.kind = OpKind::kReLU;
        relu.name = name + "_relu";
        m.addLayer(std::move(relu));
    };
    add_conv("c1", 3, 16, 16);
    add_conv("c2", 16, 16, 16);
    Layer pool;
    pool.kind = OpKind::kMaxPool;
    pool.name = "p1";
    m.addLayer(std::move(pool));
    add_conv("c3", 16, 32, 8);
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 32 * 8 * 8;
    fc.out_features = 10;
    m.addLayer(std::move(fc));
    m.randomizeWeights(77);
    return m;
}

TEST(Framework, DenseEnginesAgree)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(4);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(1);
    in.fillUniform(rng, 0.0f, 1.0f);
    CompiledModel tflite(m, FrameworkKind::kTfliteLike, dev);
    CompiledModel tvm(m, FrameworkKind::kTvmLike, dev);
    CompiledModel ours(m, FrameworkKind::kPatDnnDense, dev);
    Tensor y0 = tflite.run(in);
    Tensor y1 = tvm.run(in);
    Tensor y2 = ours.run(in);
    EXPECT_LT(Tensor::maxAbsDiff(y0, y1), 1e-2);
    EXPECT_LT(Tensor::maxAbsDiff(y0, y2), 1e-2);
}

TEST(Framework, SparseEnginesAgreeWithEachOther)
{
    // CSR-sparse and PatDNN prune with identical options, so their
    // outputs must match exactly (same surviving weights).
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(4);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(2);
    in.fillUniform(rng, 0.0f, 1.0f);
    CompileOptions opts;
    CompiledModel csr(m, FrameworkKind::kCsrSparse, dev, opts);
    CompiledModel pat(m, FrameworkKind::kPatDnn, dev, opts);
    Tensor a = csr.run(in);
    Tensor b = pat.run(in);
    EXPECT_LT(Tensor::maxAbsDiff(a, b), 1e-3);
}

TEST(Framework, SparseKindsActuallyPrune)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(2);
    CompiledModel dense(m, FrameworkKind::kPatDnnDense, dev);
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev);
    EXPECT_EQ(dense.convNonZeros(), dense.convDense());
    EXPECT_LT(sparse.convNonZeros(), dense.convDense() / 3);
}

TEST(Framework, GpuDeviceRuns)
{
    Model m = tinyModel();
    DeviceSpec dev = makeGpuDevice();
    CompiledModel pat(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(3);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = pat.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
}

TEST(Framework, ResidualModelRunsEndToEnd)
{
    Model m = buildResNet50(Dataset::kCifar10);
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel dense(m, FrameworkKind::kPatDnnDense, dev);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(4);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = dense.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
}

/**
 * Exported conv state with every FKW expanded to its dense weights, so
 * any dense engine can rebuild the same layers.
 */
std::vector<CompiledLayerState>
denseState(const CompiledModel& model)
{
    std::vector<CompiledLayerState> states = model.exportState();
    for (CompiledLayerState& st : states) {
        if (st.live && st.fkw) {
            st.weight = fkwToDense(*st.fkw);
            st.fkw.reset();
        }
    }
    return states;
}

/** Max |a - b| over max |b|. */
double
relativeDiff(const Tensor& a, const Tensor& b)
{
    double scale = 0.0;
    for (int64_t i = 0; i < b.numel(); ++i)
        scale = std::max(scale, static_cast<double>(std::fabs(b[i])));
    return Tensor::maxAbsDiff(a, b) / std::max(scale, 1e-30);
}

/**
 * A kPatDnn compile of a zoo model whose non-3x3 convs carry no kernel
 * pattern: every conv must keep a nonzero weight, the output must be
 * nonzero, and a dense kTvmLike rebuild of the exported state must
 * agree.
 */
void
expectPatDnnModelComputes(const Model& m)
{
    DeviceSpec dev = makeCpuDevice(4);
    CompiledModel sparse(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 32, 32});
    Rng rng(5);
    in.fillUniform(rng, 0.0f, 1.0f);
    Tensor y = sparse.run(in);
    EXPECT_EQ(y.shape(), Shape({1, 10}));
    EXPECT_GT(y.countNonZero(), 0);

    std::vector<CompiledLayerState> states = denseState(sparse);
    for (const CompiledLayerState& st : states) {
        if (st.live && st.kind == OpKind::kConv) {
            EXPECT_GT(st.weight.countNonZero(), 0) << st.conv.name;
        }
    }
    CompiledModel dense(FrameworkKind::kTvmLike, dev, std::move(states),
                        sparse.outputNode());
    EXPECT_LT(relativeDiff(dense.run(in), y), 1e-4);
}

TEST(Framework, DepthwiseModelRunsEndToEnd)
{
    expectPatDnnModelComputes(buildMobileNetV2(Dataset::kCifar10));
}

TEST(Framework, ResidualPatDnnModelComputes)
{
    expectPatDnnModelComputes(buildResNet50(Dataset::kCifar10));
}

TEST(Framework, TimingReturnsPositiveMs)
{
    Model m = tinyModel();
    DeviceSpec dev = makeCpuDevice(2);
    CompiledModel eng(m, FrameworkKind::kPatDnn, dev);
    Tensor in(Shape{1, 3, 16, 16});
    Rng rng(6);
    in.fillUniform(rng, 0.0f, 1.0f);
    EXPECT_GT(eng.convOnlyTimeMs(in, 1, 2), 0.0);
}

TEST(FrameworkNames, AllDistinct)
{
    std::vector<FrameworkKind> kinds = {
        FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
        FrameworkKind::kPatDnnDense, FrameworkKind::kCsrSparse,
        FrameworkKind::kPatDnn};
    for (size_t i = 0; i < kinds.size(); ++i)
        for (size_t j = i + 1; j < kinds.size(); ++j)
            EXPECT_NE(frameworkName(kinds[i]), frameworkName(kinds[j]));
}

/** One geometry of the selection table: a conv and the engine each
 * FrameworkKind must pick for it, in FrameworkKind order. */
struct SelectionRow
{
    ConvDesc desc;
    const char* engine[5];
};

/** selectConvEngine()'s table, row by row, through a one-conv model:
 * the RunProfile kind column names the engine, and the output matches
 * convReference over the exported (pruned) weights. */
TEST(ConvEngineSelection, EveryKindPicksItsEngine)
{
    const FrameworkKind kinds[5] = {
        FrameworkKind::kTfliteLike,  FrameworkKind::kTvmLike,
        FrameworkKind::kPatDnnDense, FrameworkKind::kCsrSparse,
        FrameworkKind::kPatDnn};
    const SelectionRow rows[] = {
        {{"s1", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1},
         {"naive", "im2col", "winograd", "csr", "pattern"}},
        {{"s2", 16, 32, 3, 3, 14, 14, 2, 1, 1, 1},
         {"naive", "im2col", "im2col", "csr", "pattern"}},
        {{"pw", 16, 32, 1, 1, 14, 14, 1, 0, 1, 1},
         {"naive", "im2col", "im2col", "csr", "im2col"}},
        {{"dw", 16, 16, 3, 3, 14, 14, 1, 1, 1, 16},
         {"naive", "naive", "naive", "naive", "naive"}},
    };
    DeviceSpec dev = makeCpuDevice(2);
    for (const SelectionRow& row : rows) {
        const ConvDesc& d = row.desc;
        Tensor in(Shape{1, d.cin, d.h, d.w});
        Rng rng(8);
        in.fillUniform(rng, -1.0f, 1.0f);
        for (int k = 0; k < 5; ++k) {
            SCOPED_TRACE(d.name + " " + frameworkName(kinds[k]));
            CompiledModel model(singleConvModel(d, 5), kinds[k], dev);
            Workspace ws(model.memoryPlan());
            RunProfile prof;
            Tensor got = model.run(in, ws, &prof);
            const RunProfileEntry& e =
                prof.entries[static_cast<size_t>(model.outputNode())];
            EXPECT_EQ(e.kind, row.engine[k]);

            std::vector<CompiledLayerState> states = denseState(model);
            const CompiledLayerState& st =
                states[static_cast<size_t>(model.outputNode())];
            Tensor want = makeConvOutput(d, 1);
            Epilogue ep;
            ep.bias = &st.bias;
            convReference(d, st.weight, in, want, ep);
            double tol = e.kind == "winograd" ? 2e-3 : 1e-3;
            EXPECT_LT(Tensor::maxAbsDiff(got, want), tol);
        }
    }
}

TEST(ConvEngineSelection, SparseHasFewerEffectiveMacs)
{
    ConvDesc d{"L", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    DeviceSpec dev = makeCpuDevice(2);
    CompileOptions opts;
    opts.first_layer_rate = opts.connectivity_rate;
    CompiledModel dense(singleConvModel(d, 5), FrameworkKind::kPatDnnDense, dev);
    CompiledModel sparse(singleConvModel(d, 5), FrameworkKind::kPatDnn, dev, opts);
    // Effective MACs are nonzero weights times output pixels; the
    // pixel count is shared, so the weight counts carry the claim.
    EXPECT_EQ(dense.convNonZeros(), d.weightCount());
    EXPECT_LT(sparse.convNonZeros(), dense.convNonZeros() / 3);
}

TEST(ConvEngineSelection, PatternRowBytesCountFkwWeights)
{
    // A pattern row's bytes are what its engine touches: the input, the
    // output and the FKW weights, never a dense weight view.
    ConvDesc d{"L", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    CompiledModel model(singleConvModel(d, 5), FrameworkKind::kPatDnn, makeCpuDevice(2));
    const size_t out_id = static_cast<size_t>(model.outputNode());
    std::vector<CompiledLayerState> states = model.exportState();
    ASSERT_TRUE(states[out_id].fkw);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    Workspace ws(model.memoryPlan());
    RunProfile prof;
    Tensor out = model.run(in, ws, &prof);
    const RunProfileEntry& e = prof.entries[out_id];
    EXPECT_EQ(e.kind, "pattern");
    const int64_t fkw_weights = static_cast<int64_t>(states[out_id].fkw->weights.size());
    EXPECT_EQ(e.bytes, 4 * (in.numel() + out.numel() + fkw_weights));
}

/** DeviceSpec::pool() is one pool per width for the whole process:
 * devices made separately share it, and so does every engine compiled
 * for them; concurrent runs on two models still compute the reference
 * convolution. */
TEST(DevicePool, OnePoolPerWidth)
{
    DeviceSpec a = makeFixedWidthCpuDevice(3);
    DeviceSpec b = makeFixedWidthCpuDevice(3);
    EXPECT_EQ(&a.pool(), &b.pool());
    EXPECT_EQ(a.pool().numThreads(), 3);
    EXPECT_NE(&a.pool(), &makeFixedWidthCpuDevice(2).pool());

    ConvDesc d{"L", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    const CompiledModel pat(singleConvModel(d, 5), FrameworkKind::kPatDnn, a);
    const CompiledModel dense(singleConvModel(d, 5), FrameworkKind::kPatDnnDense, b);
    EXPECT_EQ(&pat.device().pool(), &a.pool());
    EXPECT_EQ(&dense.device().pool(), &a.pool());

    Tensor in(Shape{1, d.cin, d.h, d.w});
    Rng rng(12);
    in.fillUniform(rng, -1.0f, 1.0f);
    std::vector<Tensor> want;
    for (const CompiledModel* m : {&pat, &dense}) {
        std::vector<CompiledLayerState> states = denseState(*m);
        const CompiledLayerState& st = states[static_cast<size_t>(m->outputNode())];
        want.push_back(makeConvOutput(d, 1));
        Epilogue ep;
        ep.bias = &st.bias;
        convReference(d, st.weight, in, want.back(), ep);
    }
    // Two callers per model, all forking on the one 3-wide pool.
    std::vector<double> worst(4, 0.0);
    std::vector<std::thread> callers;
    for (size_t c = 0; c < worst.size(); ++c)
        callers.emplace_back([&, c] {
            const CompiledModel& m = c % 2 == 0 ? pat : dense;
            for (int i = 0; i < 10; ++i)
                worst[c] = std::max(worst[c], Tensor::maxAbsDiff(m.run(in), want[c % 2]));
        });
    for (std::thread& t : callers)
        t.join();
    for (size_t c = 0; c < worst.size(); ++c)
        EXPECT_LT(worst[c], 2e-3) << "caller " << c;
}

}  // namespace
}  // namespace patdnn
