/** @file Public API (core/patdnn.h) end-to-end pipeline tests. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/patdnn.h"

namespace patdnn {
namespace {

/** Options that prune a lone conv like the inner layer it stands for. */
CompileOptions
innerLayerOptions()
{
    CompileOptions opts;
    opts.first_layer_rate = opts.connectivity_rate;
    return opts;
}

bool
sameTuning(const TuneParams& a, const TuneParams& b)
{
    return a.permute == b.permute && a.tile_oh == b.tile_oh && a.gemm_kc == b.gemm_kc &&
           a.gemm_nc == b.gemm_nc;
}

TEST(Api, CompressThenCompileThenExecute)
{
    // Stage 1: train + compress a small net.
    SyntheticShapes data(4, 12, 1, 96, 48, 55);
    Net net = buildVggStyleNet(4, 12, 1, 8, 31);
    TrainConfig tc;
    tc.epochs = 4;
    tc.batch_size = 16;
    tc.lr = 2e-3f;
    trainNet(net, data, tc);

    AdmmConfig admm;
    admm.admm_iterations = 1;
    admm.epochs_per_iteration = 1;
    admm.retrain_epochs = 1;
    DeviceSpec dev = makeCpuDevice(4);
    Compiler compiler(dev, innerLayerOptions());
    Result<CompressResult> comp = compiler.compress(net, data, admm);
    ASSERT_TRUE(comp.ok()) << comp.status().toString();
    EXPECT_EQ(comp.value().pattern_set.size(), 8);
    EXPECT_GT(comp.value().admm.conv_compression, 4.0);

    // Stage 2: compile the second conv layer as a one-conv model.
    auto convs = net.convLayers();
    const ConvDesc& d = convs[1]->desc();
    auto compiled = compiler.compile(singleConvModel(d, convs[1]->weight()));
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    std::vector<CompiledLayerState> state = compiled.value()->exportState();
    ASSERT_TRUE(state[0].fkw);
    Status valid = validateFkw(*state[0].fkw);
    EXPECT_TRUE(valid.ok()) << valid.toString();

    // Stage 3: execute and compare against the reference conv on the
    // same (pruned) weights.
    Tensor pruned = fkwToDense(*state[0].fkw);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    Rng rng(3);
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor expect = makeConvOutput(d, 1);
    convReference(d, pruned, in, expect);
    Tensor got = compiled.value()->run(in);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3);
}

TEST(Api, TuneLayerThenCompile)
{
    TuneCache::instance().clear();
    ConvDesc d{"t", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    Compiler compiler(makeCpuDevice(2), innerLayerOptions());
    auto tuned = compiler.tuneLayer(d, FrameworkKind::kPatDnn);
    ASSERT_TRUE(tuned.ok()) << tuned.status().toString();
    // The tuned parameters must be one of the candidates the layer's
    // pattern engine lists, and the compiled pattern layer must carry
    // them.
    CompiledModel base(singleConvModel(d, 5), FrameworkKind::kPatDnn, compiler.device(),
                       innerLayerOptions());
    std::vector<TuneParams> candidates =
        base.tuneCandidates(static_cast<size_t>(base.outputNode()));
    EXPECT_EQ(candidates.size(), 6u);  // Tiles 4, 8 and the whole 12-row plane.
    EXPECT_TRUE(std::any_of(candidates.begin(), candidates.end(), [&](const TuneParams& t) {
        return sameTuning(t, tuned.value());
    }));
    auto model = compiler.compile(singleConvModel(d, 3));
    ASSERT_TRUE(model.ok()) << model.status().toString();
    std::vector<CompiledLayerState> state = model.value()->exportState();
    ASSERT_TRUE(state[0].fkw);
    EXPECT_TRUE(sameTuning(state[0].tuning, tuned.value()));
    TuneCache::instance().clear();
}

/** Engines that read no tuning (naive, CSR) get the options' default
 * tuning back, untimed, and it is cached like a searched one. */
TEST(Compiler, UntunableEnginesKeepTheDefaultTuning)
{
    TuneCache::instance().clear();
    ConvDesc d{"plain", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    CompileOptions opts;
    opts.default_tuning.tile_oh = 7;
    opts.default_tuning.gemm_kc = 48;
    Compiler compiler(makeFixedWidthCpuDevice(2), opts);
    for (FrameworkKind kind : {FrameworkKind::kTfliteLike, FrameworkKind::kCsrSparse}) {
        auto tuned = compiler.tuneLayer(d, kind);
        ASSERT_TRUE(tuned.ok()) << tuned.status().toString();
        EXPECT_TRUE(sameTuning(tuned.value(), opts.default_tuning)) << frameworkName(kind);
        TuneParams cached;
        EXPECT_TRUE(TuneCache::instance().lookup(d, compiler.device(), kind,
                                                 kind == FrameworkKind::kCsrSparse
                                                     ? opts.connectivity_rate
                                                     : 0.0,
                                                 &cached));
        EXPECT_TRUE(sameTuning(cached, opts.default_tuning)) << frameworkName(kind);
    }
    EXPECT_EQ(TuneCache::instance().size(), 2u);
    TuneCache::instance().clear();
}

TEST(Compiler, TypedErrorsInsteadOfAborts)
{
    DeviceSpec dev = makeCpuDevice(2);
    Compiler compiler(dev);
    Rng rng(5);
    ConvDesc d{"ok", 6, 8, 3, 3, 10, 10, 1, 1, 1, 1};
    Tensor good(Shape{d.cout, d.cin, 3, 3});
    good.fillNormal(rng);
    auto expectInvalid = [&](const Model& m, FrameworkKind kind) {
        auto r = compiler.compile(m, kind);
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
    };

    // Malformed descriptor: zero input channels (set after addLayer,
    // which aborts on it).
    Model bad_desc = singleConvModel(d, good);
    bad_desc.layers()[0].conv.cin = 0;
    expectInvalid(bad_desc, FrameworkKind::kPatDnn);

    // Weight tensors that do not match the descriptor, on a sparse and
    // a dense kind: a 5x5 weight, and a 1x1 weight under a 3x3 layer
    // that would otherwise be read past its end.
    expectInvalid(singleConvModel(d, Tensor(Shape{8, 6, 5, 5})),
                  FrameworkKind::kPatDnn);
    ConvDesc rgb{"rgb", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    expectInvalid(singleConvModel(rgb, Tensor(Shape{8, 3, 1, 1})),
                  FrameworkKind::kTvmLike);
    expectInvalid(singleConvModel(d, Tensor()), FrameworkKind::kTvmLike);

    // A bias that is neither {cout} nor absent.
    Model bad_bias = singleConvModel(d, good);
    bad_bias.layers()[0].bias = Tensor(Shape{d.cout + 1});
    expectInvalid(bad_bias, FrameworkKind::kPatDnnDense);

    // An FC weight that is not {out, in}.
    Model fc_model = singleConvModel(d, good);
    Layer flat;
    flat.kind = OpKind::kFlatten;
    fc_model.addLayer(std::move(flat));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = d.cout * d.outH() * d.outW();
    fc.out_features = 4;
    fc.weight = Tensor(Shape{fc.in_features, fc.out_features});
    fc_model.addLayer(std::move(fc));
    expectInvalid(fc_model, FrameworkKind::kPatDnn);

    // Layers that are each well-formed but that shape inference rejects
    // as a graph (the two whose shapes do not chain would read past a
    // buffer when run): refused, naming the node inference stopped at.
    auto layerOf = [](OpKind kind, const ConvDesc& conv = {}) {
        Layer l;
        l.kind = kind;
        l.name = conv.name.empty() ? opKindName(kind) : conv.name;
        l.conv = conv;
        return l;
    };
    // kInt8 too: its calibration pass runs the graph at compile time.
    CompileOptions int8_opts;
    int8_opts.precision = Precision::kInt8;
    Compiler int8_compiler(dev, int8_opts);
    auto expectUnchained = [&](Model m, FrameworkKind kind, const char* node) {
        m.randomizeWeights(9);
        for (const Compiler* c : {&compiler, &int8_compiler}) {
            auto r = c->compile(m, kind);
            ASSERT_FALSE(r.ok()) << m.name();
            EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument) << m.name();
            EXPECT_NE(r.status().message().find(node), std::string::npos)
                << r.status().toString();
        }
    };
    // A 3->8 conv feeding a conv that declares 32 input channels.
    Model cin_mismatch("cin-mismatch", "test");
    cin_mismatch.addLayer(layerOf(OpKind::kConv, {"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1}));
    cin_mismatch.addLayer(layerOf(OpKind::kConv, {"c2", 32, 8, 3, 3, 8, 8, 1, 1, 1, 1}));
    expectUnchained(cin_mismatch, FrameworkKind::kPatDnnDense, "node 1 (conv)");
    expectUnchained(cin_mismatch, FrameworkKind::kPatDnn, "node 1 (conv)");
    // Flatten -> FC declaring 4x the producer's element count.
    Model fc_mismatch("fc-mismatch", "test");
    fc_mismatch.addLayer(layerOf(OpKind::kConv, {"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1}));
    fc_mismatch.addLayer(layerOf(OpKind::kFlatten));
    Layer wide_fc = layerOf(OpKind::kFullyConnected);
    wide_fc.in_features = 4 * 8 * 8 * 8;
    wide_fc.out_features = 4;
    fc_mismatch.addLayer(std::move(wide_fc));
    expectUnchained(fc_mismatch, FrameworkKind::kPatDnn, "node 2 (");
    // A pool reading the model input: only a conv fixes the input shape.
    Model pool_first("pool-first", "test");
    pool_first.addLayer(layerOf(OpKind::kMaxPool));
    pool_first.addLayer(layerOf(OpKind::kConv, {"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1}));
    expectUnchained(pool_first, FrameworkKind::kPatDnn, "node 0 (");

    // Nonsense options.
    CompileOptions bad_opts;
    bad_opts.connectivity_rate = -1.0;
    auto r = Compiler(dev, bad_opts).compile(singleConvModel(d, good));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);

    // Rates in (0, 1) would keep more kernels than a layer has (they
    // used to abort in projectConnectivity); each names its field. A
    // rate of exactly 1 keeps every kernel and compiles.
    for (double rate : {0.5, 0.999, std::nan("")}) {
        for (bool first : {false, true}) {
            CompileOptions rate_opts;
            (first ? rate_opts.first_layer_rate : rate_opts.connectivity_rate) = rate;
            auto rr = Compiler(dev, rate_opts).compile(singleConvModel(d, good));
            ASSERT_FALSE(rr.ok()) << rate;
            EXPECT_EQ(rr.status().code(), ErrorCode::kInvalidArgument);
            EXPECT_NE(rr.status().message().find(first ? "first_layer_rate"
                                                        : "connectivity_rate"),
                      std::string::npos)
                << rr.status().toString();
        }
    }
    CompileOptions keep_all;
    keep_all.connectivity_rate = keep_all.first_layer_rate = 1.0;
    auto dense_ok = Compiler(dev, keep_all).compile(singleConvModel(d, good));
    ASSERT_TRUE(dense_ok.ok()) << dense_ok.status().toString();

    // A 5x5 layer under kPatDnn is not an error: kernel patterns exist
    // for 3x3 kernels only, so it keeps its connectivity-pruned dense
    // weights and runs im2col.
    ConvDesc five{"five", 6, 8, 5, 5, 12, 12, 1, 2, 1, 1};
    Tensor w5(Shape{8, 6, 5, 5});
    w5.fillNormal(rng);
    auto compiled = compiler.compile(singleConvModel(five, w5));
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    Workspace ws(compiled.value()->memoryPlan());
    RunProfile profile;
    compiled.value()->run(Tensor(Shape{1, 6, 12, 12}), ws, &profile);
    EXPECT_EQ(profile.entries[0].kind, "im2col");
}

TEST(Compiler, CompileWholeModelRunsAndValidates)
{
    Model m("compiler-e2e", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(std::move(conv));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 8 * 8 * 8;
    fc.out_features = 4;
    m.addLayer(std::move(fc));
    m.randomizeWeights(7);

    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    Compiler compiler(dev);
    auto compiled = compiler.compile(m);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();
    Tensor in(Shape{1, 3, 8, 8});
    Rng rng(3);
    in.fillUniform(rng, -1.0f, 1.0f);
    EXPECT_EQ(compiled.value()->run(in).shape(), Shape({1, 4}));

    // A malformed conv layer comes back typed instead of aborting.
    Model bad = m;
    bad.layers()[0].conv.groups = 5;  // 3 % 5 != 0.
    auto rejected = compiler.compile(bad);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Compiler, TuneCacheSkipsRepeatSearches)
{
    TuneCache::instance().clear();
    ConvDesc d{"cached", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    Compiler compiler(makeFixedWidthCpuDevice(2));

    // The first tuneLayer pays for the search and populates the cache.
    auto first = compiler.tuneLayer(d, FrameworkKind::kPatDnn);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(TuneCache::instance().size(), 1u);
    int64_t hits_before = TuneCache::instance().hits();

    // Repeat tuning of the same shape: a cache hit, the search skipped,
    // and the same tuned parameters returned.
    auto second = compiler.tuneLayer(d, FrameworkKind::kPatDnn);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(TuneCache::instance().hits(), hits_before + 1);
    EXPECT_EQ(TuneCache::instance().size(), 1u);
    EXPECT_TRUE(sameTuning(second.value(), first.value()));

    // A different shape misses (no false sharing between geometries).
    ConvDesc other{"other", 8, 16, 3, 3, 16, 16, 1, 1, 1, 1};
    ASSERT_TRUE(compiler.tuneLayer(other, FrameworkKind::kPatDnn).ok());
    EXPECT_EQ(TuneCache::instance().size(), 2u);

    // A different device fingerprint misses too: a tuning measured on
    // a 2-wide pool is never silently applied to a 4-wide one.
    Compiler wide(makeFixedWidthCpuDevice(4));
    ASSERT_TRUE(wide.tuneLayer(d, FrameworkKind::kPatDnn).ok());
    EXPECT_EQ(TuneCache::instance().size(), 3u);

    // Whole-model compiles consult the cache through the tune_lookup
    // plumbing: a model containing the cached shape picks up its tuned
    // parameters without re-running the search.
    Model m("cache-consumer", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "cached";
    conv.conv = d;
    m.addLayer(std::move(conv));
    m.randomizeWeights(9);
    int64_t hits_before_model = TuneCache::instance().hits();
    auto model = compiler.compile(m);
    ASSERT_TRUE(model.ok()) << model.status().toString();
    EXPECT_GT(TuneCache::instance().hits(), hits_before_model);
    TuneCache::instance().clear();
}

/** A tuning applies only to the engine it was measured on: a kTvmLike
 * (im2col) tuning of a 3x3 stride-1 layer must not reach the Winograd
 * engine kPatDnnDense runs for it. */
TEST(Compiler, TuningAppliesOnlyToTheMeasuredEngine)
{
    TuneCache::instance().clear();
    ConvDesc d{"wino", 16, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    Compiler compiler(makeFixedWidthCpuDevice(2));
    Model m = singleConvModel(d, 4);

    ASSERT_TRUE(compiler.tuneLayer(d, FrameworkKind::kTvmLike).ok());
    int64_t hits = TuneCache::instance().hits();
    auto dense = compiler.compile(m, FrameworkKind::kPatDnnDense);
    ASSERT_TRUE(dense.ok()) << dense.status().toString();
    EXPECT_EQ(TuneCache::instance().hits(), hits);

    auto tuned = compiler.tuneLayer(d, FrameworkKind::kPatDnnDense);
    ASSERT_TRUE(tuned.ok()) << tuned.status().toString();
    hits = TuneCache::instance().hits();
    auto retuned = compiler.compile(m, FrameworkKind::kPatDnnDense);
    ASSERT_TRUE(retuned.ok()) << retuned.status().toString();
    EXPECT_EQ(TuneCache::instance().hits(), hits + 1);
    EXPECT_TRUE(sameTuning(retuned.value()->exportState()[0].tuning, tuned.value()));
    TuneCache::instance().clear();
}

}  // namespace
}  // namespace patdnn
