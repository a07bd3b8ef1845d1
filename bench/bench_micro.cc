/**
 * @file
 * google-benchmark micro-benchmarks for the hot building blocks:
 * pattern micro-kernels (padded LRE vs guarded vs no-LRE), FKW packing,
 * FKR, projections, and a single pattern-engine layer. These are the
 * kernels whose relative costs explain the figure-level results. The
 * artifact codec round trip tracks model set-up cost.
 */
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"

namespace patdnn {
namespace {

struct KernelFixture
{
    PatternKernel pk;
    float weights[4];
    Tensor in;
    Tensor out;
    PlaneGeom geom;

    KernelFixture()
    {
        Pattern p(3, 3, std::vector<int>{4, 1, 3, 5});
        pk = lowerPattern(p);
        Rng rng(1);
        for (auto& w : weights)
            w = rng.normal();
        in = Tensor(Shape{64, 64});
        in.fillUniform(rng, -1.0f, 1.0f);
        out = Tensor(Shape{64, 64});
        geom = PlaneGeom{64, 64, 64, 64, 1, 1, 0, 64, 0, 64};
    }
};

/**
 * The padded flat-row form of a 64x64 plane at pad 1 (rows of 66
 * floats) holding `channels` input channels, with the pattern's taps
 * as flat offsets: what SimdOps::pattern_accum reads in PatternConv.
 */
struct PaddedFixture
{
    static constexpr int64_t kWp = 66;
    static constexpr int64_t kPlane = kWp * kWp;
    static constexpr int64_t kLen = 63 * kWp + 64;  ///< Flat output positions.
    int32_t taps[4];
    std::vector<float> in;
    std::vector<float> acc;
    std::vector<float> weights;
    std::vector<int32_t> channels;

    explicit PaddedFixture(int kernels)
    {
        KernelFixture k;
        for (int e = 0; e < 4; ++e)
            taps[e] = static_cast<int32_t>(k.pk.dy[e] * kWp + k.pk.dx[e]);
        Rng rng(5);
        in.resize(static_cast<size_t>(kernels * kPlane + 8));
        for (auto& v : in)
            v = rng.uniform(-1.0f, 1.0f);
        acc.assign(static_cast<size_t>(kLen), 0.0f);
        for (int i = 0; i < kernels * 4; ++i)
            weights.push_back(rng.normal());
        for (int c = 0; c < kernels; ++c)
            channels.push_back(c);
    }

    PatternSegment
    segment(int kernels) const
    {
        return {taps, 4, weights.data(), channels.data(), kernels};
    }
};

/** One 16-kernel filter over the padded plane, per kernel table. */
void
BM_SimdPatternAccum(benchmark::State& state, const SimdOps& ops)
{
    constexpr int kKernels = 16;
    PaddedFixture f(kKernels);
    PatternSegment seg = f.segment(kKernels);
    for (auto _ : state) {
        ops.pattern_accum(f.in.data(), PaddedFixture::kPlane, &seg, 1,
                          f.acc.data(), PaddedFixture::kLen);
        benchmark::DoNotOptimize(f.acc.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * PaddedFixture::kLen * kKernels * 4);
    state.SetLabel(ops.name);
}
BENCHMARK_CAPTURE(BM_SimdPatternAccum, scalar, scalarSimdOps());
BENCHMARK_CAPTURE(BM_SimdPatternAccum, dispatched, resolveSimdOps(detectSimdIsa()));

/** One kernel over the plane with LRE: the padded kernel the engine
 * runs on stride-1 layers (same work as BM_MicrokernelNoLre). */
void
BM_MicrokernelLre(benchmark::State& state)
{
    PaddedFixture f(1);
    PatternSegment seg = f.segment(1);
    const SimdOps& ops = resolveSimdOps(detectSimdIsa());
    for (auto _ : state) {
        ops.pattern_accum(f.in.data(), PaddedFixture::kPlane, &seg, 1,
                          f.acc.data(), PaddedFixture::kLen);
        benchmark::DoNotOptimize(f.acc.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64 * 4);
}
BENCHMARK(BM_MicrokernelLre);

/** The guarded single-pass LRE loop strided layers keep. */
void
BM_MicrokernelLreGuarded(benchmark::State& state)
{
    KernelFixture f;
    for (auto _ : state) {
        kernelAccumulateLre(f.pk, f.weights, f.in.data(), f.out.data(), f.geom);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64 * 4);
}
BENCHMARK(BM_MicrokernelLreGuarded);

void
BM_MicrokernelNoLre(benchmark::State& state)
{
    KernelFixture f;
    for (auto _ : state) {
        kernelAccumulateNoLre(f.pk, f.weights, f.in.data(), f.out.data(), f.geom);
        benchmark::DoNotOptimize(f.out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 64 * 4);
}
BENCHMARK(BM_MicrokernelNoLre);

void
BM_ProjectJoint(benchmark::State& state)
{
    Rng rng(2);
    PatternSet set = canonicalPatternSet(8);
    Tensor original(Shape{64, 64, 3, 3});
    original.fillNormal(rng);
    for (auto _ : state) {
        Tensor w = original;
        PatternAssignment asg = projectJoint(w, set, 1138);
        benchmark::DoNotOptimize(asg.pattern_of_kernel.data());
    }
}
BENCHMARK(BM_ProjectJoint);

/** Natural-pattern mining over one VGG conv4-sized weight (262,144
 * kernels), the first step of every kPatDnn compile. */
void
BM_MinePatternFrequencies(benchmark::State& state)
{
    Rng rng(4);
    Tensor w(Shape{512, 512, 3, 3});
    w.fillNormal(rng);
    for (auto _ : state) {
        auto freqs = minePatternFrequencies({&w});
        benchmark::DoNotOptimize(freqs.data());
    }
    state.SetItemsProcessed(state.iterations() * 512 * 512);
}
BENCHMARK(BM_MinePatternFrequencies);

void
BM_FkrAndFkwBuild(benchmark::State& state)
{
    Rng rng(3);
    PatternSet set = canonicalPatternSet(8);
    Tensor w(Shape{64, 64, 3, 3});
    w.fillNormal(rng);
    PatternAssignment asg = projectJoint(w, set, 1138);
    for (auto _ : state) {
        FkrResult fkr = filterKernelReorder(asg);
        FkwLayer fkw = buildFkw(w, set, asg, fkr);
        benchmark::DoNotOptimize(fkw.weights.data());
    }
}
BENCHMARK(BM_FkrAndFkwBuild);

/** One conv compiled as its own model; each iteration's time is the
 * conv engine call alone (convOnlyTimeMs), as in the figure benches. */
void
runConvLayer(benchmark::State& state, const bench::ConvLayerModel& layer)
{
    for (auto _ : state)
        state.SetIterationTime(layer.model.convOnlyTimeMs(layer.input, 0, 1) / 1e3);
    state.SetItemsProcessed(state.iterations() * layer.effectiveMacs());
}

void
BM_PatternConvLayer(benchmark::State& state)
{
    ConvDesc d{"m", 64, 64, 3, 3, 28, 28, 1, 1, 1, 1};
    DeviceSpec dev = makeCpuDevice(static_cast<int>(state.range(0)));
    runConvLayer(state, bench::ConvLayerModel(d, FrameworkKind::kPatDnn, dev));
}
BENCHMARK(BM_PatternConvLayer)->Arg(1)->Arg(4)->Arg(8)->UseManualTime();

void
BM_Im2colDenseLayer(benchmark::State& state)
{
    ConvDesc d{"m", 64, 64, 3, 3, 28, 28, 1, 1, 1, 1};
    runConvLayer(state, bench::ConvLayerModel(d, FrameworkKind::kTvmLike,
                                              makeCpuDevice(4)));
}
BENCHMARK(BM_Im2colDenseLayer)->UseManualTime();

/**
 * The packed tiled GEMM (rt/gemm_packed.h, the dense run path) on
 * zoo-representative shapes: the VGG first conv (3->64 3x3 @ 32x32,
 * where dense executors do the whole work), a mid-net conv, and an
 * FC-like 1x1.
 */
void
BM_DenseGemmConv(benchmark::State& state, ConvDesc d)
{
    Rng rng(9);
    Tensor w(Shape{d.cout, d.cinPerGroup(), d.kh, d.kw});
    w.fillHe(rng, d.cinPerGroup() * d.kh * d.kw);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    DeviceSpec dev = makeCpuDevice(4);
    Im2colConv engine(d, &w, dev);
    Tensor out = makeConvOutput(d, 1);
    for (auto _ : state) {
        engine.run(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    int64_t macs = d.outH() * d.outW() * d.cout * d.cinPerGroup() * d.kh * d.kw;
    state.SetItemsProcessed(state.iterations() * macs);
}
BENCHMARK_CAPTURE(BM_DenseGemmConv, first_conv_packed,
                  ConvDesc{"c1", 3, 64, 3, 3, 32, 32, 1, 1, 1, 1});
BENCHMARK_CAPTURE(BM_DenseGemmConv, mid_conv_packed,
                  ConvDesc{"c8", 128, 128, 3, 3, 16, 16, 1, 1, 1, 1});
BENCHMARK_CAPTURE(BM_DenseGemmConv, fc_like_packed,
                  ConvDesc{"fc", 256, 256, 1, 1, 8, 8, 1, 0, 1, 1});

/**
 * Int8 quantized dense conv (k-pair i8 panels + SimdOps::gemm_tile_i8
 * + f32 requant epilogue) on the same shapes as the f32 packed rows
 * above — the Fig. 17 int8-vs-f32 column at micro scale. The i8 GEMM
 * gate is >= 1.5x over packed f32 at the whole-VGG-stack level
 * (bench_fig17_gflops section a); per-shape ratios vary with the
 * quantize/pack share of the runtime.
 */
void
BM_DenseGemmConvI8(benchmark::State& state, ConvDesc d)
{
    Rng rng(9);
    Tensor w(Shape{d.cout, d.cinPerGroup(), d.kh, d.kw});
    w.fillHe(rng, d.cinPerGroup() * d.kh * d.kw);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    DeviceSpec dev = makeCpuDevice(4);
    ActivationCalibrator cal(CalibrationMethod::kAbsMax);
    cal.observe(in);
    Im2colConv engine(d, &w, dev, TuneParams{}, cal.scale());
    Tensor out = makeConvOutput(d, 1);
    for (auto _ : state) {
        engine.run(in, out);
        benchmark::DoNotOptimize(out.data());
    }
    int64_t macs = d.outH() * d.outW() * d.cout * d.cinPerGroup() * d.kh * d.kw;
    state.SetItemsProcessed(state.iterations() * macs);
    state.SetLabel("packed-i8");
}
BENCHMARK_CAPTURE(BM_DenseGemmConvI8, first_conv_i8,
                  ConvDesc{"c1", 3, 64, 3, 3, 32, 32, 1, 1, 1, 1});
BENCHMARK_CAPTURE(BM_DenseGemmConvI8, mid_conv_i8,
                  ConvDesc{"c8", 128, 128, 3, 3, 16, 16, 1, 1, 1, 1});
BENCHMARK_CAPTURE(BM_DenseGemmConvI8, fc_like_i8,
                  ConvDesc{"fc", 256, 256, 1, 1, 8, 8, 1, 0, 1, 1});

void
BM_GraphOptimize(benchmark::State& state)
{
    Model m = buildVGG16(Dataset::kCifar10);
    for (auto _ : state) {
        Graph g = buildGraph(m);
        optimizeGraph(g);
        benchmark::DoNotOptimize(g.nodes().data());
    }
}
BENCHMARK(BM_GraphOptimize);

/**
 * The activation memory planner (rt/memplan.h) over each zoo model:
 * times the lifetime-analysis + arena-packing pass alone (the step
 * every CompiledModel construction — compile or artifact load — pays),
 * and reports the memory column — planned arena vs the no-reuse sum
 * (every buffer kept; the counter keeps its legacy_kb name, which the
 * baselines read) at batch 1. The dense framework kind skips pruning so
 * setup stays cheap; planning is geometry-only and identical across
 * kinds.
 */
void
BM_MemoryPlanZoo(benchmark::State& state, const char* short_name)
{
    // google-benchmark runs this body more than once per row; the
    // compile is set-up, so each model is compiled once (under ASan the
    // repeated compiles were most of bench_micro_smoke's time).
    static std::map<std::string, std::pair<std::vector<PlanNode>, int>> graphs;
    auto it = graphs.find(short_name);
    if (it == graphs.end()) {
        CompiledModel compiled(buildByShortName(short_name, Dataset::kCifar10),
                               FrameworkKind::kTfliteLike, makeCpuDevice(1));
        it = graphs.emplace(short_name, std::make_pair(compiled.planNodes(),
                                                       compiled.outputNode()))
                 .first;
    }
    const auto& [nodes, output_node] = it->second;
    MemoryPlan plan;
    for (auto _ : state) {
        plan = planActivations(nodes, output_node);
        benchmark::DoNotOptimize(plan.arenaElemsPerSample());
    }
    state.counters["arena_kb"] =
        static_cast<double>(plan.arenaBytes(1)) / 1024.0;
    state.counters["legacy_kb"] =
        static_cast<double>(plan.sumBytes(1)) / 1024.0;
    state.counters["reduction_x"] = static_cast<double>(plan.sumBytes(1)) /
                                    static_cast<double>(plan.arenaBytes(1));
}
BENCHMARK_CAPTURE(BM_MemoryPlanZoo, vgg, "VGG");
BENCHMARK_CAPTURE(BM_MemoryPlanZoo, rnt, "RNT");
BENCHMARK_CAPTURE(BM_MemoryPlanZoo, mbnt, "MBNT");

/**
 * The artifact codec (serve/artifact.h) on a one-conv 256->256 3x3
 * kPatDnnDense model (2.4 MB artifact): serialize + deserialize per
 * iteration, so the payload checksum, the record streaming and the
 * load's Winograd filter packing all show.
 */
void
BM_ArtifactRoundTrip(benchmark::State& state)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(1);
    CompiledModel compiled(
        singleConvModel(ConvDesc{"rt", 256, 256, 3, 3, 16, 16, 1, 1, 1, 1}, 3),
        FrameworkKind::kPatDnnDense, dev);
    size_t bytes = 0;
    for (auto _ : state) {
        std::vector<uint8_t> artifact = serializeModel(compiled);
        auto loaded = deserializeModel(artifact, dev);
        if (!loaded.ok()) {
            state.SkipWithError(loaded.status().toString().c_str());
            break;
        }
        bytes = artifact.size();
        benchmark::DoNotOptimize(loaded.value().get());
    }
    state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ArtifactRoundTrip);

/**
 * Raw cost of one TraceSpan (obs/trace.h) in each runtime state:
 * dormant (compiled in, collection off — one relaxed atomic load) vs
 * live (two clock reads + a ring write). In PATDNN_ENABLE_TRACING=OFF
 * builds both are an empty object and time the loop itself.
 */
void
BM_TraceSpan(benchmark::State& state, bool live)
{
    Tracer::setEnabled(live);
    for (auto _ : state) {
        TraceSpan span("bench.span", "bench");
        benchmark::DoNotOptimize(&span);
    }
    Tracer::setEnabled(false);
    state.SetLabel(!Tracer::compiledIn() ? "compiled-out"
                                         : (live ? "live" : "dormant"));
}
BENCHMARK_CAPTURE(BM_TraceSpan, dormant, false);
BENCHMARK_CAPTURE(BM_TraceSpan, live, true);

/**
 * The tracing overhead guard (observability acceptance gate): a full
 * zoo forward pass with the tracer live vs dormant. The live/dormant
 * ratio must stay within the noise — tools/bench_diff.py only compares
 * orders, and CI runs both cells, so a hot-path regression that makes
 * tracing expensive flips the order against BM_TraceOverheadZoo/off
 * and fails the baseline diff. Locally: the two medians should agree
 * within ~3%.
 */
void
BM_TraceOverheadZoo(benchmark::State& state, bool live)
{
    Model m = buildVGG16(Dataset::kCifar10);
    CompiledModel compiled(m, FrameworkKind::kPatDnnDense, makeCpuDevice(4));
    Workspace ws(compiled.memoryPlan());
    Rng rng(8);
    Tensor in(Shape{1, 3, 32, 32});
    in.fillUniform(rng, -1.0f, 1.0f);
    Tracer::setEnabled(live);
    for (auto _ : state) {
        Tensor out = compiled.run(in, ws);
        benchmark::DoNotOptimize(out.data());
    }
    Tracer::setEnabled(false);
    state.SetLabel(!Tracer::compiledIn() ? "compiled-out"
                                         : (live ? "live" : "dormant"));
}
BENCHMARK_CAPTURE(BM_TraceOverheadZoo, off, false);
BENCHMARK_CAPTURE(BM_TraceOverheadZoo, on, true);

}  // namespace
}  // namespace patdnn

BENCHMARK_MAIN();
