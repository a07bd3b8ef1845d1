/** @file Pattern engine internals: plans, thread cuts, segments, paths vs reference. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "nn/zoo.h"
#include "prune/projections.h"
#include "rt/conv_pattern.h"
#include "rt/conv_ref.h"
#include "rt/framework.h"
#include "sparse/fkw.h"

namespace patdnn {
namespace {

struct Built
{
    ConvDesc desc{"t", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    Tensor weight;
    PatternSet set = canonicalPatternSet(6);
    FkwLayer fkw;

    explicit Built(uint64_t seed, bool reorder = true, int64_t alpha = 48)
    {
        Rng rng(seed);
        weight = Tensor(Shape{desc.cout, desc.cin, 3, 3});
        weight.fillNormal(rng);
        PatternAssignment asg = projectJoint(weight, set, alpha);
        FkrOptions opts;
        opts.reorder_filters = reorder;
        opts.similarity_within_group = reorder;
        opts.reorder_kernels = reorder;
        FkrResult fkr = filterKernelReorder(asg, opts);
        fkw = buildFkw(weight, set, asg, fkr);
    }
};

TEST(PatternPlan, RangesAndSegmentsCoverEveryKernelExactlyOnce)
{
    Built b(1);
    PatternPlan plan = preparePatternPlan(b.fkw, makeFixedWidthCpuDevice(4));
    std::vector<int> seen(static_cast<size_t>(b.fkw.kernelCount()), 0);
    int64_t filters = 0;
    for (size_t w = 0; w + 1 < plan.cuts.size(); ++w) {
        for (int32_t f = plan.cuts[w]; f < plan.cuts[w + 1]; ++f, ++filters) {
            forEachSegment(b.fkw, f, [&](int pid, int32_t k0, int32_t count) {
                EXPECT_GT(count, 0);
                for (int32_t k = k0; k < k0 + count; ++k) {
                    seen[static_cast<size_t>(k)] += 1;
                    // The stride segment a kernel sits in is its pattern.
                    EXPECT_GE(k - b.fkw.offset[static_cast<size_t>(f)],
                              b.fkw.strideAt(f, pid));
                    EXPECT_LT(k - b.fkw.offset[static_cast<size_t>(f)],
                              b.fkw.strideAt(f, pid + 1));
                }
            });
        }
    }
    EXPECT_EQ(filters, b.desc.cout);
    for (int v : seen)
        EXPECT_EQ(v, 1);
}

TEST(PatternPlan, CutsAreMonotoneOneRangePerWorker)
{
    Built b(3);
    std::vector<DeviceSpec> devices = {makeGpuDevice()};
    for (int t : {1, 2, 3, 4, 8, 16, 64})
        devices.push_back(makeFixedWidthCpuDevice(t));
    for (const DeviceSpec& dev : devices) {
        PatternPlan plan = preparePatternPlan(b.fkw, dev);
        ASSERT_EQ(plan.cuts.size(), static_cast<size_t>(dev.threads) + 1) << dev.name;
        EXPECT_EQ(plan.cuts.front(), 0);
        EXPECT_EQ(plan.cuts.back(), b.desc.cout);
        for (size_t w = 1; w < plan.cuts.size(); ++w)
            EXPECT_LE(plan.cuts[w - 1], plan.cuts[w]) << dev.threads << " threads";
    }
}

TEST(PatternPlan, GpuCutsLandOnGroupEnds)
{
    Built b(4);
    ASSERT_GT(b.fkw.groups.size(), 1u);
    DeviceSpec gpu = makeGpuDevice();
    for (int t : {2, 3, 4, 8, 64}) {
        gpu.threads = t;
        PatternPlan plan = preparePatternPlan(b.fkw, gpu);
        for (int32_t cut : plan.cuts) {
            bool on_end = cut == 0;
            for (const FilterGroup& g : b.fkw.groups)
                on_end |= cut == g.end;
            EXPECT_TRUE(on_end) << "cut " << cut << " at " << t << " threads";
        }
    }
}

TEST(PatternPlan, VggCifarCutsBalanceKernelsAtFourThreads)
{
    // The busiest of 4 workers holds at most 5% more kernels than the
    // mean on every VGG-16 CIFAR pattern layer.
    const DeviceSpec dev = makeFixedWidthCpuDevice(4);
    CompiledModel compiled(buildVGG16(Dataset::kCifar10), FrameworkKind::kPatDnn, dev);
    int layers = 0;
    for (const CompiledLayerState& st : compiled.exportState()) {
        if (!st.fkw)
            continue;
        ++layers;
        double imbalance = kernelImbalance(*st.fkw, preparePatternPlan(*st.fkw, dev));
        EXPECT_LE(imbalance, 1.05) << st.conv.name;
    }
    EXPECT_EQ(layers, 13);
}

TEST(PatternPlan, LooseFormatSegmentsAreRunsOfOnePattern)
{
    Built b(5, /*reorder=*/false);
    ASSERT_FALSE(b.fkw.kernel_pattern.empty());
    int64_t kernels = 0;
    for (int64_t f = 0; f < b.fkw.filters; ++f) {
        int32_t next = b.fkw.offset[static_cast<size_t>(f)];
        forEachSegment(b.fkw, f, [&](int pid, int32_t k0, int32_t count) {
            EXPECT_EQ(k0, next);
            for (int32_t k = k0; k < k0 + count; ++k)
                EXPECT_EQ(b.fkw.kernel_pattern[static_cast<size_t>(k)], pid);
            next = k0 + count;
            kernels += count;
        });
        EXPECT_EQ(next, b.fkw.offset[static_cast<size_t>(f) + 1]);
    }
    EXPECT_EQ(kernels, b.fkw.kernelCount());
}

TEST(MicroKernels, LoweredPatternOffsetsMatchMask)
{
    Pattern p(3, 3, std::vector<int>{4, 0, 5, 7});
    PatternKernel pk = lowerPattern(p);
    EXPECT_EQ(pk.entries, 4);
    // Positions ascending: 0 -> (0,0), 4 -> (1,1), 5 -> (1,2), 7 -> (2,1).
    EXPECT_EQ(pk.dy[0], 0);
    EXPECT_EQ(pk.dx[0], 0);
    EXPECT_EQ(pk.dy[1], 1);
    EXPECT_EQ(pk.dx[1], 1);
    EXPECT_EQ(pk.dy[3], 2);
    EXPECT_EQ(pk.dx[3], 1);
}

TEST(MicroKernels, LreAndNoLreProduceIdenticalResults)
{
    Rng rng(6);
    Pattern p(3, 3, std::vector<int>{4, 1, 3, 5});
    PatternKernel pk = lowerPattern(p);
    float weights[4];
    for (auto& w : weights)
        w = rng.normal();
    int64_t h = 9, w_ = 11;
    Tensor in(Shape{h, w_});
    in.fillUniform(rng, -1.0f, 1.0f);
    PlaneGeom g;
    g.h = h;
    g.w = w_;
    g.oh = h;
    g.ow = w_;
    g.pad = 1;
    g.stride = 1;
    g.y0 = 0;
    g.y1 = h;
    g.x0 = 0;
    g.x1 = w_;
    Tensor out_a(Shape{h, w_}), out_b(Shape{h, w_});
    kernelAccumulateLre(pk, weights, in.data(), out_a.data(), g);
    kernelAccumulateNoLre(pk, weights, in.data(), out_b.data(), g);
    EXPECT_LT(Tensor::maxAbsDiff(out_a, out_b), 1e-5);
}

/** Pattern layer `d` run by PatternConv on `dev` vs convReference on
 * the pruned weights; returns max |diff| / max |reference|, and the
 * engine's thread cuts in *cuts when given. */
double
relativeErrorVsReference(const ConvDesc& d, int64_t batch, uint64_t seed,
                         bool* padded, const DeviceSpec& dev = makeCpuDevice(2),
                         std::vector<int32_t>* cuts = nullptr)
{
    Rng rng(seed);
    Tensor w(Shape{d.cout, d.cin, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectJoint(w, set, d.cout * d.cin * 10 / 36);
    FkwLayer fkw = buildFkw(w, set, asg, filterKernelReorder(asg));
    Tensor bias(Shape{d.cout});
    bias.fillNormal(rng, 0.0f, 0.1f);
    Tensor in(Shape{batch, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;
    PatternConv engine(d, &fkw, TuneParams{}, OptSwitches{}, dev);
    *padded = engine.padded();
    if (cuts != nullptr)
        *cuts = engine.plan().cuts;
    Tensor want = makeConvOutput(d, batch);
    convReference(d, w, in, want, ep);
    Tensor got = makeConvOutput(d, batch);
    engine.run(in, got, ep);
    double scale = 0.0;
    for (int64_t i = 0; i < want.numel(); ++i)
        scale = std::max(scale, static_cast<double>(std::fabs(want[i])));
    return Tensor::maxAbsDiff(want, got) / scale;
}

TEST(PatternConv, PaddedPathWithinRelativeBoundOfReference)
{
    // The padded kernel sums each output in FKW order, convReference in
    // dense (ci, ky, kx) order: only rounding differs. Stated bound:
    // 1e-6 of the largest output magnitude, here with up to 64 input
    // channels (~18 kernels x 4 entries per output).
    const int64_t planes[][2] = {{32, 32}, {8, 8}, {4, 4}, {2, 2}, {7, 5}};
    for (const auto& hw : planes) {
        for (int64_t pad : {0, 1}) {
            ConvDesc d{"rel", 64, 16, 3, 3, hw[0], hw[1], 1, pad, 1, 1};
            if (d.outH() < 1 || d.outW() < 1)
                continue;
            bool padded = false;
            double rel = relativeErrorVsReference(d, 3, 11, &padded);
            EXPECT_TRUE(padded);
            EXPECT_LE(rel, 1e-6) << d.h << "x" << d.w << " pad=" << pad;
        }
    }
}

TEST(PatternConv, StrideTwoLayerKeepsGuardedPathAndMatchesReference)
{
    for (int64_t pad : {0, 1}) {
        ConvDesc d{"s2", 16, 12, 3, 3, 15, 12, 2, pad, 1, 1};
        bool padded = true;
        double rel = relativeErrorVsReference(d, 2, 13, &padded);
        EXPECT_FALSE(padded);
        EXPECT_LE(rel, 1e-6) << "pad=" << pad;
    }
}

TEST(PatternConv, MoreWorkersThanFiltersLeavesEmptyRanges)
{
    // 3 filters over 8 workers: at least 5 ranges are empty, on the
    // padded and the guarded path alike.
    for (int64_t stride : {1, 2}) {
        ConvDesc d{"few", 8, 3, 3, 3, 9, 9, stride, 1, 1, 1};
        bool padded = false;
        std::vector<int32_t> cuts;
        EXPECT_LE(relativeErrorVsReference(d, 2, 19, &padded, makeFixedWidthCpuDevice(8),
                                           &cuts),
                  1e-6);
        EXPECT_EQ(padded, stride == 1);
        ASSERT_EQ(cuts.size(), 9u);
        int empty = 0;
        for (size_t i = 0; i + 1 < cuts.size(); ++i)
            empty += cuts[i] == cuts[i + 1] ? 1 : 0;
        EXPECT_GE(empty, 5);
    }
}

}  // namespace
}  // namespace patdnn
