/** @file Pattern engine internals: plans, segments, paths vs reference, LR rendering. */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "prune/projections.h"
#include "rt/conv_pattern.h"
#include "rt/conv_ref.h"
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

TEST(PatternPlan, ItemsAndSegmentsCoverEveryKernelExactlyOnce)
{
    Built b(1);
    LayerwiseRep lr;
    lr.conv = b.desc;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    std::vector<int> seen(static_cast<size_t>(b.fkw.kernelCount()), 0);
    int64_t filters = 0;
    for (const auto& item : plan.items) {
        for (int32_t f = item.filter_begin; f < item.filter_end; ++f, ++filters) {
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

TEST(PatternPlan, GpuDeviceMapsGroupsToSingleItems)
{
    Built b(3);
    LayerwiseRep lr;
    lr.conv = b.desc;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeGpuDevice());
    EXPECT_EQ(plan.items.size(), b.fkw.groups.size());
}

TEST(PatternPlan, CpuSplitsLargeGroups)
{
    Built b(4);
    LayerwiseRep lr;
    lr.conv = b.desc;
    lr.tuning.filters_per_task = 2;
    PatternPlan plan = preparePatternPlan(b.fkw, lr, makeCpuDevice(4));
    EXPECT_GE(plan.items.size(), b.fkw.groups.size());
    for (const auto& item : plan.items)
        EXPECT_LE(item.filter_end - item.filter_begin, 2);
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

/** Pattern layer `d` run by PatternConv vs convReference on the
 * pruned weights; returns max |diff| / max |reference|. */
double
relativeErrorVsReference(const ConvDesc& d, int64_t batch, uint64_t seed,
                         bool* padded)
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
    LayerwiseRep lr;
    lr.conv = d;
    PatternConv engine(d, &fkw, lr, makeCpuDevice(2));
    *padded = engine.padded();
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

TEST(LayerwiseRepStr, RendersFig8Fields)
{
    LayerwiseRep lr;
    lr.conv = ConvDesc{"conv_op1", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    lr.pattern_types = {1, 2};
    std::string s = lr.str();
    EXPECT_NE(s.find("conv_op1"), std::string::npos);
    EXPECT_NE(s.find("\"type\": [1, 2]"), std::string::npos);
    EXPECT_NE(s.find("FKW"), std::string::npos);
    EXPECT_NE(s.find("cohwci_b"), std::string::npos);
    EXPECT_NE(s.find("strides"), std::string::npos);
}

}  // namespace
}  // namespace patdnn
