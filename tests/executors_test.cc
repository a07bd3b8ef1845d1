/**
 * @file
 * Cross-engine equivalence: every executor must match the reference
 * convolution over a parameterized sweep of geometries. This is the
 * core correctness property of the runtime — the pattern engine's
 * FKR/FKW/LRE transformations must be observationally invisible.
 */
#include <gtest/gtest.h>

#include "prune/pattern_set.h"
#include "prune/projections.h"
#include "rt/conv_csr.h"
#include "rt/conv_im2col.h"
#include "rt/conv_naive.h"
#include "rt/conv_pattern.h"
#include "rt/conv_ref.h"
#include "rt/conv_winograd.h"
#include "sparse/fkw.h"

namespace patdnn {
namespace {

struct ConvCase
{
    int64_t cin, cout, k, h, w, stride, pad;
};

std::ostream&
operator<<(std::ostream& os, const ConvCase& c)
{
    return os << "cin" << c.cin << "_cout" << c.cout << "_k" << c.k << "_h" << c.h
              << "_w" << c.w << "_s" << c.stride << "_p" << c.pad;
}

class DenseExecutorSweep : public ::testing::TestWithParam<ConvCase>
{
};

ConvDesc
makeDesc(const ConvCase& c)
{
    return ConvDesc{"t", c.cin, c.cout, c.k, c.k, c.h, c.w, c.stride, c.pad, 1, 1};
}

TEST_P(DenseExecutorSweep, AllDenseEnginesMatchReference)
{
    ConvCase c = GetParam();
    ConvDesc d = makeDesc(c);
    Rng rng(42);
    Tensor w(Shape{d.cout, d.cin, d.kh, d.kw});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{d.cout});
    bias.fillNormal(rng, 0.0f, 0.1f);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;

    Tensor expect = makeConvOutput(d, 1);
    convReference(d, w, in, expect, ep);

    DeviceSpec dev = makeCpuDevice(4);

    Tensor got = makeConvOutput(d, 1);
    NaiveConv(d, &w, dev).run(in, got, ep);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3) << "naive";

    got.fill(0.0f);
    Im2colConv(d, &w, dev).run(in, got, ep);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3) << "im2col";

    if (WinogradConv::applies(d)) {
        got.fill(0.0f);
        WinogradConv(d, &w, dev).run(in, got, ep);
        EXPECT_LT(Tensor::maxAbsDiff(expect, got), 2e-3) << "winograd";
    }

    got.fill(0.0f);
    CsrConv(d, buildCsr(w), dev).run(in, got, ep);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3) << "csr";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DenseExecutorSweep,
    ::testing::Values(ConvCase{3, 8, 3, 16, 16, 1, 1}, ConvCase{8, 16, 3, 15, 17, 1, 1},
                      ConvCase{4, 4, 3, 9, 9, 2, 1}, ConvCase{16, 8, 1, 12, 12, 1, 0},
                      ConvCase{8, 8, 5, 14, 14, 1, 2}, ConvCase{6, 10, 3, 8, 8, 1, 0},
                      ConvCase{12, 12, 3, 20, 10, 2, 1},
                      ConvCase{5, 7, 3, 11, 13, 1, 1}));

/** Pattern engine vs reference across every optimization combination. */
struct PatternCase
{
    bool reorder, lre, blocked;
    LoopPermutation perm;
    bool gpu;
};

class PatternEngineSweep : public ::testing::TestWithParam<PatternCase>
{
};

TEST_P(PatternEngineSweep, MatchesReferenceOnPrunedWeights)
{
    PatternCase pc = GetParam();
    ConvDesc d{"t", 10, 24, 3, 3, 18, 14, 1, 1, 1, 1};
    Rng rng(7);
    Tensor w(Shape{d.cout, d.cin, d.kh, d.kw});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{d.cout});
    bias.fillNormal(rng, 0.0f, 0.1f);

    PatternSet set = canonicalPatternSet(8);
    int64_t kernels = d.cout * d.cin;
    int64_t alpha = kernels * 10 / 36;  // ~3.6x connectivity pruning.
    PatternAssignment asg = projectJoint(w, set, alpha);

    FkrOptions fkr_opts;
    fkr_opts.reorder_filters = pc.reorder;
    fkr_opts.similarity_within_group = pc.reorder;
    fkr_opts.reorder_kernels = pc.reorder;
    FkrResult fkr = filterKernelReorder(asg, fkr_opts);
    FkwLayer fkw = buildFkw(w, set, asg, fkr);
    Status valid = validateFkw(fkw);
    ASSERT_TRUE(valid.ok()) << valid.toString();

    LayerwiseRep lr;
    lr.conv = d;
    lr.opts.reorder = pc.reorder;
    lr.opts.lre = pc.lre;
    lr.tuning.blocked = pc.blocked;
    lr.tuning.permute = pc.perm;
    lr.tuning.tile_oh = 4;
    lr.tuning.filters_per_task = 5;

    DeviceSpec dev = pc.gpu ? makeGpuDevice() : makeCpuDevice(4);
    PatternConv engine(d, &fkw, lr, dev);

    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;
    ep.relu = true;

    Tensor expect = makeConvOutput(d, 1);
    convReference(d, w, in, expect, ep);
    Tensor got = makeConvOutput(d, 1);
    engine.run(in, got, ep);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    OptCombos, PatternEngineSweep,
    ::testing::Values(
        PatternCase{false, false, false, LoopPermutation::kCoCiHW, false},
        PatternCase{true, false, false, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, false, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, true, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, true, LoopPermutation::kCoHWCi, false},
        PatternCase{false, true, true, LoopPermutation::kCoHWCi, false},
        PatternCase{true, false, true, LoopPermutation::kCoHWCi, false},
        PatternCase{true, true, true, LoopPermutation::kCoHWCi, true},
        PatternCase{false, false, true, LoopPermutation::kCoHWCi, false}));

TEST(PatternEngineBatch, BatchedInputMatchesReference)
{
    ConvDesc d{"t", 6, 12, 3, 3, 10, 10, 1, 1, 1, 1};
    Rng rng(9);
    Tensor w(Shape{d.cout, d.cin, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    PatternSet set = canonicalPatternSet(6);
    PatternAssignment asg = projectJoint(w, set, 40);
    FkrResult fkr = filterKernelReorder(asg);
    FkwLayer fkw = buildFkw(w, set, asg, fkr);
    LayerwiseRep lr;
    lr.conv = d;
    DeviceSpec dev = makeCpuDevice(2);
    PatternConv engine(d, &fkw, lr, dev);

    Tensor in(Shape{3, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor expect = makeConvOutput(d, 3);
    convReference(d, w, in, expect);
    Tensor got = makeConvOutput(d, 3);
    engine.run(in, got);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3);
}

TEST(PatternEngineStride, Stride2Geometry)
{
    ConvDesc d{"t", 4, 8, 3, 3, 12, 12, 2, 1, 1, 1};
    Rng rng(11);
    Tensor w(Shape{d.cout, d.cin, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    PatternSet set = canonicalPatternSet(4);
    PatternAssignment asg = projectJoint(w, set, 16);
    FkrResult fkr = filterKernelReorder(asg);
    FkwLayer fkw = buildFkw(w, set, asg, fkr);
    LayerwiseRep lr;
    lr.conv = d;
    PatternConv engine(d, &fkw, lr, makeCpuDevice(2));
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor expect = makeConvOutput(d, 1);
    convReference(d, w, in, expect);
    Tensor got = makeConvOutput(d, 1);
    engine.run(in, got);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3);
}

}  // namespace
}  // namespace patdnn
