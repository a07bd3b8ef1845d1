/** @file Register-load analysis tests (Fig. 14b machinery). */
#include <gtest/gtest.h>

#include "prune/projections.h"
#include "rt/load_analysis.h"

namespace patdnn {
namespace {

struct Built
{
    ConvDesc desc{"t", 16, 32, 3, 3, 14, 14, 1, 1, 1, 1};
    Tensor weight;
    PatternSet set = canonicalPatternSet(8);
    FkwLayer fkw;

    Built()
    {
        Rng rng(1);
        weight = Tensor(Shape{desc.cout, desc.cin, 3, 3});
        weight.fillNormal(rng);
        PatternAssignment asg = projectJoint(weight, set, 142);
        FkrResult fkr = filterKernelReorder(asg);
        fkw = buildFkw(weight, set, asg, fkr);
    }
};

TEST(LoadAnalysis, LreReducesTotalLoads)
{
    Built b;
    OptSwitches with;
    with.lre = true;
    OptSwitches without = with;
    without.lre = false;
    DeviceSpec dev = makeCpuDevice(4);
    LoadCounts on = analyzeLoads(b.desc, b.fkw, TuneParams{}, with, dev);
    LoadCounts off = analyzeLoads(b.desc, b.fkw, TuneParams{}, without, dev);
    // Without LRE every entry re-loads the output; the padded kernel
    // loads each accumulator once per filter and row tile (~4.4
    // kernels per filter here). Its pad columns (16 positions per
    // 14-wide row) cost some input loads back.
    EXPECT_GT(static_cast<double>(off.total()) / static_cast<double>(on.total()),
              1.5);
    EXPECT_GT(off.output_loads, 10 * on.output_loads);
}

TEST(LoadAnalysis, PaddedKernelCountsMatchClosedForm)
{
    Built b;
    int64_t oh = b.desc.outH(), ow = b.desc.outW();
    int64_t wp = b.desc.w + 2 * b.desc.pad;
    int64_t kernels = b.fkw.kernelCount();
    for (SimdIsa isa : availableSimdIsas()) {
        DeviceSpec dev = makeCpuDevice(4);
        dev.simd_isa = isa;
        int64_t block = 4 * resolveSimdOps(isa).width;
        TuneParams t;
        t.tile_oh = 0;
        t.permute = LoopPermutation::kCoHWCi;
        // One flat row of (OH-1)*(W+2p) + OW positions per filter.
        int64_t n = (oh - 1) * wp + ow;
        LoadCounts c = analyzeLoads(b.desc, b.fkw, t, OptSwitches{}, dev);
        EXPECT_EQ(c.output_loads, b.desc.cout * n) << isaName(isa);
        EXPECT_EQ(c.input_loads, kernels * 4 * n) << isaName(isa);
        EXPECT_EQ(c.weight_loads, kernels * 4 * ((n + block - 1) / block))
            << isaName(isa);
        // Pixel block inside the kernel loop: accumulators reload per
        // kernel.
        t.permute = LoopPermutation::kCoCiHW;
        c = analyzeLoads(b.desc, b.fkw, t, OptSwitches{}, dev);
        EXPECT_EQ(c.output_loads, kernels * n) << isaName(isa);
        // Row tiles of 4 (14 rows: 4+4+4+2) each drop their last row's
        // pad columns and round up to whole blocks on their own.
        t.permute = LoopPermutation::kCoHWCi;
        t.tile_oh = 4;
        int64_t t4 = 3 * wp + ow, t2 = wp + ow;
        c = analyzeLoads(b.desc, b.fkw, t, OptSwitches{}, dev);
        EXPECT_EQ(c.output_loads, b.desc.cout * (3 * t4 + t2)) << isaName(isa);
        EXPECT_EQ(c.weight_loads,
                  kernels * 4 * (3 * ((t4 + block - 1) / block) + (t2 + block - 1) / block))
            << isaName(isa);
    }
}

TEST(LoadAnalysis, StridedLreCountsOnePassPerKernel)
{
    Built b;
    ConvDesc d = b.desc;
    d.stride = 2;
    LoadCounts c = analyzeLoads(d, b.fkw, TuneParams{}, OptSwitches{}, makeCpuDevice(4));
    int64_t pixels = d.outH() * d.outW();
    EXPECT_EQ(c.output_loads, b.fkw.kernelCount() * pixels);
    EXPECT_EQ(c.input_loads, b.fkw.kernelCount() * 4 * pixels);
    EXPECT_EQ(c.weight_loads, b.fkw.kernelCount() * 4);
}

TEST(LoadAnalysis, NoLreCountsMatchClosedForm)
{
    Built b;
    OptSwitches no_lre;
    no_lre.lre = false;
    LoadCounts c = analyzeLoads(b.desc, b.fkw, TuneParams{}, no_lre, makeCpuDevice(4));
    int64_t pixels = b.desc.outH() * b.desc.outW();
    int64_t kernels = b.fkw.kernelCount();
    // Without LRE each kernel performs entries passes: one output load
    // and one input load per pixel per entry.
    EXPECT_EQ(c.output_loads, kernels * pixels * 4);
    EXPECT_EQ(c.input_loads, kernels * pixels * 4);
    EXPECT_EQ(c.weight_loads, kernels * 4);
}

}  // namespace
}  // namespace patdnn
