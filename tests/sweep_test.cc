/**
 * @file
 * End-to-end property sweeps: for a grid of (pattern-set size,
 * connectivity rate, geometry) the full compress->pack->execute
 * pipeline must preserve three invariants:
 *
 *   1. storage round-trip — FKW unpacks to exactly the pruned weights;
 *   2. execution equivalence — the pattern engine matches the dense
 *      reference on the pruned weights;
 *   3. sparsity accounting — kernel count and non-zeros match the
 *      requested constraints exactly.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/patdnn.h"

namespace patdnn {
namespace {

struct SweepCase
{
    int patterns;
    double connectivity_rate;
    int64_t cin, cout, h, w;
};

std::ostream&
operator<<(std::ostream& os, const SweepCase& c)
{
    return os << "p" << c.patterns << "_r" << static_cast<int>(c.connectivity_rate * 10)
              << "_c" << c.cin << "x" << c.cout << "_s" << c.h << "x" << c.w;
}

class PipelineSweep : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(PipelineSweep, PipelineInvariantsHold)
{
    SweepCase c = GetParam();
    ConvDesc d{"sweep", c.cin, c.cout, 3, 3, c.h, c.w, 1, 1, 1, 1};
    Rng rng(static_cast<uint64_t>(c.patterns * 1000 + c.cin));
    Tensor weight(Shape{d.cout, d.cin, 3, 3});
    weight.fillNormal(rng);

    PatternSet set = canonicalPatternSet(c.patterns);
    int64_t kernels = d.cout * d.cin;
    int64_t alpha = std::max<int64_t>(
        1, static_cast<int64_t>(std::ceil(kernels / c.connectivity_rate)));

    Tensor pruned = weight;
    FkwLayer fkw = pruneAndPack(pruned, set, alpha);

    // (3) sparsity accounting.
    EXPECT_EQ(fkw.kernelCount(), alpha);
    EXPECT_EQ(pruned.countNonZero(), alpha * 4);
    Status valid = validateFkw(fkw);
    ASSERT_TRUE(valid.ok()) << valid.toString();

    // (1) storage round trip.
    EXPECT_EQ(Tensor::maxAbsDiff(pruned, fkwToDense(fkw)), 0.0);

    // (2) execution equivalence on both device kinds.
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Tensor expect = makeConvOutput(d, 1);
    convReference(d, pruned, in, expect);
    for (bool gpu : {false, true}) {
        DeviceSpec dev = gpu ? makeGpuDevice() : makeCpuDevice(4);
        PatternConv engine(d, &fkw, TuneParams{}, OptSwitches{}, dev);
        Tensor got = makeConvOutput(d, 1);
        engine.run(in, got);
        EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3)
            << (gpu ? "gpu" : "cpu");
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PipelineSweep,
    ::testing::Values(SweepCase{4, 2.0, 8, 8, 10, 10},
                      SweepCase{6, 3.6, 8, 16, 12, 8},
                      SweepCase{8, 3.6, 16, 16, 9, 9},
                      SweepCase{8, 8.0, 16, 32, 14, 14},
                      SweepCase{12, 3.6, 12, 24, 8, 12},
                      SweepCase{12, 5.3, 24, 12, 7, 7},
                      SweepCase{16, 2.0, 10, 10, 16, 6},
                      SweepCase{8, 1.0, 6, 6, 8, 8}));

/** Compression ratio follows the closed form across connectivity rates. */
class CompressionSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CompressionSweep, RatioMatchesClosedForm)
{
    double rate = GetParam();
    ConvDesc d{"c", 24, 24, 3, 3, 8, 8, 1, 1, 1, 1};
    Rng rng(3);
    Tensor w(Shape{d.cout, d.cin, 3, 3});
    w.fillNormal(rng);
    PatternSet set = canonicalPatternSet(8);
    int64_t kernels = d.cout * d.cin;
    int64_t alpha = static_cast<int64_t>(std::ceil(kernels / rate));
    projectJoint(w, set, alpha);
    double measured = static_cast<double>(w.numel()) /
                      static_cast<double>(w.countNonZero());
    double expected = 9.0 / 4.0 * static_cast<double>(kernels) /
                      static_cast<double>(alpha);
    EXPECT_NEAR(measured, expected, expected * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Rates, CompressionSweep,
                         ::testing::Values(1.5, 2.0, 3.6, 5.3, 8.0));

}  // namespace
}  // namespace patdnn
