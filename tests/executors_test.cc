/**
 * @file
 * Cross-engine equivalence: every executor must match the reference
 * convolution over a parameterized sweep of geometries. This is the
 * core correctness property of the runtime — the pattern engine's
 * FKR/FKW/LRE transformations must be observationally invisible.
 */
#include <cstring>
#include <limits>
#include <vector>

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

/**
 * WinogradConv in its documented order, restated expression for
 * expression: U = G g G^T per filter, V = B^T d B per input tile, then
 * per (oc, tile, t) a sum that starts from 0 and adds U*V in cin order,
 * then Y = A^T m A, bias and ReLU. No tiling or ISA choice may change a
 * bit of it.
 */
void
winogradReference(const ConvDesc& d, const Tensor& w, const Tensor& in,
                  Tensor& out, const Epilogue& ep)
{
    const int64_t n = in.shape().dim(0);
    const int64_t oh = d.outH(), ow = d.outW();
    const int64_t tiles_x = (ow + 1) / 2;
    const int64_t tiles = ((oh + 1) / 2) * tiles_x;
    std::vector<float> u(static_cast<size_t>(d.cout * d.cin * 16));
    for (int64_t f = 0; f < d.cout * d.cin; ++f) {
        const float* g = w.data() + f * 9;
        float t[4][3];
        for (int c = 0; c < 3; ++c) {
            t[0][c] = g[c];
            t[1][c] = 0.5f * (g[c] + g[3 + c] + g[6 + c]);
            t[2][c] = 0.5f * (g[c] - g[3 + c] + g[6 + c]);
            t[3][c] = g[6 + c];
        }
        float* uf = u.data() + f * 16;
        for (int r = 0; r < 4; ++r) {
            uf[r * 4 + 0] = t[r][0];
            uf[r * 4 + 1] = 0.5f * (t[r][0] + t[r][1] + t[r][2]);
            uf[r * 4 + 2] = 0.5f * (t[r][0] - t[r][1] + t[r][2]);
            uf[r * 4 + 3] = t[r][2];
        }
    }
    std::vector<float> v(static_cast<size_t>(d.cin * tiles * 16));
    for (int64_t b = 0; b < n; ++b) {
        for (int64_t ic = 0; ic < d.cin; ++ic) {
            for (int64_t tile = 0; tile < tiles; ++tile) {
                const int64_t y0 = (tile / tiles_x) * 2 - d.pad;
                const int64_t x0 = (tile % tiles_x) * 2 - d.pad;
                float p[4][4];
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c) {
                        const int64_t iy = y0 + r, ix = x0 + c;
                        p[r][c] = iy < 0 || iy >= d.h || ix < 0 || ix >= d.w
                                      ? 0.0f
                                      : in[((b * d.cin + ic) * d.h + iy) * d.w + ix];
                    }
                float t[4][4];
                for (int c = 0; c < 4; ++c) {
                    t[0][c] = p[0][c] - p[2][c];
                    t[1][c] = p[1][c] + p[2][c];
                    t[2][c] = p[2][c] - p[1][c];
                    t[3][c] = p[1][c] - p[3][c];
                }
                float* vt = v.data() + (ic * tiles + tile) * 16;
                for (int r = 0; r < 4; ++r) {
                    vt[r * 4 + 0] = t[r][0] - t[r][2];
                    vt[r * 4 + 1] = t[r][1] + t[r][2];
                    vt[r * 4 + 2] = t[r][2] - t[r][1];
                    vt[r * 4 + 3] = t[r][1] - t[r][3];
                }
            }
        }
        for (int64_t oc = 0; oc < d.cout; ++oc) {
            for (int64_t tile = 0; tile < tiles; ++tile) {
                float m[16];
                for (int e = 0; e < 16; ++e) {
                    float acc = 0.0f;
                    for (int64_t ic = 0; ic < d.cin; ++ic)
                        acc += u[static_cast<size_t>((oc * d.cin + ic) * 16 + e)] *
                               v[static_cast<size_t>((ic * tiles + tile) * 16 + e)];
                    m[e] = acc;
                }
                float t[2][4];
                for (int c = 0; c < 4; ++c) {
                    t[0][c] = m[c] + m[4 + c] + m[8 + c];
                    t[1][c] = m[4 + c] - m[8 + c] - m[12 + c];
                }
                const float y[4] = {t[0][0] + t[0][1] + t[0][2],
                                    t[0][1] - t[0][2] - t[0][3],
                                    t[1][0] + t[1][1] + t[1][2],
                                    t[1][1] - t[1][2] - t[1][3]};
                for (int r = 0; r < 2; ++r)
                    for (int c = 0; c < 2; ++c) {
                        const int64_t oy = (tile / tiles_x) * 2 + r;
                        const int64_t ox = (tile % tiles_x) * 2 + c;
                        if (oy >= oh || ox >= ow)
                            continue;
                        float val = y[r * 2 + c] + (ep.bias ? (*ep.bias)[oc] : 0.0f);
                        if (ep.relu && val < 0.0f)
                            val = 0.0f;
                        out[((b * d.cout + oc) * oh + oy) * ow + ox] = val;
                    }
            }
        }
    }
}

TEST(WinogradBitwise, MatchesDocumentedOrderOnEveryIsa)
{
    // Ragged tile counts (3x3, 5x5 planes), planes smaller than one
    // tile row of the GEMM (2x2, 4x4), a full 16x16 plane; cout below,
    // off and on the tile width; batch 2. Unwritten outputs stay NaN.
    Rng rng(18);
    bool relu = false;
    for (int64_t hw : {2, 3, 4, 5, 16}) {
        for (int64_t cout : {16, 20, 64}) {
            for (int64_t cin : {3, 64}) {
                ConvDesc d{"t", cin, cout, 3, 3, hw, hw, 1, 1, 1, 1};
                Tensor w(Shape{cout, cin, 3, 3});
                w.fillNormal(rng, 0.0f, 0.5f);
                Tensor bias(Shape{cout});
                bias.fillNormal(rng, 0.0f, 0.1f);
                Tensor in(Shape{2, cin, hw, hw});
                in.fillUniform(rng, -1.0f, 1.0f);
                Epilogue ep;
                ep.bias = &bias;
                ep.relu = relu = !relu;
                Tensor want = makeConvOutput(d, 2);
                winogradReference(d, w, in, want, ep);
                for (SimdIsa isa : availableSimdIsas()) {
                    DeviceSpec dev = makeCpuDevice(4);
                    dev.simd_isa = isa;
                    Tensor got = makeConvOutput(d, 2);
                    got.fill(std::numeric_limits<float>::quiet_NaN());
                    WinogradConv(d, &w, dev).run(in, got, ep);
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          static_cast<size_t>(want.numel()) *
                                              sizeof(float)),
                              0)
                        << isaName(isa) << " hw=" << hw << " cout=" << cout
                        << " cin=" << cin;
                }
            }
        }
    }
}

/** Pattern engine vs reference across every optimization combination. */
struct PatternCase
{
    bool reorder, lre;
    int64_t tile_oh;  ///< 0 = the whole plane.
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

    OptSwitches sw;
    sw.reorder = pc.reorder;
    sw.lre = pc.lre;
    TuneParams tune;
    tune.permute = pc.perm;
    tune.tile_oh = pc.tile_oh;

    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;
    ep.relu = true;

    Tensor expect = makeConvOutput(d, 1);
    convReference(d, w, in, expect, ep);
    // Pool widths from one range to more ranges than FKR groups; the
    // GPU-like case cuts at group ends only.
    std::vector<DeviceSpec> devices;
    if (pc.gpu)
        devices.push_back(makeGpuDevice());
    else
        for (int t : {1, 3, 4, 8})
            devices.push_back(makeFixedWidthCpuDevice(t));
    for (const DeviceSpec& dev : devices) {
        PatternConv engine(d, &fkw, tune, sw, dev);
        Tensor got = makeConvOutput(d, 1);
        engine.run(in, got, ep);
        EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3) << dev.threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    OptCombos, PatternEngineSweep,
    ::testing::Values(
        PatternCase{false, false, 0, LoopPermutation::kCoCiHW, false},
        PatternCase{true, false, 0, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, 0, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, 4, LoopPermutation::kCoCiHW, false},
        PatternCase{true, true, 4, LoopPermutation::kCoHWCi, false},
        PatternCase{false, true, 4, LoopPermutation::kCoHWCi, false},
        PatternCase{true, false, 4, LoopPermutation::kCoHWCi, false},
        PatternCase{true, true, 4, LoopPermutation::kCoHWCi, true},
        PatternCase{false, false, 4, LoopPermutation::kCoHWCi, false}));

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
    PatternConv engine(d, &fkw, TuneParams{}, OptSwitches{}, makeCpuDevice(2));

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
    PatternConv engine(d, &fkw, TuneParams{}, OptSwitches{}, makeCpuDevice(2));
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
