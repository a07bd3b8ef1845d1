/**
 * @file
 * SIMD kernel-table conformance: every compiled ISA table must produce
 * bit-identical results to the scalar reference (the dispatch.h
 * exactness contract) across the primitives and the whole micro-kernels
 * — pattern shapes x strides x paddings x widths, including widths
 * below one vector — plus dispatch-layer behaviour when each ISA level
 * is forced.
 */
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/patdnn.h"

namespace patdnn {
namespace {

std::vector<const SimdOps*>
allTables()
{
    std::vector<const SimdOps*> tables;
    for (SimdIsa isa : availableSimdIsas())
        tables.push_back(simdOpsFor(isa));
    return tables;
}

std::vector<float>
randomVec(Rng& rng, size_t n)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = rng.normal();
    return v;
}

// n == 0 is skipped: empty vectors hand memcmp a null pointer, which
// is UB even for zero lengths.
#define EXPECT_BITWISE_EQ(a, b, n, label)                                     \
    EXPECT_TRUE((n) == 0 || std::memcmp((a), (b), (n) * sizeof(float)) == 0)  \
        << label

// ---------------------------------------------------------------------------
// Dispatch layer
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    const SimdOps* scalar = simdOpsFor(SimdIsa::kScalar);
    ASSERT_NE(scalar, nullptr);
    EXPECT_EQ(scalar->isa, SimdIsa::kScalar);
    EXPECT_EQ(scalar->width, 1);
    EXPECT_EQ(&scalarSimdOps(), scalar);
}

TEST(SimdDispatch, DetectedIsaIsAvailable)
{
    SimdIsa best = detectSimdIsa();
    const SimdOps* ops = simdOpsFor(best);
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->isa, best);
    // The detected table is the widest available one.
    for (SimdIsa isa : availableSimdIsas())
        EXPECT_LE(simdOpsFor(isa)->width, ops->width);
}

TEST(SimdDispatch, ResolveFallsBackToScalar)
{
    // Force every ISA level: available levels resolve to themselves,
    // unavailable ones degrade to scalar instead of crashing.
    for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
        const SimdOps& ops = resolveSimdOps(isa);
        if (simdOpsFor(isa) != nullptr)
            EXPECT_EQ(ops.isa, isa) << isaName(isa);
        else
            EXPECT_EQ(ops.isa, SimdIsa::kScalar) << isaName(isa);
    }
}

TEST(SimdDispatch, IsaNamesRoundTrip)
{
    for (SimdIsa isa : {SimdIsa::kScalar, SimdIsa::kAvx2, SimdIsa::kNeon}) {
        SimdIsa parsed;
        ASSERT_TRUE(parseIsaName(isaName(isa), &parsed));
        EXPECT_EQ(parsed, isa);
    }
    SimdIsa parsed;
    EXPECT_FALSE(parseIsaName("sse42", &parsed));
}

TEST(SimdDispatch, DeviceSpecReportsIsa)
{
    DeviceSpec dev = makeCpuDevice(2);
    EXPECT_EQ(dev.simd_isa, detectSimdIsa());
    EXPECT_STREQ(dev.simdName(), isaName(resolveSimdOps(dev.simd_isa).isa));
    dev.simd_isa = SimdIsa::kScalar;
    EXPECT_STREQ(dev.simdName(), "scalar");
}

// ---------------------------------------------------------------------------
// Primitive conformance vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdKernels, PatternAccumMatchesDocumentedChain)
{
    // The dispatch.h contract, restated here: per position, acc = out,
    // then kernels in segment order, entries in order, mul then add.
    // Entries 1-9; every length 1..70 covers blocks of 1-4 vectors and
    // partial last vectors on every width; an empty segment sits
    // between two live ones; sentinels past n must survive.
    Rng rng(7);
    const int64_t plane = 97;
    const int channels = 5;
    const float sentinel = 12345.0f;
    for (const SimdOps* ops : allTables()) {
        for (int entries = 1; entries <= 9; ++entries) {
            std::vector<int32_t> taps;
            for (int e = 0; e < entries; ++e)
                taps.push_back((e * 7) % 23);
            const int64_t counts[3] = {2, 0, 3};
            std::vector<float> weights = randomVec(rng, 5 * static_cast<size_t>(entries));
            std::vector<int32_t> chans = {4, 0, 2, 2, 1};
            PatternSegment segs[3];
            int64_t k0 = 0;
            for (int s = 0; s < 3; ++s) {
                segs[s] = {taps.data(), entries, weights.data() + k0 * entries,
                           chans.data() + k0, counts[s]};
                k0 += counts[s];
            }
            for (int64_t n = 1; n <= 70; ++n) {
                std::vector<float> in =
                    randomVec(rng, static_cast<size_t>(channels * plane + 23 + n + 16));
                std::vector<float> base = randomVec(rng, static_cast<size_t>(n));
                base.resize(static_cast<size_t>(n) + 16, sentinel);
                std::vector<float> want = base;
                for (int64_t i = 0; i < n; ++i) {
                    float acc = want[static_cast<size_t>(i)];
                    for (const PatternSegment& sg : segs)
                        for (int64_t k = 0; k < sg.count; ++k)
                            for (int e = 0; e < entries; ++e)
                                acc = acc + sg.weights[k * entries + e] *
                                                in[static_cast<size_t>(
                                                    sg.channels[k] * plane + taps[static_cast<size_t>(e)] + i)];
                    want[static_cast<size_t>(i)] = acc;
                }
                std::vector<float> got = base;
                ops->pattern_accum(in.data(), plane, segs, 3, got.data(), n);
                EXPECT_BITWISE_EQ(got.data(), want.data(), got.size(),
                                  ops->name << " entries=" << entries << " n=" << n);
            }
        }
    }
}

TEST(SimdKernels, AxpyMatchesScalar)
{
    Rng rng(13);
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        for (int64_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100}) {
            std::vector<float> x = randomVec(rng, static_cast<size_t>(n));
            std::vector<float> base = randomVec(rng, static_cast<size_t>(n));
            float a = rng.normal();
            std::vector<float> got = base, want = base;
            ref.axpy(a, x.data(), want.data(), n);
            ops->axpy(a, x.data(), got.data(), n);
            EXPECT_BITWISE_EQ(got.data(), want.data(), static_cast<size_t>(n),
                              ops->name << " n=" << n);
        }
    }
}

TEST(SimdKernels, GemmTileMatchesDocumentedChain)
{
    // The gemm_tile contract (dispatch.h): per output element, the
    // accumulation chain starts from C, walks k sequentially, IEEE
    // multiply then add. Each table is checked against that chain at
    // its own MR x NR footprint, over every live row and column count.
    // C ends exactly at its last live element, so under the sanitizers
    // a kernel that reads or writes a padded lane of the last row is a
    // heap overflow; gaps between rows must come back unchanged.
    Rng rng(14);
    for (const SimdOps* ops : allTables()) {
        const int mr = ops->gemm_mr;
        const int nr = ops->gemm_nr;
        ASSERT_GE(mr, 1);
        ASSERT_GE(nr, 1);
        for (int64_t kc : {1, 2, 7, 16, 33}) {
            std::vector<float> a =
                randomVec(rng, static_cast<size_t>(kc * mr));
            std::vector<float> b =
                randomVec(rng, static_cast<size_t>(kc * nr));
            for (int live_m = 1; live_m <= mr; ++live_m) {
                for (int live_n = 1; live_n <= nr; ++live_n) {
                    const int64_t ldc = nr + 3;  // sub-row stores only
                    const size_t c_elems =
                        static_cast<size_t>((live_m - 1) * ldc + live_n);
                    std::vector<float> c0 = randomVec(rng, c_elems);
                    std::vector<float> want = c0, got = c0;
                    for (int m = 0; m < live_m; ++m)
                        for (int n = 0; n < live_n; ++n) {
                            float acc = want[static_cast<size_t>(m * ldc + n)];
                            for (int64_t k = 0; k < kc; ++k)
                                acc += a[static_cast<size_t>(k * mr + m)] *
                                       b[static_cast<size_t>(k * nr + n)];
                            want[static_cast<size_t>(m * ldc + n)] = acc;
                        }
                    ops->gemm_tile(a.data(), b.data(), got.data(), ldc, kc,
                                   live_m, live_n);
                    EXPECT_BITWISE_EQ(got.data(), want.data(), c_elems,
                                      ops->name << " kc=" << kc << " m="
                                                << live_m << " n=" << live_n);
                }
            }
        }
    }
}

TEST(SimdKernels, GemmTileI8MatchesScalarReferenceExactly)
{
    // The gemm_tile_i8 contract (dispatch.h): k-pair interleaved
    // panels (LHS pre-widened to i16 by the pack, RHS i8), i32
    // accumulation starting from C. Integer accumulation is
    // exact, so every table must agree with a plain reference loop to
    // the bit, with no ordering caveat — stronger than the f32 chain.
    Rng rng(15);
    for (const SimdOps* ops : allTables()) {
        const int mr = ops->gemm_i8_mr;
        const int nr = ops->gemm_i8_nr;
        ASSERT_GE(mr, 1) << ops->name;
        ASSERT_GE(nr, 1) << ops->name;
        ASSERT_NE(ops->gemm_tile_i8, nullptr) << ops->name;
        for (int64_t kc : {1, 2, 3, 7, 16, 33, 64}) {
            const int64_t kp = (kc + 1) / 2;
            std::vector<int16_t> a(static_cast<size_t>(kp * mr * 2));
            std::vector<int8_t> b(static_cast<size_t>(kp * nr * 2));
            for (auto& v : a)
                v = static_cast<int16_t>(rng.uniformInt(-127, 127));
            for (auto& v : b)
                v = static_cast<int8_t>(rng.uniformInt(-127, 127));
            if (kc % 2 != 0) {
                // The pack layer zero-pads the odd tail pair; mirror it
                // so saturating-madd ISAs see what they see in vivo.
                for (int m = 0; m < mr; ++m)
                    a[static_cast<size_t>((kp - 1) * mr * 2 + m * 2 + 1)] = 0;
                for (int n = 0; n < nr; ++n)
                    b[static_cast<size_t>((kp - 1) * nr * 2 + n * 2 + 1)] = 0;
            }
            for (int live_m : {1, mr / 2 > 0 ? mr / 2 : 1, mr}) {
                for (int live_n : {1, nr / 2 > 0 ? nr / 2 : 1, nr}) {
                    const int64_t ldc = nr + 3;  // sub-row stores only
                    std::vector<int32_t> c0(static_cast<size_t>(mr * ldc));
                    for (auto& v : c0)
                        v = static_cast<int32_t>(rng.uniformInt(-1000, 1000));
                    std::vector<int32_t> want = c0, got = c0;
                    for (int m = 0; m < live_m; ++m)
                        for (int n = 0; n < live_n; ++n) {
                            int32_t acc = want[static_cast<size_t>(m * ldc + n)];
                            for (int64_t p = 0; p < kp; ++p) {
                                int32_t a0 = a[static_cast<size_t>(
                                    p * mr * 2 + m * 2)];
                                int32_t a1 = a[static_cast<size_t>(
                                    p * mr * 2 + m * 2 + 1)];
                                int32_t b0 = b[static_cast<size_t>(
                                    p * nr * 2 + n * 2)];
                                int32_t b1 = b[static_cast<size_t>(
                                    p * nr * 2 + n * 2 + 1)];
                                acc += a0 * b0 + a1 * b1;
                            }
                            want[static_cast<size_t>(m * ldc + n)] = acc;
                        }
                    ops->gemm_tile_i8(a.data(), b.data(), got.data(), ldc, kc,
                                      live_m, live_n);
                    // Exact agreement on live lanes AND untouched bytes
                    // everywhere else (no out-of-tile stores).
                    EXPECT_TRUE(std::memcmp(got.data(), want.data(),
                                            static_cast<size_t>(mr * ldc) *
                                                sizeof(int32_t)) == 0)
                        << ops->name << " kc=" << kc << " m=" << live_m
                        << " n=" << live_n;
                }
            }
        }
    }
}

TEST(SimdKernels, GemmTileI8SaturationStress)
{
    // Worst-case magnitudes: every product is 127*127 and signs align
    // within each k-pair, the adversarial input for any ISA that pairs
    // products in 16-bit lanes before widening. The scalar reference
    // accumulates in i32, so agreement proves no intermediate overflow.
    for (const SimdOps* ops : allTables()) {
        const int mr = ops->gemm_i8_mr;
        const int nr = ops->gemm_i8_nr;
        const int64_t kc = 64;
        const int64_t kp = (kc + 1) / 2;
        std::vector<int16_t> a(static_cast<size_t>(kp * mr * 2), 127);
        std::vector<int8_t> b(static_cast<size_t>(kp * nr * 2), -127);
        const int64_t ldc = nr;
        std::vector<int32_t> got(static_cast<size_t>(mr * ldc), 0);
        ops->gemm_tile_i8(a.data(), b.data(), got.data(), ldc, kc, mr, nr);
        for (int32_t v : got)
            EXPECT_EQ(v, static_cast<int32_t>(kc) * 127 * -127) << ops->name;
    }
}

TEST(SimdKernels, QuantizeRowI8MatchesScalarReferenceExactly)
{
    // quantize_row_i8 is bit-identical across tables (dispatch.h): same
    // f32 multiply, clamp and sign-matched rounding in every lane. Mix
    // in-range values, saturating magnitudes, exact half-steps and
    // signed zeros, and every vector-body/scalar-tail split.
    Rng rng(23);
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        ASSERT_NE(ops->quantize_row_i8, nullptr) << ops->name;
        for (int64_t n : {0, 1, 7, 16, 31, 32, 33, 64, 100, 257}) {
            std::vector<float> x(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                switch (i % 6) {
                  case 0: x[static_cast<size_t>(i)] = rng.uniform(-2.f, 2.f); break;
                  case 1: x[static_cast<size_t>(i)] = rng.uniform(-500.f, 500.f); break;
                  case 2: x[static_cast<size_t>(i)] = 0.25f * static_cast<float>(rng.uniformInt(-520, 520)); break;  // exact +-k/4 incl. half-steps
                  case 3: x[static_cast<size_t>(i)] = -0.0f; break;
                  case 4: x[static_cast<size_t>(i)] = 0.0f; break;
                  case 5: x[static_cast<size_t>(i)] = rng.uniform(-1e-3f, 1e-3f); break;
                }
            }
            for (float inv_scale : {0.5f, 1.0f, 64.0f, 0.0f}) {
                std::vector<int8_t> want(static_cast<size_t>(n) + 1, 99);
                std::vector<int8_t> got = want;
                ref.quantize_row_i8(x.data(), n, inv_scale, want.data());
                ops->quantize_row_i8(x.data(), n, inv_scale, got.data());
                EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size()), 0)
                    << ops->name << " n=" << n << " inv=" << inv_scale;
                // And the reference itself matches quantizeValue.
                for (int64_t i = 0; i < n; ++i)
                    EXPECT_EQ(want[static_cast<size_t>(i)],
                              quantizeValue(x[static_cast<size_t>(i)],
                                            inv_scale))
                        << "x=" << x[static_cast<size_t>(i)];
                EXPECT_EQ(got[static_cast<size_t>(n)], 99)
                    << ops->name << ": wrote past n";
            }
        }
    }
}

TEST(SimdKernels, ReluMatchesScalarIncludingSpecials)
{
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        for (int64_t n : {0, 1, 3, 7, 8, 9, 17, 33}) {
            std::vector<float> base(static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i) {
                switch (i % 5) {
                  case 0: base[static_cast<size_t>(i)] = -1.5f; break;
                  case 1: base[static_cast<size_t>(i)] = 2.25f; break;
                  case 2: base[static_cast<size_t>(i)] = 0.0f; break;
                  case 3: base[static_cast<size_t>(i)] = -0.0f; break;
                  case 4:
                    base[static_cast<size_t>(i)] =
                        std::numeric_limits<float>::quiet_NaN();
                    break;
                }
            }
            std::vector<float> got = base, want = base;
            ref.relu(want.data(), n);
            ops->relu(got.data(), n);
            for (int64_t i = 0; i < n; ++i)
                EXPECT_EQ(got[static_cast<size_t>(i)],
                          want[static_cast<size_t>(i)])
                    << ops->name << " n=" << n << " i=" << i;
        }
    }
}

// ---------------------------------------------------------------------------
// Executor-level: forcing each ISA on a device yields identical outputs
// ---------------------------------------------------------------------------

/** `d` compiled alone (singleConvModel weights from opts.seed) and run. */
Tensor
runSingleConv(const ConvDesc& d, FrameworkKind kind, const DeviceSpec& dev,
              const CompileOptions& opts, const Tensor& in)
{
    return CompiledModel(singleConvModel(d, opts.seed), kind, dev, opts).run(in);
}

TEST(SimdExecutors, PatternConvIdenticalAcrossForcedIsas)
{
    ConvDesc d{"simd", 8, 12, 3, 3, 19, 23, 1, 1, 1, 1};
    Tensor in(Shape{1, d.cin, d.h, d.w});
    Rng rng(23);
    in.fillUniform(rng, -1.0f, 1.0f);

    DeviceSpec ref_dev = makeCpuDevice(2);
    ref_dev.simd_isa = SimdIsa::kScalar;
    CompileOptions opts;
    opts.seed = 23;
    Tensor ref_out = runSingleConv(d, FrameworkKind::kPatDnn, ref_dev, opts, in);

    for (SimdIsa isa : availableSimdIsas()) {
        DeviceSpec dev = makeCpuDevice(2);
        dev.simd_isa = isa;
        Tensor out = runSingleConv(d, FrameworkKind::kPatDnn, dev, opts, in);
        ASSERT_EQ(out.numel(), ref_out.numel());
        EXPECT_BITWISE_EQ(out.data(), ref_out.data(),
                          static_cast<size_t>(out.numel()), isaName(isa));
    }
}

TEST(SimdExecutors, CsrConvIdenticalAcrossForcedIsas)
{
    for (int64_t stride : {1, 2}) {
        ConvDesc d{"csr", 6, 10, 3, 3, 17, 21, stride, 1, 1, 1};
        Tensor in(Shape{1, d.cin, d.h, d.w});
        Rng rng(29);
        in.fillUniform(rng, -1.0f, 1.0f);

        DeviceSpec ref_dev = makeCpuDevice(2);
        ref_dev.simd_isa = SimdIsa::kScalar;
        CompileOptions opts;
        opts.seed = 29;
        Tensor ref_out =
            runSingleConv(d, FrameworkKind::kCsrSparse, ref_dev, opts, in);

        for (SimdIsa isa : availableSimdIsas()) {
            DeviceSpec dev = makeCpuDevice(2);
            dev.simd_isa = isa;
            Tensor out = runSingleConv(d, FrameworkKind::kCsrSparse, dev, opts, in);
            EXPECT_BITWISE_EQ(out.data(), ref_out.data(),
                              static_cast<size_t>(out.numel()),
                              isaName(isa) << " stride=" << stride);
        }
    }
}

/**
 * A pattern-pruned FKW for `d` (8 canonical patterns, ~3.6x
 * connectivity) whose first filter has no kernels at all; `weight`
 * receives the pruned dense weights.
 */
FkwLayer
prunedFkwWithEmptyFilter(const ConvDesc& d, uint64_t seed, Tensor* weight)
{
    Rng rng(seed);
    *weight = Tensor(Shape{d.cout, d.cin, d.kh, d.kw});
    weight->fillNormal(rng, 0.0f, 0.5f);
    for (int64_t i = 0; i < d.cin * d.kh * d.kw; ++i)
        (*weight)[i] = 0.0f;
    PatternSet set = canonicalPatternSet(8);
    PatternAssignment asg = projectJoint(*weight, set, d.cout * d.cin * 10 / 36);
    return buildFkw(*weight, set, asg, filterKernelReorder(asg));
}

TEST(SimdExecutors, PatternConvBitIdenticalAcrossIsasAndLoopOrders)
{
    // Every ISA x the four Fig. 15 loop orders ({pixel block outside,
    // inside the kernel loop} x {row-tiled, not}) x pool widths 1-8
    // must give the same bits: they differ only in blocking and in
    // which thread runs a filter, never in a position's chain.
    // Planes from 32x32 down to 2x2 plus an odd 7x5, pad 0 and 1,
    // batch 3, one filter without kernels (and, with 8 patterns over
    // few kernels per filter, many empty pattern segments).
    const int64_t planes[][2] = {{32, 32}, {16, 16}, {8, 8}, {4, 4}, {2, 2}, {7, 5}};
    for (const auto& hw : planes) {
        for (int64_t pad : {0, 1}) {
            ConvDesc d{"bits", 6, 10, 3, 3, hw[0], hw[1], 1, pad, 1, 1};
            if (d.outH() < 1 || d.outW() < 1)
                continue;
            Tensor weight;
            FkwLayer fkw = prunedFkwWithEmptyFilter(d, 41, &weight);
            bool has_empty = false;
            for (int64_t f = 0; f < d.cout; ++f)
                has_empty |= fkw.offset[static_cast<size_t>(f)] ==
                             fkw.offset[static_cast<size_t>(f) + 1];
            ASSERT_TRUE(has_empty);
            Rng rng(43);
            Tensor in(Shape{3, d.cin, d.h, d.w});
            in.fillUniform(rng, -1.0f, 1.0f);
            Tensor bias(Shape{d.cout});
            bias.fillNormal(rng, 0.0f, 0.1f);
            Epilogue ep;
            ep.bias = &bias;
            ep.relu = true;

            Tensor want;
            bool have_want = false;
            for (SimdIsa isa : availableSimdIsas()) {
                for (LoopPermutation perm :
                     {LoopPermutation::kCoHWCi, LoopPermutation::kCoCiHW}) {
                    for (int64_t tile : {0, 3}) {
                        for (int threads : {1, 3, 4, 8}) {
                            TuneParams tune;
                            tune.permute = perm;
                            tune.tile_oh = tile;
                            DeviceSpec dev = makeFixedWidthCpuDevice(threads);
                            dev.simd_isa = isa;
                            PatternConv engine(d, &fkw, tune, OptSwitches{}, dev);
                            ASSERT_TRUE(engine.padded());
                            Tensor got = makeConvOutput(d, 3);
                            engine.run(in, got, ep);
                            if (!have_want) {
                                want = got;
                                have_want = true;
                                continue;
                            }
                            EXPECT_BITWISE_EQ(got.data(), want.data(),
                                              static_cast<size_t>(got.numel()),
                                              isaName(isa)
                                                  << " " << permutationName(perm) << " tile "
                                                  << tile
                                                  << " " << threads << " threads " << d.h
                                                  << "x" << d.w << " pad=" << pad);
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdExecutors, ArtifactRecordsTunedIsa)
{
    Model m("tiny-simd", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 8, 3, 3, 12, 12, 1, 1, 1, 1};
    m.addLayer(std::move(conv));
    m.randomizeWeights(31);
    DeviceSpec dev = makeCpuDevice(2);
    CompiledModel model(m, FrameworkKind::kPatDnn, dev);
    EXPECT_EQ(model.tunedIsa(), resolveSimdOps(dev.simd_isa).isa);

    std::vector<uint8_t> bytes = serializeModel(model);
    auto restored = deserializeModel(bytes, dev);
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    EXPECT_EQ(restored.value()->tunedIsa(), model.tunedIsa());

    // A host with a different forced ISA still loads (params are
    // valid, just tuned for another vector width).
    DeviceSpec scalar_dev = makeCpuDevice(2);
    scalar_dev.simd_isa = SimdIsa::kScalar;
    auto cross = deserializeModel(bytes, scalar_dev);
    ASSERT_TRUE(cross.ok()) << cross.status().toString();
    EXPECT_EQ(cross.value()->tunedIsa(), model.tunedIsa());
}

}  // namespace
}  // namespace patdnn
