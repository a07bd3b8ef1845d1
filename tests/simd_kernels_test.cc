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

TEST(SimdKernels, AccumRowsMatchesScalar)
{
    Rng rng(7);
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        for (int live = 1; live <= 9; ++live) {
            for (int64_t n : {0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                              100}) {
                for (int unroll : {1, 4, 8, 16, 32}) {
                    std::vector<std::vector<float>> storage;
                    std::vector<const float*> rows;
                    for (int e = 0; e < live; ++e) {
                        storage.push_back(randomVec(rng, static_cast<size_t>(n)));
                        rows.push_back(storage.back().data());
                    }
                    std::vector<float> w = randomVec(rng, 9);
                    std::vector<float> base =
                        randomVec(rng, static_cast<size_t>(n));
                    std::vector<float> got = base, want = base;
                    ref.accum_rows(rows.data(), w.data(), live, want.data(), n,
                                   unroll);
                    ops->accum_rows(rows.data(), w.data(), live, got.data(), n,
                                    unroll);
                    EXPECT_BITWISE_EQ(got.data(), want.data(),
                                      static_cast<size_t>(n),
                                      ops->name << " live=" << live
                                                << " n=" << n
                                                << " unroll=" << unroll);
                }
            }
        }
    }
}

TEST(SimdKernels, AccumRowsMultiMatchesScalar)
{
    Rng rng(11);
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        for (int live : {1, 2, 3, 4, 7, 9}) {
            for (int count : {1, 2, 3, 7, 16}) {
                for (int64_t n : {0, 1, 3, 7, 8, 9, 17, 33, 64}) {
                    std::vector<std::vector<float>> row_storage;
                    std::vector<const float*> rows;
                    for (int e = 0; e < live; ++e) {
                        row_storage.push_back(
                            randomVec(rng, static_cast<size_t>(n)));
                        rows.push_back(row_storage.back().data());
                    }
                    // wsel indexes into each filter's 9-entry kernel.
                    std::vector<int> wsel;
                    for (int e = 0; e < live; ++e)
                        wsel.push_back((e * 2) % 9);
                    std::vector<std::vector<float>> w_storage;
                    std::vector<const float*> weights;
                    for (int f = 0; f < count; ++f) {
                        w_storage.push_back(randomVec(rng, 9));
                        weights.push_back(w_storage.back().data());
                    }
                    std::vector<std::vector<float>> want_storage, got_storage;
                    for (int f = 0; f < count; ++f) {
                        auto base = randomVec(rng, static_cast<size_t>(n));
                        want_storage.push_back(base);
                        got_storage.push_back(base);
                    }
                    std::vector<float*> want_ptrs, got_ptrs;
                    for (int f = 0; f < count; ++f) {
                        want_ptrs.push_back(want_storage[static_cast<size_t>(f)]
                                                .data());
                        got_ptrs.push_back(
                            got_storage[static_cast<size_t>(f)].data());
                    }
                    ref.accum_rows_multi(rows.data(), live, wsel.data(),
                                         weights.data(), want_ptrs.data(),
                                         count, n);
                    ops->accum_rows_multi(rows.data(), live, wsel.data(),
                                          weights.data(), got_ptrs.data(),
                                          count, n);
                    for (int f = 0; f < count; ++f)
                        EXPECT_BITWISE_EQ(got_ptrs[static_cast<size_t>(f)],
                                          want_ptrs[static_cast<size_t>(f)],
                                          static_cast<size_t>(n),
                                          ops->name << " live=" << live
                                                    << " count=" << count
                                                    << " n=" << n << " f="
                                                    << f);
                }
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
    // its own MR x NR footprint, over full tiles and ragged edges.
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
            for (int live_m : {1, mr / 2 > 0 ? mr / 2 : 1, mr}) {
                for (int live_n : {1, nr / 2 > 0 ? nr / 2 : 1, nr}) {
                    const int64_t ldc = nr + 3;  // sub-row stores only
                    std::vector<float> c0 =
                        randomVec(rng, static_cast<size_t>(mr * ldc));
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
                    EXPECT_BITWISE_EQ(got.data(), want.data(),
                                      static_cast<size_t>(mr * ldc),
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
// Whole micro-kernel conformance across geometries
// ---------------------------------------------------------------------------

TEST(SimdKernels, KernelAccumulateLreMatchesScalarAcrossGeometries)
{
    const std::vector<std::vector<int>> shapes = {
        {4},                          // single entry
        {0, 8},                       // opposite corners
        {4, 1, 3, 5},                 // the canonical cross
        {0, 2, 4, 6, 8},              // X shape
        {0, 1, 2, 3, 4, 5, 6, 7, 8},  // dense 3x3
    };
    Rng rng(17);
    const SimdOps& ref = scalarSimdOps();
    for (const SimdOps* ops : allTables()) {
        for (const auto& kept : shapes) {
            PatternKernel pk = lowerPattern(Pattern(3, 3, kept));
            std::vector<float> w = randomVec(rng, kept.size());
            for (int64_t stride : {1, 2}) {
                for (int64_t pad : {0, 1, 2}) {
                    // Widths below one vector (1..7), around one vector
                    // and spanning several.
                    for (int64_t in_w : {1, 2, 3, 5, 7, 8, 9, 17, 33}) {
                        for (int64_t in_h : {1, 3, 7}) {
                            int64_t ow = (in_w + 2 * pad - 3) / stride + 1;
                            int64_t oh = (in_h + 2 * pad - 3) / stride + 1;
                            if (ow < 1 || oh < 1)
                                continue;
                            for (int unroll : {1, 8, 16}) {
                                auto in = randomVec(
                                    rng, static_cast<size_t>(in_h * in_w));
                                auto base = randomVec(
                                    rng, static_cast<size_t>(oh * ow));
                                PlaneGeom g;
                                g.h = in_h;
                                g.w = in_w;
                                g.oh = oh;
                                g.ow = ow;
                                g.pad = pad;
                                g.stride = stride;
                                g.y0 = 0;
                                g.y1 = oh;
                                g.x0 = 0;
                                g.x1 = ow;
                                auto want = base;
                                auto got = base;
                                kernelAccumulateLre(pk, w.data(), in.data(),
                                                    want.data(), g, unroll,
                                                    &ref);
                                kernelAccumulateLre(pk, w.data(), in.data(),
                                                    got.data(), g, unroll,
                                                    ops);
                                EXPECT_BITWISE_EQ(
                                    got.data(), want.data(),
                                    static_cast<size_t>(oh * ow),
                                    ops->name << " entries=" << pk.entries
                                              << " stride=" << stride
                                              << " pad=" << pad << " w="
                                              << in_w << " h=" << in_h
                                              << " unroll=" << unroll);
                            }
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdKernels, KernelAccumulateMultiFilterMatchesScalar)
{
    Rng rng(19);
    const SimdOps& ref = scalarSimdOps();
    PatternKernel pk = lowerPattern(Pattern(3, 3, std::vector<int>{4, 1, 3, 5}));
    for (const SimdOps* ops : allTables()) {
        for (int count : {2, 5, 16}) {
            for (int64_t stride : {1, 2}) {
                for (int64_t pad : {0, 1}) {
                    for (int64_t in_w : {5, 8, 20, 33}) {
                        int64_t in_h = 9;
                        int64_t ow = (in_w + 2 * pad - 3) / stride + 1;
                        int64_t oh = (in_h + 2 * pad - 3) / stride + 1;
                        if (ow < 1 || oh < 1)
                            continue;
                        auto in =
                            randomVec(rng, static_cast<size_t>(in_h * in_w));
                        std::vector<std::vector<float>> w_storage;
                        std::vector<const float*> weights;
                        for (int f = 0; f < count; ++f) {
                            w_storage.push_back(randomVec(rng, 4));
                            weights.push_back(w_storage.back().data());
                        }
                        std::vector<std::vector<float>> want_storage,
                            got_storage;
                        std::vector<float*> want_ptrs, got_ptrs;
                        for (int f = 0; f < count; ++f) {
                            auto base =
                                randomVec(rng, static_cast<size_t>(oh * ow));
                            want_storage.push_back(base);
                            got_storage.push_back(base);
                        }
                        for (int f = 0; f < count; ++f) {
                            want_ptrs.push_back(
                                want_storage[static_cast<size_t>(f)].data());
                            got_ptrs.push_back(
                                got_storage[static_cast<size_t>(f)].data());
                        }
                        PlaneGeom g;
                        g.h = in_h;
                        g.w = in_w;
                        g.oh = oh;
                        g.ow = ow;
                        g.pad = pad;
                        g.stride = stride;
                        g.y0 = 0;
                        g.y1 = oh;
                        g.x0 = 0;
                        g.x1 = ow;
                        kernelAccumulateMultiFilter(pk, weights.data(),
                                                    in.data(), want_ptrs.data(),
                                                    count, g, &ref);
                        kernelAccumulateMultiFilter(pk, weights.data(),
                                                    in.data(), got_ptrs.data(),
                                                    count, g, ops);
                        for (int f = 0; f < count; ++f)
                            EXPECT_BITWISE_EQ(
                                got_ptrs[static_cast<size_t>(f)],
                                want_ptrs[static_cast<size_t>(f)],
                                static_cast<size_t>(oh * ow),
                                ops->name << " count=" << count << " stride="
                                          << stride << " pad=" << pad
                                          << " w=" << in_w << " f=" << f);
                    }
                }
            }
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

TEST(SimdExecutors, OversizedUnrollOcClampsToBundleCap)
{
    // unroll_oc beyond the 16-filter bundle cap (hand-written tuning
    // or a crafted artifact) must clamp at plan time — same plan, same
    // bits as 16 — not silently drop filters 17+ at run time.
    ConvDesc d{"clamp", 8, 48, 3, 3, 15, 17, 1, 1, 1, 1};
    Tensor in(Shape{1, d.cin, d.h, d.w});
    Rng rng(37);
    in.fillUniform(rng, -1.0f, 1.0f);
    DeviceSpec dev = makeCpuDevice(2);
    CompileOptions opts;
    opts.seed = 37;
    opts.default_tuning.unroll_oc = 16;
    Tensor out_capped = runSingleConv(d, FrameworkKind::kPatDnn, dev, opts, in);
    opts.default_tuning.unroll_oc = 64;
    Tensor out_oversized = runSingleConv(d, FrameworkKind::kPatDnn, dev, opts, in);
    EXPECT_BITWISE_EQ(out_oversized.data(), out_capped.data(),
                      static_cast<size_t>(out_capped.numel()), "unroll_oc=64");
}

TEST(SimdExecutors, TuneSpaceScalesWithVectorWidth)
{
    TuneSpace scalar_space = tuneSpaceFor(SimdIsa::kScalar);
    EXPECT_EQ(scalar_space.unroll_w, TuneSpace{}.unroll_w);
    for (SimdIsa isa : availableSimdIsas()) {
        const SimdOps& ops = *simdOpsFor(isa);
        if (ops.width <= 1)
            continue;
        TuneSpace space = tuneSpaceFor(isa);
        for (int uw : space.unroll_w)
            EXPECT_EQ(uw % ops.width, 0)
                << isaName(isa) << " unroll_w=" << uw;
        for (int64_t tow : space.tile_ow)
            EXPECT_EQ(tow % ops.width, 0)
                << isaName(isa) << " tile_ow=" << tow;
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
