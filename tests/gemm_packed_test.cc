/**
 * @file
 * Packed tiled GEMM backend: pack/unpack layout invariants, bit-exact
 * agreement across ISAs and blocking choices (the dispatch.h contract
 * extended to gemm_tile), differential correctness of the rebuilt
 * im2col executor against the reference convolution, and the dense
 * auto-tune path (TuneCache memoization).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/compiler.h"
#include "rt/conv_im2col.h"
#include "rt/conv_ref.h"
#include "rt/gemm_packed.h"
#include "rt/simd/dispatch.h"
#include "rt/tuner.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace patdnn {
namespace {

/** The contract's accumulation chain: acc starts from C, sequential in
 * k, multiply then add. Any bit-exact tile kernel must match this. */
void
refGemmAccum(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n)
{
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            float acc = c[i * n + j];
            for (int64_t kk = 0; kk < k; ++kk)
                acc += a[i * k + kk] * b[kk * n + j];
            c[i * n + j] = acc;
        }
}

std::vector<float>
randomMatrix(int64_t rows, int64_t cols, uint64_t seed)
{
    Rng rng(seed);
    std::vector<float> m(static_cast<size_t>(rows * cols));
    for (float& v : m)
        v = rng.uniform(-1.0f, 1.0f);
    return m;
}

TEST(GemmPack, LhsTilePanelsHoldRowsColumnMajorWithZeroPad)
{
    const int64_t m = 6, k = 5;
    const int mr = 4;
    std::vector<float> a = randomMatrix(m, k, 11);
    std::vector<float> packed(static_cast<size_t>(packedLhsElems(m, k, mr)),
                              -1.0f);
    packLhsTiles(a.data(), m, k, /*lda=*/k, mr, packed.data());

    // Tile i, depth kk, lane r holds A[i*mr + r][kk]; lanes past M are 0.
    const int64_t tiles = (m + mr - 1) / mr;
    ASSERT_EQ(static_cast<int64_t>(packed.size()), tiles * k * mr);
    for (int64_t i = 0; i < tiles; ++i)
        for (int64_t kk = 0; kk < k; ++kk)
            for (int r = 0; r < mr; ++r) {
                int64_t row = i * mr + r;
                float want = row < m ? a[static_cast<size_t>(row * k + kk)] : 0.0f;
                EXPECT_EQ(packed[static_cast<size_t>((i * k + kk) * mr + r)], want)
                    << "tile " << i << " depth " << kk << " lane " << r;
            }
}

TEST(GemmPack, RhsTilePanelsHoldColumnsRowMajorWithZeroPad)
{
    const int64_t k = 7, n = 10;
    const int nr = 8;
    std::vector<float> b = randomMatrix(k, n, 12);
    std::vector<float> packed(static_cast<size_t>(packedRhsElems(k, n, nr)),
                              -1.0f);
    packRhsTiles(b.data(), k, n, /*ldb=*/n, nr, packed.data());

    const int64_t tiles = (n + nr - 1) / nr;
    ASSERT_EQ(static_cast<int64_t>(packed.size()), tiles * k * nr);
    for (int64_t j = 0; j < tiles; ++j)
        for (int64_t kk = 0; kk < k; ++kk)
            for (int c = 0; c < nr; ++c) {
                int64_t col = j * nr + c;
                float want = col < n ? b[static_cast<size_t>(kk * n + col)] : 0.0f;
                EXPECT_EQ(packed[static_cast<size_t>((j * k + kk) * nr + c)], want)
                    << "tile " << j << " depth " << kk << " lane " << c;
            }
}

TEST(GemmPack, I8LhsPanelsAreKPairInterleavedWithZeroPad)
{
    const int64_t m = 6, k = 5;  // Odd k: the tail pair is zero-padded.
    const int mr = 4;
    Rng rng(41);
    std::vector<int8_t> a(static_cast<size_t>(m * k));
    for (auto& v : a)
        v = static_cast<int8_t>(rng.uniformInt(-127, 127));
    std::vector<int16_t> packed(
        static_cast<size_t>(packedLhsElemsI8(m, k, mr)), -1);
    packLhsTilesI8(a.data(), m, k, /*lda=*/k, mr, packed.data());

    const int64_t tiles = (m + mr - 1) / mr;
    const int64_t kp = (k + 1) / 2;
    ASSERT_EQ(static_cast<int64_t>(packed.size()), tiles * kp * mr * 2);
    // Tile i, pair p, lane r, slot s holds A[i*mr + r][2p + s]; lanes
    // past M and the odd-k tail slot hold 0.
    for (int64_t i = 0; i < tiles; ++i)
        for (int64_t p = 0; p < kp; ++p)
            for (int r = 0; r < mr; ++r)
                for (int s = 0; s < 2; ++s) {
                    int64_t row = i * mr + r;
                    int64_t kk = 2 * p + s;
                    // The pack widens i8 values to i16 verbatim.
                    int16_t want =
                        (row < m && kk < k)
                            ? static_cast<int16_t>(
                                  a[static_cast<size_t>(row * k + kk)])
                            : static_cast<int16_t>(0);
                    EXPECT_EQ(packed[static_cast<size_t>(
                                  ((i * kp + p) * mr + r) * 2 + s)],
                              want)
                        << "tile " << i << " pair " << p << " lane " << r
                        << " slot " << s;
                }
}

TEST(GemmPack, I8RhsPanelsAreKPairInterleavedWithZeroPad)
{
    const int64_t k = 7, n = 10;
    const int nr = 8;
    Rng rng(42);
    std::vector<int8_t> b(static_cast<size_t>(k * n));
    for (auto& v : b)
        v = static_cast<int8_t>(rng.uniformInt(-127, 127));
    std::vector<int8_t> packed(
        static_cast<size_t>(packedRhsElemsI8(k, n, nr)), -1);
    packRhsTilesI8(b.data(), k, n, /*ldb=*/n, nr, packed.data());

    const int64_t tiles = (n + nr - 1) / nr;
    const int64_t kp = (k + 1) / 2;
    ASSERT_EQ(static_cast<int64_t>(packed.size()), tiles * kp * nr * 2);
    for (int64_t j = 0; j < tiles; ++j)
        for (int64_t p = 0; p < kp; ++p)
            for (int c = 0; c < nr; ++c)
                for (int s = 0; s < 2; ++s) {
                    int64_t col = j * nr + c;
                    int64_t kk = 2 * p + s;
                    int8_t want =
                        (col < n && kk < k)
                            ? b[static_cast<size_t>(kk * n + col)]
                            : static_cast<int8_t>(0);
                    EXPECT_EQ(packed[static_cast<size_t>(
                                  ((j * kp + p) * nr + c) * 2 + s)],
                              want)
                        << "tile " << j << " pair " << p << " lane " << c
                        << " slot " << s;
                }
}

/** The i8 packed GEMM agrees exactly with a naive i32 loop on every
 * available ISA and under every blocking choice — integer accumulation
 * is exact, so this is plain equality, not a chain-matching argument. */
TEST(GemmPacked, I8ExactAgainstNaiveOnEveryIsaAndBlocking)
{
    const int64_t m = 13, k = 37, n = 29;  // Odd: ragged edges everywhere.
    Rng rng(43);
    std::vector<int8_t> a(static_cast<size_t>(m * k));
    std::vector<int8_t> b(static_cast<size_t>(k * n));
    for (auto& v : a)
        v = static_cast<int8_t>(rng.uniformInt(-127, 127));
    for (auto& v : b)
        v = static_cast<int8_t>(rng.uniformInt(-127, 127));

    std::vector<int32_t> want(static_cast<size_t>(m * n), 0);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (int64_t kk = 0; kk < k; ++kk)
                acc += static_cast<int32_t>(a[static_cast<size_t>(i * k + kk)]) *
                       static_cast<int32_t>(b[static_cast<size_t>(kk * n + j)]);
            want[static_cast<size_t>(i * n + j)] = acc;
        }

    for (SimdIsa isa : availableSimdIsas()) {
        const SimdOps& ops = resolveSimdOps(isa);
        std::vector<int16_t> lhs(
            static_cast<size_t>(packedLhsElemsI8(m, k, ops.gemm_i8_mr)));
        std::vector<int8_t> rhs(
            static_cast<size_t>(packedRhsElemsI8(k, n, ops.gemm_i8_nr)));
        packLhsTilesI8(a.data(), m, k, k, ops.gemm_i8_mr, lhs.data());
        packRhsTilesI8(b.data(), k, n, n, ops.gemm_i8_nr, rhs.data());
        int64_t tiles = (m + ops.gemm_i8_mr - 1) / ops.gemm_i8_mr;

        for (auto [kc, nc] : std::vector<std::pair<int64_t, int64_t>>{
                 {0, 0},
                 {16, ops.gemm_i8_nr},
                 {17, 2 * ops.gemm_i8_nr},  // Odd kc: rounded to even inside.
                 {64, 1024}}) {
            GemmBlocking blocking = gemmBlockingForI8(ops, k, n, 32, kc, nc);
            EXPECT_EQ(blocking.kc % 2, 0)
                << ops.name << ": kc blocks must never split a k pair";
            std::vector<int32_t> got(static_cast<size_t>(m * n), 0);
            packedGemmRowTilesI8(ops, lhs.data(), rhs.data(), m, k, n,
                                 got.data(), n, 0, tiles, blocking);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(int32_t)),
                      0)
                << "ISA " << ops.name << " kc=" << kc << " nc=" << nc
                << " diverges from the naive i32 loop";
        }
    }
}

/** Every available ISA's packed GEMM is bit-identical to the reference
 * accumulation chain, including ragged edges and non-trivial bias-like
 * C pre-initialization. */
TEST(GemmPacked, BitExactAgainstReferenceChainOnEveryIsa)
{
    // Odd extents so every ISA hits partial tiles in both m and n.
    const int64_t m = 13, k = 37, n = 29;
    std::vector<float> a = randomMatrix(m, k, 21);
    std::vector<float> b = randomMatrix(k, n, 22);
    std::vector<float> c0 = randomMatrix(m, n, 23);

    std::vector<float> want = c0;
    refGemmAccum(a.data(), b.data(), want.data(), m, k, n);

    for (SimdIsa isa : availableSimdIsas()) {
        const SimdOps& ops = resolveSimdOps(isa);
        std::vector<float> lhs(
            static_cast<size_t>(packedLhsElems(m, k, ops.gemm_mr)));
        std::vector<float> rhs(
            static_cast<size_t>(packedRhsElems(k, n, ops.gemm_nr)));
        packLhsTiles(a.data(), m, k, k, ops.gemm_mr, lhs.data());
        packRhsTiles(b.data(), k, n, n, ops.gemm_nr, rhs.data());

        GemmBlocking blocking = gemmBlockingFor(ops, k, n, /*budget_kb=*/32);
        std::vector<float> got = c0;
        int64_t tiles = (m + ops.gemm_mr - 1) / ops.gemm_mr;
        packedGemmRowTiles(ops, lhs.data(), rhs.data(), m, k, n, got.data(), n,
                           0, tiles, blocking);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(float)),
                  0)
            << "ISA " << ops.name << " diverges from the reference chain";
    }
}

/** kc/nc blocking partitions the loop order without reassociating the
 * per-element chain, so every blocking choice is bit-neutral. */
TEST(GemmPacked, BlockingChoicesAreBitNeutral)
{
    const int64_t m = 9, k = 64, n = 33;
    std::vector<float> a = randomMatrix(m, k, 31);
    std::vector<float> b = randomMatrix(k, n, 32);
    std::vector<float> c0 = randomMatrix(m, n, 33);

    for (SimdIsa isa : availableSimdIsas()) {
        const SimdOps& ops = resolveSimdOps(isa);
        std::vector<float> lhs(
            static_cast<size_t>(packedLhsElems(m, k, ops.gemm_mr)));
        std::vector<float> rhs(
            static_cast<size_t>(packedRhsElems(k, n, ops.gemm_nr)));
        packLhsTiles(a.data(), m, k, k, ops.gemm_mr, lhs.data());
        packRhsTiles(b.data(), k, n, n, ops.gemm_nr, rhs.data());
        int64_t tiles = (m + ops.gemm_mr - 1) / ops.gemm_mr;

        std::vector<float> baseline;
        for (auto [kc, nc] : std::vector<std::pair<int64_t, int64_t>>{
                 {0, 0}, {16, ops.gemm_nr}, {17, 2 * ops.gemm_nr}, {64, 1024}}) {
            GemmBlocking blocking = gemmBlockingFor(ops, k, n, 32, kc, nc);
            std::vector<float> got = c0;
            packedGemmRowTiles(ops, lhs.data(), rhs.data(), m, k, n, got.data(),
                               n, 0, tiles, blocking);
            if (baseline.empty()) {
                baseline = got;
            } else {
                EXPECT_EQ(std::memcmp(got.data(), baseline.data(),
                                      got.size() * sizeof(float)),
                          0)
                    << ops.name << " kc=" << kc << " nc=" << nc;
            }
        }
    }
}

struct DiffCase
{
    int64_t cin, cout, k, h, w, stride, pad, groups, batch;
    bool relu;
};

std::ostream&
operator<<(std::ostream& os, const DiffCase& c)
{
    return os << "cin" << c.cin << "_cout" << c.cout << "_k" << c.k << "_h"
              << c.h << "_w" << c.w << "_s" << c.stride << "_p" << c.pad
              << "_g" << c.groups << "_b" << c.batch << (c.relu ? "_relu" : "");
}

class PackedIm2colSweep : public ::testing::TestWithParam<DiffCase>
{
};

/** The rebuilt executor against the reference oracle across
 * shapes x strides x pads x batch (and groups / fused ReLU). */
TEST_P(PackedIm2colSweep, MatchesReference)
{
    DiffCase c = GetParam();
    ConvDesc d{"t", c.cin, c.cout, c.k,      c.k, c.h, c.w,
               c.stride, c.pad,  1 /*dil*/, c.groups};
    Rng rng(51);
    Tensor w(Shape{d.cout, d.cinPerGroup(), d.kh, d.kw});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{d.cout});
    bias.fillNormal(rng, 0.0f, 0.1f);
    Tensor in(Shape{c.batch, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;
    ep.relu = c.relu;

    Tensor expect = makeConvOutput(d, c.batch);
    convReference(d, w, in, expect, ep);

    DeviceSpec dev = makeCpuDevice(4);
    Im2colConv engine(d, &w, dev);

    Tensor got = makeConvOutput(d, c.batch);
    engine.run(in, got, ep);
    EXPECT_LT(Tensor::maxAbsDiff(expect, got), 1e-3) << "packed";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PackedIm2colSweep,
    ::testing::Values(
        DiffCase{3, 16, 3, 16, 16, 1, 1, 1, 1, false},   // first-conv shape
        DiffCase{8, 16, 3, 15, 17, 1, 1, 1, 2, false},   // ragged + batch
        DiffCase{4, 4, 3, 9, 9, 2, 1, 1, 1, false},      // stride 2
        DiffCase{16, 8, 1, 12, 12, 1, 0, 1, 3, true},    // 1x1 FC-like
        DiffCase{8, 8, 5, 14, 14, 1, 2, 1, 1, true},     // 5x5, wide pad
        DiffCase{12, 12, 3, 20, 10, 2, 1, 1, 2, false},  // stride + batch
        DiffCase{8, 8, 3, 10, 10, 1, 1, 2, 1, false},    // grouped
        DiffCase{6, 10, 3, 8, 8, 1, 0, 1, 1, true}));    // no pad + relu

/** One conv, every available ISA table, byte-identical outputs — the
 * cross-ISA contract holds end-to-end through im2col + packed GEMM. */
TEST(PackedIm2col, BitIdenticalAcrossAvailableIsas)
{
    ConvDesc d{"x", 6, 9, 3, 3, 13, 11, 1, 1, 1, 1};
    Rng rng(61);
    Tensor w(Shape{d.cout, d.cin, d.kh, d.kw});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{d.cout});
    bias.fillNormal(rng, 0.0f, 0.1f);
    Tensor in(Shape{2, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    Epilogue ep;
    ep.bias = &bias;
    ep.relu = true;

    Tensor baseline;
    bool have_baseline = false;
    for (SimdIsa isa : availableSimdIsas()) {
        DeviceSpec dev = makeCpuDevice(3);
        dev.simd_isa = isa;
        Tensor got = makeConvOutput(d, 2);
        Im2colConv(d, &w, dev).run(in, got, ep);
        if (!have_baseline) {
            baseline = std::move(got);
            have_baseline = true;
        } else {
            EXPECT_EQ(std::memcmp(got.data(), baseline.data(),
                                  static_cast<size_t>(got.numel()) *
                                      sizeof(float)),
                      0)
                << "ISA " << isaName(isa);
        }
    }
}

/** Tuned blocking overrides reach the executor and stay bit-neutral. */
TEST(PackedIm2col, TunedBlockingOverridesApplyAndMatch)
{
    ConvDesc d{"x", 5, 8, 3, 3, 12, 12, 1, 1, 1, 1};
    Rng rng(71);
    Tensor w(Shape{d.cout, d.cin, d.kh, d.kw});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor in(Shape{1, d.cin, d.h, d.w});
    in.fillUniform(rng, -1.0f, 1.0f);
    DeviceSpec dev = makeCpuDevice(2);

    Tensor base = makeConvOutput(d, 1);
    Im2colConv(d, &w, dev).run(in, base);

    TuneParams tuned;
    tuned.gemm_kc = 16;
    tuned.gemm_nc = 8;
    Im2colConv engine(d, &w, dev, tuned);
    EXPECT_EQ(engine.blocking().kc, 16);
    Tensor got = makeConvOutput(d, 1);
    engine.run(in, got);
    EXPECT_EQ(std::memcmp(got.data(), base.data(),
                          static_cast<size_t>(got.numel()) * sizeof(float)),
              0);
}

/** Compiler::tuneLayer memoizes a dense (im2col) tuning: the second
 * call is a cache hit returning the identical parameters. */
TEST(DenseTuning, TuneLayerIsMemoizedInTuneCache)
{
    TuneCache::instance().clear();
    Compiler compiler(makeCpuDevice(2));
    ConvDesc d{"dense", 3, 8, 3, 3, 12, 12, 1, 1, 1, 1};

    auto first = compiler.tuneLayer(d, FrameworkKind::kTvmLike);
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_EQ(TuneCache::instance().hits(), 0);
    EXPECT_EQ(TuneCache::instance().size(), 1u);

    auto second = compiler.tuneLayer(d, FrameworkKind::kTvmLike);
    ASSERT_TRUE(second.ok()) << second.status().toString();
    EXPECT_EQ(TuneCache::instance().hits(), 1);
    EXPECT_EQ(first.value().gemm_kc, second.value().gemm_kc);
    EXPECT_EQ(first.value().gemm_nc, second.value().gemm_nc);
    TuneCache::instance().clear();
}

}  // namespace
}  // namespace patdnn
