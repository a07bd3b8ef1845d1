/** @file Tuner tests: the serial search and each engine's candidate list. */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "rt/framework.h"
#include "rt/tuner.h"
#include "util/rng.h"

namespace patdnn {
namespace {

bool
sameTuning(const TuneParams& a, const TuneParams& b)
{
    return a.permute == b.permute && a.tile_oh == b.tile_oh && a.gemm_kc == b.gemm_kc &&
           a.gemm_nc == b.gemm_nc;
}

/** Candidates 0..n-1, told apart by gemm_kc. */
std::vector<TuneParams>
numbered(int n)
{
    std::vector<TuneParams> list(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        list[static_cast<size_t>(i)].gemm_kc = i;
    return list;
}

TEST(Tuner, ReturnsTheArgminMeasuringEachCandidateOnce)
{
    const std::vector<double> cost = {3.0, 2.5, 1.0, 4.0, 1.5};
    std::vector<int> calls(cost.size(), 0);
    auto measure = [&](const TuneParams& p) {
        ++calls[static_cast<size_t>(p.gemm_kc)];
        return cost[static_cast<size_t>(p.gemm_kc)];
    };
    EXPECT_EQ(tuneLayer(numbered(5), measure).gemm_kc, 2);
    for (int c : calls)
        EXPECT_EQ(c, 1);
}

TEST(Tuner, TiesGoToTheEarlierCandidate)
{
    const std::vector<double> cost = {2.0, 1.0, 1.0, 1.0};
    auto measure = [&](const TuneParams& p) { return cost[static_cast<size_t>(p.gemm_kc)]; };
    EXPECT_EQ(tuneLayer(numbered(4), measure).gemm_kc, 1);
    auto flat = [](const TuneParams&) { return 1.0; };
    EXPECT_EQ(tuneLayer(numbered(4), flat).gemm_kc, 0);
}

TEST(Tuner, ShortListsAreReturnedUnmeasured)
{
    int calls = 0;
    auto measure = [&](const TuneParams&) { return static_cast<double>(++calls); };
    TuneParams fallback;
    fallback.tile_oh = 7;
    EXPECT_TRUE(sameTuning(tuneLayer({}, measure, fallback), fallback));
    std::vector<TuneParams> one = numbered(1);
    one[0].tile_oh = 5;
    EXPECT_TRUE(sameTuning(tuneLayer(one, measure, fallback), one[0]));
    EXPECT_EQ(calls, 0);
}

/** One-conv model of `d` compiled as an inner layer. */
CompiledModel
compileLayer(const ConvDesc& d, FrameworkKind kind, const DeviceSpec& dev,
             CompileOptions opts = {})
{
    opts.first_layer_rate = opts.connectivity_rate;
    return CompiledModel(singleConvModel(d, opts.seed), kind, dev, opts);
}

/** How many times tuneLayer measures the engine of node `id`. */
int
measuredCandidates(const CompiledModel& m, size_t id)
{
    int calls = 0;
    tuneLayer(m.tuneCandidates(id), [&](const TuneParams&) {
        ++calls;
        return 1.0;
    });
    return calls;
}

TEST(TuneCandidates, PatternEngineListsTilesPerPlaneTimesBothOrders)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    ConvDesc big{"big", 8, 16, 3, 3, 56, 56, 1, 1, 1, 1};
    CompiledModel m = compileLayer(big, FrameworkKind::kPatDnn, dev);
    const auto id = static_cast<size_t>(m.outputNode());
    std::vector<TuneParams> list = m.tuneCandidates(id);
    ASSERT_EQ(list.size(), 10u);
    EXPECT_TRUE(sameTuning(list[0], TuneParams{}));  // The default first.
    for (size_t i = 0; i < list.size(); ++i)
        for (size_t j = 0; j < i; ++j)
            EXPECT_FALSE(list[i].permute == list[j].permute &&
                         list[i].rowTile(56) == list[j].rowTile(56))
                << i << " repeats " << j;
    EXPECT_EQ(measuredCandidates(m, id), 10);

    // On a 4-row plane every tile runs the whole plane.
    ConvDesc tiny{"tiny", 8, 16, 3, 3, 4, 4, 1, 1, 1, 1};
    CompiledModel t = compileLayer(tiny, FrameworkKind::kPatDnn, dev);
    EXPECT_EQ(t.tuneCandidates(static_cast<size_t>(t.outputNode())).size(), 2u);

    // The No-opt level reads neither the tile nor the loop order.
    CompileOptions noopt;
    noopt.opts.reorder = false;
    noopt.opts.lre = false;
    CompiledModel n = compileLayer(big, FrameworkKind::kPatDnn, dev, noopt);
    EXPECT_TRUE(n.tuneCandidates(static_cast<size_t>(n.outputNode())).empty());
}

TEST(TuneCandidates, DenseEnginesListTheGemmGridInWholeTiles)
{
    ConvDesc d3{"d3", 8, 16, 3, 3, 56, 56, 1, 1, 1, 1};
    ConvDesc d1{"d1", 8, 16, 1, 1, 14, 14, 1, 0, 1, 1};
    struct Row
    {
        ConvDesc desc;
        FrameworkKind kind;
        size_t candidates;
    };
    // im2col (16: gemm_kc x gemm_nc), kPatDnn's 1x1 conv (which runs
    // im2col), and Winograd (4: gemm_kc only, its stage-2 GEMMs are
    // one column panel wide).
    const Row rows[] = {{d3, FrameworkKind::kTvmLike, 16},
                        {d1, FrameworkKind::kPatDnn, 16},
                        {d3, FrameworkKind::kPatDnnDense, 4}};
    for (SimdIsa isa : availableSimdIsas()) {
        DeviceSpec dev = makeFixedWidthCpuDevice(2);
        dev.simd_isa = isa;
        const int nr = resolveSimdOps(isa).gemm_nr;
        for (const Row& row : rows) {
            SCOPED_TRACE(std::string(isaName(isa)) + " " + frameworkName(row.kind));
            CompiledModel m = compileLayer(row.desc, row.kind, dev);
            const auto id = static_cast<size_t>(m.outputNode());
            std::vector<TuneParams> list = m.tuneCandidates(id);
            ASSERT_EQ(list.size(), row.candidates);
            EXPECT_TRUE(sameTuning(list[0], TuneParams{}));
            for (size_t i = 0; i < list.size(); ++i) {
                EXPECT_EQ(list[i].gemm_nc % nr, 0) << "gemm_nc=" << list[i].gemm_nc;
                for (size_t j = 0; j < i; ++j)
                    EXPECT_FALSE(sameTuning(list[i], list[j])) << i << " repeats " << j;
            }
            EXPECT_EQ(measuredCandidates(m, id), static_cast<int>(row.candidates));
        }
    }
}

TEST(TuneCandidates, NaiveAndCsrEnginesListNone)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    ConvDesc d{"d", 8, 16, 3, 3, 12, 12, 1, 1, 1, 1};
    for (FrameworkKind kind : {FrameworkKind::kTfliteLike, FrameworkKind::kCsrSparse}) {
        CompiledModel m = compileLayer(d, kind, dev);
        EXPECT_TRUE(m.tuneCandidates(static_cast<size_t>(m.outputNode())).empty())
            << frameworkName(kind);
        EXPECT_EQ(measuredCandidates(m, static_cast<size_t>(m.outputNode())), 0);
    }
}

/** Tuning never changes an output bit: every candidate of a VGG-16
 * CIFAR layer computes the same output, on the padded path and on the
 * guarded one (LRE off). */
TEST(TuneCandidates, EveryPatternCandidateGivesTheSameBits)
{
    DeviceSpec dev = makeFixedWidthCpuDevice(3);
    ConvDesc d{"conv1_2", 64, 64, 3, 3, 32, 32, 1, 1, 1, 1};
    Tensor in(Shape{2, d.cin, d.h, d.w});
    Rng rng(23);
    in.fillUniform(rng, -1.0f, 1.0f);
    for (bool lre : {true, false}) {
        CompileOptions opts;
        opts.opts.lre = lre;
        CompiledModel base = compileLayer(d, FrameworkKind::kPatDnn, dev, opts);
        const auto id = static_cast<size_t>(base.outputNode());
        const Tensor want = base.run(in);
        std::vector<TuneParams> list = base.tuneCandidates(id);
        ASSERT_EQ(list.size(), 8u);  // Tile 32 is the whole plane.
        for (const TuneParams& t : list) {
            std::vector<CompiledLayerState> states = base.exportState();
            states[id].tuning = t;
            CompiledModel m(FrameworkKind::kPatDnn, dev, std::move(states), base.outputNode(),
                            base.tunedIsa(), base.compileOptions());
            const Tensor got = m.run(in);
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  static_cast<size_t>(want.numel()) * sizeof(float)),
                      0)
                << "lre " << lre << " tile " << t.tile_oh << " "
                << permutationName(t.permute);
        }
    }
}

}  // namespace
}  // namespace patdnn
