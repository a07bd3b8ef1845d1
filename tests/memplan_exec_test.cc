/** @file Memory-plan execution conformance.
 *
 * The planner's static invariants (tests/memplan_test.cc) say nothing
 * about whether the *runtime* honors them — an executor that caches a
 * pointer, reads an input after writing its output's aliased range, or
 * sizes a view wrong would pass every static check and still corrupt
 * activations. So this suite runs every zoo model through a planned
 * (single-arena) session and, as the reference, through the same
 * CompiledModel::run in a Workspace over planWithoutReuse() — a plan
 * that recycles nothing, so the two runs differ only in the plan — on
 * identical inputs and requires bit-exact (memcmp) agreement — at
 * batch 1 and a multi-sample batch, under the vector and forced-scalar
 * kernel paths, and with the NaN poison canary filling freed arena
 * ranges between layers (any executor touching recycled memory
 * surfaces as a NaN in the diff). Also pins the headline footprint
 * win: peak-live arena vs the no-reuse sum on the ResNet-class model.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

Tensor
cifarInput(uint64_t seed, int64_t n)
{
    Tensor in(Shape{n, 3, 32, 32});
    Rng rng(seed);
    in.fillUniform(rng, -1.0f, 1.0f);
    return in;
}

/** Bit-exact: memcmp, not a tolerance — planned execution must be the
 * SAME computation, only at different addresses. */
void
expectBitExact(const Tensor& got, const Tensor& want, const std::string& what)
{
    ASSERT_EQ(got.shape(), want.shape()) << what;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(want.numel()) * sizeof(float)),
              0)
        << what << ": planned output differs from the no-reuse reference "
        << "(maxAbsDiff=" << Tensor::maxAbsDiff(got, want) << ")";
}

/** Compile each (model, kind, ISA) once per process: the zoo compiles
 * (pattern pruning + packing) dominate suite wall-clock — especially
 * under the sanitizer CI cell — and every test reads the shared model
 * immutably, which is the serving contract anyway. */
std::shared_ptr<const CompiledModel>
compileZoo(const std::string& short_name, FrameworkKind kind,
           const DeviceSpec& dev)
{
    static std::map<std::string, std::shared_ptr<const CompiledModel>> cache;
    std::string key = short_name + "/" + std::to_string(static_cast<int>(kind)) +
                      "/" + std::to_string(static_cast<int>(dev.simd_isa));
    auto it = cache.find(key);
    if (it != cache.end())
        return it->second;
    Model m = buildByShortName(short_name, Dataset::kCifar10);
    auto compiled = std::make_shared<const CompiledModel>(m, kind, dev);
    cache.emplace(std::move(key), compiled);
    return compiled;
}

/** The reference run: `model`'s own executors in a workspace whose
 * plan recycles nothing. */
Tensor
keepAllRun(const CompiledModel& model, const Tensor& in)
{
    const MemoryPlan keep_all = planWithoutReuse(model.planNodes(), model.outputNode());
    Workspace ws(keep_all);
    return model.run(in, ws);
}

/** Planned vs no-reuse differential over one shared model. */
void
runDifferential(std::shared_ptr<const CompiledModel> model,
                const std::string& what)
{
    ASSERT_TRUE(model->hasMemoryPlan()) << what;
    InferenceSession planned(model);

    for (int64_t batch : {int64_t{1}, int64_t{3}}) {
        Tensor in = cifarInput(77 + static_cast<uint64_t>(batch), batch);
        expectBitExact(planned.run(in), keepAllRun(*model, in),
                       what + " batch " + std::to_string(batch));
    }
    // The arena really is one allocation of plan size, scaled by the
    // largest batch run so far.
    EXPECT_EQ(planned.activationBytes(), model->memoryPlan().arenaBytes(3));
    EXPECT_LE(planned.activationBytes(), model->memoryPlan().sumBytes(3));
}

TEST(MemPlanExec, VggPatternBitExact)
{
    runDifferential(compileZoo("VGG", FrameworkKind::kPatDnn, makeCpuDevice(2)),
                    "VGG/kPatDnn");
}

TEST(MemPlanExec, VggDenseBitExact)
{
    runDifferential(
        compileZoo("VGG", FrameworkKind::kPatDnnDense, makeCpuDevice(2)),
        "VGG/kPatDnnDense");
}

TEST(MemPlanExec, ResNetPatternBitExact)
{
    runDifferential(compileZoo("RNT", FrameworkKind::kPatDnn, makeCpuDevice(2)),
                    "RNT/kPatDnn");
}

TEST(MemPlanExec, MobileNetPatternBitExact)
{
    runDifferential(compileZoo("MBNT", FrameworkKind::kPatDnn, makeCpuDevice(2)),
                    "MBNT/kPatDnn");
}

TEST(MemPlanExec, ScalarKernelsBitExact)
{
    // Force the scalar kernel table: the planned path must be exact on
    // both SIMD cells, not just whichever this host dispatches to.
    DeviceSpec dev = makeCpuDevice(2);
    dev.simd_isa = SimdIsa::kScalar;
    runDifferential(compileZoo("VGG", FrameworkKind::kPatDnn, dev),
                    "VGG/kPatDnn/scalar");
}

TEST(MemPlanExec, PoisonCanaryFindsNoStaleReads)
{
    // The canary NaN-fills the whole arena at the start of every run and
    // every freed range between layers: an op that reads a value past
    // its last_use, or an output element it never wrote, consumes NaN,
    // which propagates to the output and breaks the memcmp. No op
    // zero-fills its output first, so this also checks that every conv
    // engine writes every output element. MobileNet-V2 under all five
    // kinds runs every engine: its grouped convs run NaiveConv under
    // every kind, its stride-1 3x3 stem Winograd or the padded pattern
    // kernel, its 1x1s im2col or CSR; int8 runs quantized im2col and
    // ResNet-50's strided 3x3s the pattern engine's guarded loops.
    // (Runs under the ASan/UBSan CI job too, where the poison writes
    // also exercise range bounds.)
    const DeviceSpec dev = makeCpuDevice(2);
    auto check = [](const std::shared_ptr<const CompiledModel>& model,
                    const std::string& what) {
        ASSERT_TRUE(model->hasMemoryPlan()) << what;
        InferenceSession canary(model);
        canary.setDebugPoisonFreed(true);
        // Batch 2 twice: the second run reuses the poisoned arena.
        for (int64_t batch : {int64_t{1}, int64_t{2}, int64_t{2}}) {
            Tensor in = cifarInput(31 + static_cast<uint64_t>(batch), batch);
            expectBitExact(canary.run(in), keepAllRun(*model, in),
                           what + " poison canary batch " + std::to_string(batch));
        }
    };
    for (FrameworkKind kind :
         {FrameworkKind::kTfliteLike, FrameworkKind::kTvmLike,
          FrameworkKind::kPatDnnDense, FrameworkKind::kCsrSparse,
          FrameworkKind::kPatDnn})
        check(compileZoo("MBNT", kind, dev), std::string("MBNT/") + frameworkName(kind));
    check(compileZoo("RNT", FrameworkKind::kPatDnn, dev), "RNT/kPatDnn");
    CompileOptions int8;
    int8.precision = Precision::kInt8;
    auto quantized = Compiler(dev, int8).compile(
        buildByShortName("MBNT", Dataset::kCifar10), FrameworkKind::kPatDnnDense);
    ASSERT_TRUE(quantized.ok()) << quantized.status().toString();
    check(quantized.value(), "MBNT/kPatDnnDense/int8");
}

TEST(MemPlanExec, ArenaIsAtMost60PercentOfPerLayerOnResNet)
{
    // The acceptance bar from the planner's reason to exist: deep nets
    // with short-lived intermediates should pack into well under the
    // no-reuse sum. ResNet-50's 100+ activations reuse a handful of
    // arena ranges.
    auto model = compileZoo("RNT", FrameworkKind::kPatDnn, makeCpuDevice(2));
    ASSERT_TRUE(model->hasMemoryPlan());
    const MemoryPlan& plan = model->memoryPlan();
    EXPECT_LE(plan.arenaBytes(1), plan.sumBytes(1) * 6 / 10)
        << "arena " << plan.arenaBytes(1) << " B vs no-reuse "
        << plan.sumBytes(1) << " B";
}

TEST(MemPlanExec, CompiledAndRestoredModelsShareOnePlan)
{
    // Artifacts store no plan: a restored model derives it from the
    // layer records, and it must be the compiled plan, slot for slot.
    // Every session is planned: over either model, its activations are
    // exactly the plan's arena.
    DeviceSpec dev = makeCpuDevice(2);
    const int64_t batch = 1;
    Tensor in = cifarInput(5, batch);
    for (const char* name : {"VGG", "RNT", "MBNT"})
        for (FrameworkKind kind : {FrameworkKind::kPatDnn, FrameworkKind::kPatDnnDense}) {
            std::string what = std::string(name) + "/" + frameworkName(kind);
            auto compiled = compileZoo(name, kind, dev);
            auto restored = deserializeModel(serializeModel(*compiled), dev);
            ASSERT_TRUE(restored.ok()) << what << ": " << restored.status().toString();
            const MemoryPlan& want = compiled->memoryPlan();
            const MemoryPlan& got = restored.value()->memoryPlan();
            ASSERT_FALSE(want.empty()) << what;
            ASSERT_EQ(got.slotCount(), want.slotCount()) << what;
            EXPECT_EQ(got.arenaElemsPerSample(), want.arenaElemsPerSample()) << what;
            EXPECT_EQ(got.sumElemsPerSample(), want.sumElemsPerSample()) << what;
            for (size_t i = 0; i < want.slotCount(); ++i) {
                const PlanSlot& g = got.slot(i);
                const PlanSlot& w = want.slot(i);
                EXPECT_TRUE(g.planned == w.planned && g.offset_elems == w.offset_elems &&
                            g.size_elems == w.size_elems && g.def == w.def &&
                            g.last_use == w.last_use)
                    << what << " slot " << i;
            }
            for (const auto& model :
                 {compiled, std::shared_ptr<const CompiledModel>(restored.value())}) {
                InferenceSession session(model);
                EXPECT_EQ(session.run(in).shape(), Shape({batch, 10})) << what;
                EXPECT_EQ(session.activationBytes(), want.arenaBytes(batch)) << what;
            }
        }
}

TEST(MemPlanExec, ConcurrentPlannedSessionsAreIndependent)
{
    // Sessions share the model but each owns its arena; concurrent
    // planned runs must not interfere (the serving workers' shape).
    auto model = compileZoo("VGG", FrameworkKind::kPatDnn, makeCpuDevice(2));
    std::vector<Tensor> inputs, expected;
    for (uint64_t s = 0; s < 4; ++s) {
        inputs.push_back(cifarInput(100 + s, 1));
        expected.push_back(keepAllRun(*model, inputs.back()));
    }
    std::vector<Tensor> got(inputs.size());
    std::vector<std::thread> threads;
    for (size_t i = 0; i < inputs.size(); ++i)
        threads.emplace_back([&, i] {
            InferenceSession session(model);
            got[i] = session.run(inputs[i]);
        });
    for (std::thread& t : threads)
        t.join();
    for (size_t i = 0; i < inputs.size(); ++i)
        expectBitExact(got[i], expected[i],
                       "concurrent session " + std::to_string(i));
}

TEST(MemPlanExec, OutputSurvivesNextRun)
{
    // The returned tensor must be an owning copy, not a view into the
    // arena the next run overwrites.
    auto model = compileZoo("MBNT", FrameworkKind::kPatDnn, makeCpuDevice(2));
    InferenceSession planned(model);
    Tensor in_a = cifarInput(1, 1);
    Tensor in_b = cifarInput(2, 1);
    Tensor out_a = planned.run(in_a);
    Tensor out_a_copy = out_a;  // Snapshot before the arena is reused.
    Tensor out_b = planned.run(in_b);
    expectBitExact(out_a, out_a_copy, "first output after second run");
    // Both outputs stay individually correct: neither is a live view
    // into the (now twice-recycled) arena.
    expectBitExact(out_a, keepAllRun(*model, in_a), "first output vs reference");
    expectBitExact(out_b, keepAllRun(*model, in_b), "second output vs reference");
}

}  // namespace
}  // namespace patdnn
