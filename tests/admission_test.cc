/** @file Admission-control tests: the weighted fair-share policy in
 * isolation, the InferenceServer budget wiring (charge at admission,
 * release on completion/deadline/cancel/shutdown), conservation under
 * concurrent multi-model submitters, and one controller shared by
 * the models behind a ShardRouter end to end. */
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

Model
tinyModel()
{
    Model m("tiny-admission", "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 8, 3, 3, 8, 8, 1, 1, 1, 1};
    m.addLayer(std::move(conv));
    Layer relu;
    relu.kind = OpKind::kReLU;
    relu.name = "c1_relu";
    m.addLayer(std::move(relu));
    Layer fl;
    fl.kind = OpKind::kFlatten;
    fl.name = "flatten";
    m.addLayer(std::move(fl));
    Layer fc;
    fc.kind = OpKind::kFullyConnected;
    fc.name = "fc";
    fc.in_features = 8 * 8 * 8;
    fc.out_features = 4;
    m.addLayer(std::move(fc));
    m.randomizeWeights(7);
    return m;
}

std::shared_ptr<const CompiledModel>
compiledTiny()
{
    static std::shared_ptr<const CompiledModel> model = [] {
        Model m = tinyModel();
        DeviceSpec dev = makeFixedWidthCpuDevice(2);
        return std::make_shared<const CompiledModel>(
            m, FrameworkKind::kPatDnnDense, dev);
    }();
    return model;
}

Tensor
makeInput(uint64_t seed, int64_t n = 1)
{
    Tensor in(Shape{n, 3, 8, 8});
    Rng rng(seed);
    in.fillUniform(rng, -1.0f, 1.0f);
    return in;
}

/** The ErrorCode a serving future failed with (kOk if it resolved). */
ErrorCode
futureErrorCode(std::future<Tensor>& f)
{
    try {
        f.get();
    } catch (const ServeError& e) {
        return e.code();
    }
    return ErrorCode::kOk;
}

/** Samples admitted for `name` before the first refusal, one at a
 * time; stops after `limit` admits. */
int64_t
fillOneByOne(AdmissionController& ctl, const std::string& name, int64_t limit)
{
    for (int64_t i = 0; i < limit; ++i)
        if (!ctl.tryAdmit(name, 1, 0).ok())
            return i;
    return limit;
}

TEST(AdmissionPolicy, DisabledAdmitsEverything)
{
    AdmissionController ctl;  // Both budgets 0 = unlimited.
    EXPECT_FALSE(ctl.enabled());
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(ctl.tryAdmit("any", 1 << 20, 1 << 30).ok());
    AdmissionStats s = ctl.stats();
    EXPECT_EQ(s.admitted, 100);
    EXPECT_EQ(s.shed_over_fair_share + s.shed_global_budget, 0);
}

TEST(AdmissionPolicy, WeightedFairShareCapsUnderPressure)
{
    AdmissionOptions opts;
    opts.max_queued_samples = 100;
    opts.fair_share_pressure = 0.5;
    AdmissionController ctl(opts);
    ctl.registerModel("hot", 3.0);   // Fair share: 75 samples.
    ctl.registerModel("cold", 1.0);  // Fair share: 25 samples.

    // The hot model bursts freely below the pressure line, then caps
    // at exactly its weighted share.
    EXPECT_EQ(fillOneByOne(ctl, "hot", 200), 75);
    Status refused = ctl.tryAdmit("hot", 1, 0);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
    EXPECT_STREQ(refused.detail(), admission_detail::kOverFairShare);

    // The cold model still gets its whole share — the hot model could
    // not starve it.
    EXPECT_EQ(fillOneByOne(ctl, "cold", 200), 25);
    EXPECT_STREQ(ctl.tryAdmit("cold", 1, 0).detail(),
                 admission_detail::kOverFairShare);

    AdmissionStats s = ctl.stats();
    EXPECT_EQ(s.queued_samples, 100);
    EXPECT_EQ(s.models.at("hot").queued_samples, 75);
    EXPECT_EQ(s.models.at("cold").queued_samples, 25);
    EXPECT_EQ(s.shed_global_budget, 0);
}

TEST(AdmissionPolicy, BurstsPastShareBelowPressureLine)
{
    AdmissionOptions opts;
    opts.max_queued_samples = 100;
    opts.fair_share_pressure = 0.5;
    AdmissionController ctl(opts);
    ctl.registerModel("small", 1.0);  // Fair share: 25.
    ctl.registerModel("big", 3.0);    // Fair share: 75 (idle).

    // Work conservation: with the pool idle, the small model runs past
    // its 25-sample share all the way to the 50-sample pressure line.
    EXPECT_EQ(fillOneByOne(ctl, "small", 200), 50);
    EXPECT_STREQ(ctl.tryAdmit("small", 1, 0).detail(),
                 admission_detail::kOverFairShare);
}

TEST(AdmissionPolicy, GlobalBudgetSlugWhenUnderShareMeetsFullPool)
{
    // pressure 1.0 = pure global budget with blame attribution: the
    // fair-share cap only ever binds at the full-pool boundary, so one
    // model may fill the whole budget — and the *other* model's
    // refusal then names the true cause.
    AdmissionOptions opts;
    opts.max_queued_samples = 100;
    opts.fair_share_pressure = 1.0;
    AdmissionController ctl(opts);
    ctl.registerModel("a", 1.0);
    ctl.registerModel("b", 1.0);

    EXPECT_EQ(fillOneByOne(ctl, "a", 200), 100);
    Status refused = ctl.tryAdmit("b", 1, 0);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
    EXPECT_STREQ(refused.detail(), admission_detail::kGlobalBudget);
    // The full-pool model itself is over its share — blamed correctly.
    EXPECT_STREQ(ctl.tryAdmit("a", 1, 0).detail(),
                 admission_detail::kOverFairShare);
    AdmissionStats s = ctl.stats();
    EXPECT_EQ(s.models.at("b").shed_global_budget, 1);
    // a's refusals: one ending fillOneByOne, one explicit above.
    EXPECT_EQ(s.models.at("a").shed_over_fair_share, 2);
}

TEST(AdmissionPolicy, BytesBudgetIsIndependent)
{
    AdmissionOptions opts;
    opts.max_queued_bytes = 1000;
    AdmissionController ctl(opts);
    ctl.registerModel("m", 1.0);
    // Samples unlimited; bytes capped.
    EXPECT_TRUE(ctl.tryAdmit("m", 1 << 20, 400).ok());
    EXPECT_TRUE(ctl.tryAdmit("m", 1 << 20, 400).ok());
    Status refused = ctl.tryAdmit("m", 1, 400);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
    // A fitting request still admits — the refusal charged nothing.
    EXPECT_TRUE(ctl.tryAdmit("m", 1, 200).ok());
    EXPECT_EQ(ctl.stats().queued_bytes, 1000);
}

TEST(AdmissionPolicy, ReleaseRestoresCapacityAndGauges)
{
    AdmissionOptions opts;
    opts.max_queued_samples = 10;
    AdmissionController ctl(opts);
    ctl.registerModel("m", 1.0);
    EXPECT_EQ(fillOneByOne(ctl, "m", 100), 10);
    EXPECT_FALSE(ctl.tryAdmit("m", 1, 0).ok());
    for (int i = 0; i < 10; ++i)
        ctl.release("m", 1, 0);
    EXPECT_EQ(ctl.stats().queued_samples, 0);
    EXPECT_TRUE(ctl.tryAdmit("m", 1, 0).ok());
    ctl.release("m", 1, 0);
    // The process-wide gauges track this controller's last change.
    EXPECT_EQ(MetricsRegistry::global()
                  .gauge("serve.admission.queued_samples")
                  .value(),
              0.0);
}

TEST(AdmissionPolicy, ReregisterRebalancesSharesAndKeepsCounters)
{
    AdmissionOptions opts;
    opts.max_queued_samples = 100;
    opts.fair_share_pressure = 0.0;  // Shares always bind.
    AdmissionController ctl(opts);
    ctl.registerModel("a", 1.0);
    ctl.registerModel("b", 1.0);
    EXPECT_EQ(fillOneByOne(ctl, "a", 200), 50);
    // Re-register with triple weight: the share grows to 75
    // immediately, and the admitted counter carries over.
    ctl.registerModel("a", 3.0);
    EXPECT_EQ(fillOneByOne(ctl, "a", 200), 25);
    EXPECT_EQ(ctl.stats().models.at("a").admitted, 75);
    // Deregistering b hands its share back to a (sole weight = the
    // full budget).
    ctl.deregisterModel("b");
    EXPECT_EQ(fillOneByOne(ctl, "a", 200), 25);
    EXPECT_EQ(ctl.stats().queued_samples, 100);
    EXPECT_EQ(ctl.stats().models.count("b"), 0u);
}

TEST(AdmissionServer, TrySubmitShedsWithSlugAndReleasesOnShutdown)
{
    AdmissionOptions aopts;
    aopts.max_queued_samples = 2;
    auto admission = std::make_shared<AdmissionController>(aopts);

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 16;
    sopts.start_paused = true;  // Requests stage; nothing dequeues.
    sopts.admission = admission;
    sopts.admission_name = "m";
    InferenceServer server(compiledTiny(), sopts);

    std::future<Tensor> f1, f2, f3;
    EXPECT_TRUE(server.trySubmit(makeInput(1), &f1).ok());
    EXPECT_TRUE(server.trySubmit(makeInput(2), &f2).ok());
    Result<RequestId> refused = server.trySubmit(makeInput(3), &f3);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.code(), ErrorCode::kResourceExhausted);
    EXPECT_STREQ(refused.status().detail(), admission_detail::kOverFairShare);
    EXPECT_EQ(server.stats().rejected, 1);
    EXPECT_EQ(admission->stats().queued_samples, 2);
    EXPECT_EQ(admission->stats().queued_bytes,
              2 * 3 * 8 * 8 * static_cast<int64_t>(sizeof(float)));

    // Dropping the staged queue at shutdown must return the charges.
    server.shutdown();
    EXPECT_EQ(admission->stats().queued_samples, 0);
    EXPECT_EQ(admission->stats().queued_bytes, 0);
}

TEST(AdmissionServer, BlockingSubmitShedSurfacesSlugThroughFuture)
{
    AdmissionOptions aopts;
    aopts.max_queued_samples = 1;
    auto admission = std::make_shared<AdmissionController>(aopts);

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 16;
    sopts.start_paused = true;
    sopts.admission = admission;
    sopts.admission_name = "tiny";
    InferenceServer server(compiledTiny(), sopts);

    std::future<Tensor> ok = server.submit(makeInput(1));
    std::future<Tensor> shed = server.submit(makeInput(2));
    try {
        shed.get();
        FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
        EXPECT_STREQ(e.detail(), admission_detail::kOverFairShare);
    }
    server.shutdown();
}

TEST(AdmissionServer, DeadlineShedAndCancelReleaseBudget)
{
    auto clock = std::make_shared<FakeClock>();
    AdmissionOptions aopts;
    aopts.max_queued_samples = 10;
    auto admission = std::make_shared<AdmissionController>(aopts);

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 16;
    sopts.start_paused = true;
    sopts.clock = clock;
    sopts.admission = admission;
    sopts.admission_name = "m";
    InferenceServer server(compiledTiny(), sopts);

    SubmitOptions expiring;
    expiring.deadline = server.deadlineIn(5.0);
    std::future<Tensor> f1 = server.submit(makeInput(1), expiring);
    std::future<Tensor> f2 = server.submit(makeInput(2), expiring);
    RequestId cancel_id = 0;
    std::future<Tensor> f3 = server.submit(makeInput(3), {}, &cancel_id);
    EXPECT_EQ(admission->stats().queued_samples, 3);

    // Cancel returns its charge immediately.
    EXPECT_TRUE(server.cancel(cancel_id));
    EXPECT_EQ(admission->stats().queued_samples, 2);

    // Past the deadline, the worker sheds both expired requests at pop
    // — and their charges flow back.
    clock->advanceMs(10.0);
    server.start();
    server.drain();
    EXPECT_EQ(futureErrorCode(f1), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(futureErrorCode(f2), ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(futureErrorCode(f3), ErrorCode::kCancelled);
    EXPECT_EQ(admission->stats().queued_samples, 0);
    ServerStats s = server.stats();
    EXPECT_EQ(s.deadline_exceeded, 2);
    EXPECT_EQ(s.cancelled, 1);
    EXPECT_EQ(s.completed, 0);
    server.shutdown();
}

TEST(AdmissionServer, ConcurrentMultiModelConservation)
{
    AdmissionOptions aopts;
    aopts.max_queued_samples = 16;
    auto admission = std::make_shared<AdmissionController>(aopts);

    auto makeServer = [&](const std::string& name, double weight) {
        ServerOptions sopts;
        sopts.workers = 1;
        sopts.max_queue = 64;  // Larger than the budget: the only
                               // refusals here are admission sheds.
        sopts.admission = admission;
        sopts.admission_name = name;
        sopts.admission_weight = weight;
        return std::make_unique<InferenceServer>(compiledTiny(), sopts);
    };
    auto hot = makeServer("hot", 3.0);
    auto cold = makeServer("cold", 1.0);

    constexpr int kThreadsPerModel = 2;
    constexpr int kAttempts = 120;
    std::atomic<int64_t> accepted_hot{0}, shed_hot{0};
    std::atomic<int64_t> accepted_cold{0}, shed_cold{0};
    auto submitter = [&](InferenceServer& server,
                         std::atomic<int64_t>& accepted,
                         std::atomic<int64_t>& shed, uint64_t seed0) {
        std::vector<std::future<Tensor>> futures;
        for (int i = 0; i < kAttempts; ++i) {
            std::future<Tensor> f;
            Result<RequestId> r = server.trySubmit(
                makeInput(seed0 + static_cast<uint64_t>(i)), &f);
            if (r.ok()) {
                ++accepted;
                futures.push_back(std::move(f));
            } else {
                EXPECT_EQ(r.code(), ErrorCode::kResourceExhausted);
                ++shed;
            }
        }
        for (auto& f : futures)
            f.wait();
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreadsPerModel; ++t) {
        threads.emplace_back([&, t] {
            submitter(*hot, accepted_hot, shed_hot,
                      1000 + static_cast<uint64_t>(t) * kAttempts);
        });
        threads.emplace_back([&, t] {
            submitter(*cold, accepted_cold, shed_cold,
                      9000 + static_cast<uint64_t>(t) * kAttempts);
        });
    }
    for (auto& th : threads)
        th.join();
    hot->drain();
    cold->drain();
    const int64_t ah = accepted_hot, sh = shed_hot;
    const int64_t ac = accepted_cold, sc = shed_cold;

    // Client-side conservation: every attempt was accepted or shed.
    EXPECT_EQ(ah + sh, kThreadsPerModel * kAttempts);
    EXPECT_EQ(ac + sc, kThreadsPerModel * kAttempts);
    EXPECT_GT(ah, 0);
    EXPECT_GT(ac, 0);

    // Controller-side conservation: admitted matches the client view,
    // sheds match, and every charge was released.
    AdmissionStats a = admission->stats();
    EXPECT_EQ(a.queued_samples, 0);
    EXPECT_EQ(a.queued_bytes, 0);
    EXPECT_EQ(a.admitted, ah + ac);
    EXPECT_EQ(a.shed_over_fair_share + a.shed_global_budget, sh + sc);
    EXPECT_EQ(a.models.at("hot").admitted, ah);
    EXPECT_EQ(a.models.at("cold").admitted, ac);
    EXPECT_EQ(a.models.at("hot").admitted +
                  a.models.at("hot").shed_over_fair_share +
                  a.models.at("hot").shed_global_budget,
              kThreadsPerModel * kAttempts);

    // Server-side: accepted requests all completed (nothing lost).
    EXPECT_EQ(hot->stats().completed, ah);
    EXPECT_EQ(cold->stats().completed, ac);
    EXPECT_EQ(hot->stats().rejected, sh);
    EXPECT_EQ(cold->stats().rejected, sc);
    hot->shutdown();
    cold->shutdown();
}

TEST(AdmissionRouter, SharedControllerRoutesWeightsAndRemoves)
{
    AdmissionOptions aopts;
    aopts.max_queued_samples = 8;
    auto admission = std::make_shared<AdmissionController>(aopts);

    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    Model m = tinyModel();
    Result<std::shared_ptr<CompiledModel>> compiled =
        Compiler(dev).compile(m, FrameworkKind::kPatDnnDense);
    ASSERT_TRUE(compiled.ok()) << compiled.status().toString();

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 64;
    sopts.admission = admission;
    ServerOptions heavy = sopts;
    heavy.admission_weight = 3.0;
    // A zero ejection window: a replica the burst below ejects is back
    // on probation at the next submission, so every refusal is the
    // server's own admission shed rather than an ejected-replica one.
    RouterOptions ropts;
    ropts.reinstate_after_ms = 0.0;
    ShardRouter router(ropts);
    Status added = router.addLocalReplicas("heavy", compiled.value(), 1, heavy);
    ASSERT_TRUE(added.ok()) << added.toString();
    added = router.addLocalReplicas("light", compiled.value(), 1, sopts);
    ASSERT_TRUE(added.ok()) << added.toString();

    // Each model charges under its routed name at its own weight.
    AdmissionStats before = admission->stats();
    EXPECT_EQ(before.models.at("heavy").weight, 3.0);
    EXPECT_EQ(before.models.at("light").weight, 1.0);

    // Route a burst through the router's typed admission path.
    int64_t accepted = 0, shed = 0;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 64; ++i) {
        std::future<Tensor> f;
        Result<RequestId> r = router.trySubmit(
            i % 2 == 0 ? "heavy" : "light", static_cast<uint64_t>(i),
            makeInput(300 + static_cast<uint64_t>(i)), &f);
        if (r.ok()) {
            ++accepted;
            futures.push_back(std::move(f));
        } else {
            EXPECT_EQ(r.code(), ErrorCode::kResourceExhausted);
            ++shed;
        }
    }
    for (auto& f : futures)
        f.wait();
    router.drainAll();
    EXPECT_EQ(accepted + shed, 64);
    EXPECT_GT(accepted, 0);
    AdmissionStats after = admission->stats();
    EXPECT_EQ(after.admitted, accepted);
    EXPECT_EQ(after.shed_over_fair_share + after.shed_global_budget, shed);
    EXPECT_EQ(after.queued_samples, 0);

    // Unknown names are routing errors, not admission errors.
    std::future<Tensor> f;
    EXPECT_EQ(router.trySubmit("missing", 1, makeInput(1), &f).code(),
              ErrorCode::kNotFound);

    // Removing a model deregisters its admission identity; the other
    // model keeps its weight.
    EXPECT_TRUE(router.removeModel("heavy"));
    AdmissionStats removed = admission->stats();
    EXPECT_EQ(removed.models.count("heavy"), 0u);
    EXPECT_EQ(removed.models.at("light").weight, 1.0);
    router.shutdownAll();
}

}  // namespace
}  // namespace patdnn
