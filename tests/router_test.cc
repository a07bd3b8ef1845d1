/** @file ShardRouter tests: consistent-hash stickiness and minimal
 * remap on scale-out, least-loaded routing, transparent failover with
 * slug preservation, FakeClock health ejection + timed probation
 * reinstatement, bit-exact failover reconciliation against a direct
 * InferenceSession over real local replicas, and several named models
 * on one shared compute pool with per-replica stats and removal. */
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

Model
tinyModel()
{
    Model m("tiny-router", "test");
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
    m.randomizeWeights(11);
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

/** The ServeError code a failed future carries (kOk if it holds a
 * value). */
ErrorCode
futureErrorCode(std::future<Tensor> f)
{
    try {
        f.get();
        return ErrorCode::kOk;
    } catch (const ServeError& e) {
        return e.code();
    }
}

/**
 * Scriptable in-process endpoint: accepts (echoing the input through
 * the future) or refuses with a configured typed Status. Lets the
 * routing/health/failover logic be tested without servers, threads, or
 * model execution. Tests drive the router single-threaded here, so
 * plain members suffice.
 */
class FakeEndpoint : public ReplicaEndpoint
{
  public:
    explicit FakeEndpoint(std::string name) : name_(std::move(name)) {}

    /** kOk = accept; anything else refuses with that code + detail. */
    void
    refuseWith(ErrorCode code, const char* detail = "")
    {
        refuse_ = code;
        detail_ = detail;
    }
    void accept() { refuse_ = ErrorCode::kOk; }
    void setQueueDepth(size_t depth) { depth_ = depth; }
    int attempts() const { return attempts_; }

    Result<RequestId>
    trySubmit(Tensor input, std::future<Tensor>* result,
              SubmitOptions) override
    {
        ++attempts_;
        if (refuse_ != ErrorCode::kOk)
            return Status(refuse_, "fake '" + name_ + "' refuses", detail_);
        if (result != nullptr) {
            std::promise<Tensor> p;
            *result = p.get_future();
            p.set_value(std::move(input));
        }
        return RequestId{++next_id_};
    }

    ServerStats
    stats() const override
    {
        ServerStats s;
        s.queue_depth = depth_;
        return s;
    }

    std::string describe() const override { return name_; }

  private:
    std::string name_;
    ErrorCode refuse_ = ErrorCode::kOk;
    const char* detail_ = "";
    size_t depth_ = 0;
    int attempts_ = 0;
    RequestId next_id_ = 0;
};

/** Route `key` once and return the replica index that accepted. */
int
routeOnce(ShardRouter& router, const std::string& model, uint64_t key)
{
    int replica = -1;
    std::future<Tensor> f;
    Result<RequestId> r =
        router.trySubmit(model, key, makeInput(key), &f, {}, &replica);
    EXPECT_TRUE(r.ok()) << r.status().toString();
    return replica;
}

TEST(Router, ConsistentHashIsStickyAndSpreads)
{
    ShardRouter router;
    auto a = std::make_shared<FakeEndpoint>("a");
    auto b = std::make_shared<FakeEndpoint>("b");
    auto c = std::make_shared<FakeEndpoint>("c");
    EXPECT_EQ(router.addReplica("m", a), 0);
    EXPECT_EQ(router.addReplica("m", b), 1);
    EXPECT_EQ(router.addReplica("m", c), 2);
    EXPECT_EQ(router.replicaCount("m"), 3u);

    constexpr uint64_t kKeys = 64;
    std::map<uint64_t, int> home;
    std::set<int> used;
    for (uint64_t key = 0; key < kKeys; ++key) {
        home[key] = routeOnce(router, "m", key);
        used.insert(home[key]);
    }
    // Same key, same replica — every time.
    for (uint64_t key = 0; key < kKeys; ++key)
        EXPECT_EQ(routeOnce(router, "m", key), home[key]) << key;
    // With 64 vnodes per replica, 64 keys land on all three.
    EXPECT_EQ(used.size(), 3u);

    RouterStats s = router.stats("m");
    EXPECT_EQ(s.routed, 2 * kKeys);
    EXPECT_EQ(s.failovers, 0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.replicas[0].routed + s.replicas[1].routed +
                  s.replicas[2].routed,
              2 * kKeys);
}

TEST(Router, ConsistentHashRemapsMinimallyOnScaleOut)
{
    // Two routers over the same replica set, the second with one extra
    // replica: every key either keeps its old home or moves to the NEW
    // replica — scale-out never reshuffles keys between old replicas.
    ShardRouter before, after;
    for (ShardRouter* r : {&before, &after}) {
        r->addReplica("m", std::make_shared<FakeEndpoint>("a"));
        r->addReplica("m", std::make_shared<FakeEndpoint>("b"));
    }
    after.addReplica("m", std::make_shared<FakeEndpoint>("c"));

    constexpr uint64_t kKeys = 200;
    uint64_t moved = 0;
    for (uint64_t key = 0; key < kKeys; ++key) {
        const int old_home = routeOnce(before, "m", key);
        const int new_home = routeOnce(after, "m", key);
        if (new_home != old_home) {
            EXPECT_EQ(new_home, 2) << "key " << key
                                   << " moved between OLD replicas";
            ++moved;
        }
    }
    // ~1/3 of the key space should move; well under half in any case.
    EXPECT_GT(moved, 0u);
    EXPECT_LT(moved, kKeys / 2);
}

TEST(Router, LeastLoadedRoutesToShallowestQueue)
{
    RouterOptions opts;
    opts.policy = RoutePolicy::kLeastLoaded;
    ShardRouter router(opts);
    auto a = std::make_shared<FakeEndpoint>("a");
    auto b = std::make_shared<FakeEndpoint>("b");
    auto c = std::make_shared<FakeEndpoint>("c");
    router.addReplica("m", a);
    router.addReplica("m", b);
    router.addReplica("m", c);

    a->setQueueDepth(5);
    b->setQueueDepth(0);
    c->setQueueDepth(2);
    // The key is ignored: any key goes to the shallowest queue.
    EXPECT_EQ(routeOnce(router, "m", 1), 1);
    EXPECT_EQ(routeOnce(router, "m", 999), 1);

    a->setQueueDepth(1);
    b->setQueueDepth(4);
    c->setQueueDepth(9);
    EXPECT_EQ(routeOnce(router, "m", 1), 0);

    RouterStats s = router.stats("m");
    EXPECT_EQ(s.routed, 3);
    EXPECT_EQ(s.replicas[0].server.queue_depth, 1u);
    EXPECT_EQ(s.replicas[2].server.queue_depth, 9u);
}

TEST(Router, FailoverMovesLoadAndShedKeepsAdmissionSlug)
{
    ShardRouter router;
    auto a = std::make_shared<FakeEndpoint>("a");
    auto b = std::make_shared<FakeEndpoint>("b");
    router.addReplica("m", a);
    router.addReplica("m", b);

    // Discover a key's home while both replicas are healthy.
    const uint64_t key = 42;
    const int home = routeOnce(router, "m", key);
    const int other = 1 - home;
    FakeEndpoint& home_ep = home == 0 ? *a : *b;
    const RouterStats base = router.stats("m");

    // Refusal at the home replica: the request transparently lands on
    // the other one.
    home_ep.refuseWith(ErrorCode::kResourceExhausted,
                       admission_detail::kOverFairShare);
    int replica = -1;
    std::future<Tensor> f;
    Result<RequestId> r =
        router.trySubmit("m", key, makeInput(key), &f, {}, &replica);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(replica, other);
    RouterStats s = router.stats("m");
    EXPECT_EQ(s.failovers - base.failovers, 1);
    EXPECT_EQ(s.shed - base.shed, 0);
    EXPECT_EQ(s.replicas[static_cast<size_t>(home)].refusals, 1);

    // Every replica refusing = a shed, and the returned status is the
    // LAST refusal — an admission shed keeps its admission_detail slug
    // through the router.
    (home == 0 ? *b : *a)
        .refuseWith(ErrorCode::kResourceExhausted,
                    admission_detail::kOverFairShare);
    replica = -1;
    r = router.trySubmit("m", key, makeInput(key), &f, {}, &replica);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(replica, -1);
    EXPECT_EQ(r.code(), ErrorCode::kResourceExhausted);
    EXPECT_STREQ(r.status().detail(), admission_detail::kOverFairShare);
    EXPECT_EQ(router.stats("m").shed - base.shed, 1);

    // The future wrapper surfaces the same code + slug as a ServeError.
    std::future<Tensor> failed = router.submit("m", key, makeInput(key));
    try {
        failed.get();
        FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kResourceExhausted);
        EXPECT_STREQ(e.detail(), admission_detail::kOverFairShare);
    }
}

TEST(Router, InvalidArgumentPropagatesWithoutFailoverOrPenalty)
{
    ShardRouter router;
    auto a = std::make_shared<FakeEndpoint>("a");
    auto b = std::make_shared<FakeEndpoint>("b");
    router.addReplica("m", a);
    router.addReplica("m", b);

    const uint64_t key = 7;
    const int home = routeOnce(router, "m", key);
    FakeEndpoint& home_ep = home == 0 ? *a : *b;
    FakeEndpoint& other_ep = home == 0 ? *b : *a;
    const int other_attempts = other_ep.attempts();

    // A malformed request is the caller's fault: no retry on a healthy
    // replica, no health penalty for the refusing one.
    home_ep.refuseWith(ErrorCode::kInvalidArgument);
    std::future<Tensor> f;
    Result<RequestId> r = router.trySubmit("m", key, makeInput(key), &f);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(other_ep.attempts(), other_attempts);
    RouterStats s = router.stats("m");
    EXPECT_EQ(s.failovers, 0);
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.replicas[static_cast<size_t>(home)].refusals, 0);
    EXPECT_FALSE(s.replicas[static_cast<size_t>(home)].ejected);
}

TEST(Router, EjectionAndTimedProbationReinstatement)
{
    auto clock = std::make_shared<FakeClock>();
    RouterOptions opts;
    opts.eject_after_failures = 2;
    opts.reinstate_after_ms = 100.0;
    opts.clock = clock;
    ShardRouter router(opts);
    auto a = std::make_shared<FakeEndpoint>("a");
    auto b = std::make_shared<FakeEndpoint>("b");
    router.addReplica("m", a);
    router.addReplica("m", b);

    const uint64_t key = 13;
    const int home = routeOnce(router, "m", key);
    const int other = 1 - home;
    FakeEndpoint& home_ep = home == 0 ? *a : *b;
    const RouterStats base = router.stats("m");
    const int base_attempts = home_ep.attempts();

    // Two consecutive refusals eject the home replica; both requests
    // still succeed on the other one.
    home_ep.refuseWith(ErrorCode::kUnavailable);
    EXPECT_EQ(routeOnce(router, "m", key), other);
    EXPECT_FALSE(router.stats("m").replicas[static_cast<size_t>(home)].ejected);
    EXPECT_EQ(routeOnce(router, "m", key), other);
    RouterStats s = router.stats("m");
    EXPECT_TRUE(s.replicas[static_cast<size_t>(home)].ejected);
    EXPECT_EQ(s.ejections - base.ejections, 1);
    EXPECT_EQ(s.failovers - base.failovers, 2);
    EXPECT_EQ(home_ep.attempts(), base_attempts + 2);

    // While ejected the replica is not even attempted.
    EXPECT_EQ(routeOnce(router, "m", key), other);
    EXPECT_EQ(home_ep.attempts(), base_attempts + 2);
    clock->advanceMs(50.0);  // Window not elapsed yet.
    EXPECT_EQ(routeOnce(router, "m", key), other);
    EXPECT_EQ(home_ep.attempts(), base_attempts + 2);

    // Past the window: probation. Still refusing, so the one probe
    // re-ejects it immediately (threshold - 1 carry-over).
    clock->advanceMs(60.0);
    EXPECT_EQ(routeOnce(router, "m", key), other);
    s = router.stats("m");
    EXPECT_EQ(home_ep.attempts(), base_attempts + 3);
    EXPECT_TRUE(s.replicas[static_cast<size_t>(home)].ejected);
    EXPECT_EQ(s.reinstatements - base.reinstatements, 1);
    EXPECT_EQ(s.ejections - base.ejections, 2);

    // Healed: the next probation probe succeeds and fully reinstates.
    home_ep.accept();
    clock->advanceMs(110.0);
    EXPECT_EQ(routeOnce(router, "m", key), home);
    s = router.stats("m");
    EXPECT_FALSE(s.replicas[static_cast<size_t>(home)].ejected);
    EXPECT_EQ(s.reinstatements - base.reinstatements, 2);
    EXPECT_EQ(s.ejections - base.ejections, 2);
}

TEST(Router, AllReplicasEjectedShedsUnavailable)
{
    auto clock = std::make_shared<FakeClock>();
    RouterOptions opts;
    opts.eject_after_failures = 1;
    opts.reinstate_after_ms = 1000.0;
    opts.clock = clock;
    ShardRouter router(opts);
    auto only = std::make_shared<FakeEndpoint>("only");
    only->refuseWith(ErrorCode::kUnavailable);
    router.addReplica("m", only);

    // First submit: attempted, refused, ejected on the spot.
    std::future<Tensor> f;
    Result<RequestId> r = router.trySubmit("m", 1, makeInput(1), &f);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(only->attempts(), 1);

    // Second submit: no candidates at all — shed without an attempt.
    r = router.trySubmit("m", 1, makeInput(1), &f);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kUnavailable);
    EXPECT_EQ(only->attempts(), 1);
    RouterStats s = router.stats("m");
    EXPECT_EQ(s.shed, 2);
    EXPECT_EQ(s.ejections, 1);
    EXPECT_EQ(s.routed, 0);
}

TEST(Router, UnknownModelIsNotFound)
{
    ShardRouter router;
    std::future<Tensor> f;
    Result<RequestId> r = router.trySubmit("nope", 1, makeInput(1), &f);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kNotFound);
    std::future<Tensor> failed = router.submit("nope", 1, makeInput(1));
    try {
        failed.get();
        FAIL() << "expected ServeError";
    } catch (const ServeError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kNotFound);
    }
    EXPECT_TRUE(router.models().empty());
}

TEST(Router, RoutesByNameSharesPoolAndRemoves)
{
    // Models compiled for devices of one width all execute on that
    // width's ONE pool.
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    Model m = tinyModel();
    auto sparse =
        std::make_shared<const CompiledModel>(m, FrameworkKind::kPatDnn, dev);
    auto dense =
        std::make_shared<const CompiledModel>(m, FrameworkKind::kPatDnnDense, dev);
    EXPECT_EQ(&sparse->device().pool(), &dev.pool());
    EXPECT_EQ(&dense->device().pool(), &dev.pool());

    ServerOptions sopts;
    sopts.workers = 1;
    ShardRouter router;
    Status added = router.addLocalReplicas("sparse", sparse, 1, sopts);
    ASSERT_TRUE(added.ok()) << added.toString();
    added = router.addLocalReplicas("dense", dense, 1, sopts);
    ASSERT_TRUE(added.ok()) << added.toString();
    EXPECT_EQ(router.models(), (std::vector<std::string>{"dense", "sparse"}));

    // Each name routes to its own model.
    Tensor in = makeInput(55);
    InferenceSession ref_sparse(sparse), ref_dense(dense);
    EXPECT_EQ(Tensor::maxAbsDiff(router.submit("sparse", 1, in).get(),
                                 ref_sparse.run(in)),
              0.0);
    EXPECT_EQ(Tensor::maxAbsDiff(router.submit("dense", 1, in).get(),
                                 ref_dense.run(in)),
              0.0);
    EXPECT_EQ(futureErrorCode(router.submit("missing", 1, in)),
              ErrorCode::kNotFound);
    router.drainAll();

    // Each replica's full server snapshot comes through the router.
    for (const char* name : {"sparse", "dense"}) {
        RouterStats s = router.stats(name);
        ASSERT_EQ(s.replicas.size(), 1u) << name;
        const ServerStats& server = s.replicas[0].server;
        EXPECT_EQ(server.accepted, 1) << name;
        EXPECT_EQ(server.completed, 1) << name;
        EXPECT_EQ(server.batches, 1) << name;
        EXPECT_EQ(server.latency_hist.count, 1) << name;
        EXPECT_EQ(server.queue_depth, 0u) << name;
    }

    // A removed name is unknown again; the other keeps serving.
    EXPECT_TRUE(router.removeModel("sparse"));
    EXPECT_FALSE(router.removeModel("sparse"));
    EXPECT_EQ(futureErrorCode(router.submit("sparse", 1, in)),
              ErrorCode::kNotFound);
    EXPECT_EQ(router.replicaCount("sparse"), 0u);
    EXPECT_EQ(router.models(), (std::vector<std::string>{"dense"}));
    EXPECT_EQ(futureErrorCode(router.submit("dense", 1, in)), ErrorCode::kOk);
    router.shutdownAll();
}

TEST(Router, LocalReplicaFailoverReconciliationBitExact)
{
    // Two REAL server replicas over one shared compiled model. Phase 1
    // routes a key set across both; phase 2 shuts one replica down and
    // routes the keys that were homed there — every output, routed or
    // failed over, must be bit-exact against a direct session.
    auto model = compiledTiny();
    InferenceSession reference(model);

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 64;
    auto s0 = std::make_shared<InferenceServer>(model, sopts);
    auto s1 = std::make_shared<InferenceServer>(model, sopts);
    ShardRouter router;
    router.addReplica("m", std::make_shared<LocalReplica>(s0));
    router.addReplica("m", std::make_shared<LocalReplica>(s1));

    // Phase 1: route keys 0..31, record each key's home replica.
    std::vector<uint64_t> homed_at_0;
    for (uint64_t key = 0; key < 32; ++key) {
        int replica = -1;
        std::future<Tensor> f;
        Result<RequestId> r =
            router.trySubmit("m", key, makeInput(key), &f, {}, &replica);
        ASSERT_TRUE(r.ok()) << r.status().toString();
        if (replica == 0)
            homed_at_0.push_back(key);
        EXPECT_EQ(Tensor::maxAbsDiff(f.get(), reference.run(makeInput(key))),
                  0.0)
            << "key " << key;
    }
    ASSERT_FALSE(homed_at_0.empty());
    EXPECT_EQ(router.stats("m").failovers, 0);

    // Phase 2: kill replica 0. Its keys must fail over to replica 1 and
    // reconcile bit-exact; nothing is shed, and after enough refusals
    // the dead replica is ejected from the candidate set.
    s0->shutdown();
    for (uint64_t key : homed_at_0) {
        int replica = -1;
        std::future<Tensor> f;
        Result<RequestId> r =
            router.trySubmit("m", key, makeInput(key), &f, {}, &replica);
        ASSERT_TRUE(r.ok()) << "key " << key << ": " << r.status().toString();
        EXPECT_EQ(replica, 1) << "key " << key;
        EXPECT_EQ(Tensor::maxAbsDiff(f.get(), reference.run(makeInput(key))),
                  0.0)
            << "key " << key;
    }
    RouterStats s = router.stats("m");
    EXPECT_EQ(s.shed, 0);
    EXPECT_EQ(s.routed, 32 + static_cast<int64_t>(homed_at_0.size()));
    EXPECT_GE(s.failovers, 1);
    if (homed_at_0.size() >= 3) {  // Default eject_after_failures.
        EXPECT_TRUE(s.replicas[0].ejected);
    }
    router.shutdownAll();
}

TEST(Router, AddLocalReplicasChargesSharedAdmissionUnderModelName)
{
    AdmissionOptions aopts;
    aopts.max_queued_samples = 1;
    auto admission = std::make_shared<AdmissionController>(aopts);

    ServerOptions sopts;
    sopts.workers = 1;
    sopts.max_queue = 16;
    sopts.start_paused = true;  // Requests stage: the budget stays full.
    sopts.admission = admission;
    ShardRouter router;
    Status added = router.addLocalReplicas("m", compiledTiny(), 2, sopts);
    ASSERT_TRUE(added.ok()) << added.toString();
    EXPECT_EQ(router.replicaCount("m"), 2u);
    // Both replicas charge under the model's name.
    EXPECT_EQ(admission->stats().models.count("m"), 1u);

    // First request takes the whole budget on its home replica.
    std::future<Tensor> f1;
    ASSERT_TRUE(router.trySubmit("m", 1, makeInput(1), &f1).ok());
    EXPECT_EQ(admission->stats().queued_samples, 1);

    // Second request: home replica sheds on admission, failover finds
    // the OTHER replica shed by the SAME shared budget — the router
    // reports a shed that keeps the admission slug.
    std::future<Tensor> f2;
    Result<RequestId> r = router.trySubmit("m", 2, makeInput(2), &f2);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), ErrorCode::kResourceExhausted);
    EXPECT_STREQ(r.status().detail(), admission_detail::kOverFairShare);
    RouterStats s = router.stats("m");
    EXPECT_EQ(s.shed, 1);
    EXPECT_EQ(s.failovers, 1);

    // Shutdown drops the staged request and returns its charge.
    router.shutdownAll();
    EXPECT_EQ(admission->stats().queued_samples, 0);

    // Null model / bad counts are typed errors.
    EXPECT_EQ(router.addLocalReplicas("x", nullptr, 1).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_EQ(router.addLocalReplicas("x", compiledTiny(), 0).code(),
              ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace patdnn
