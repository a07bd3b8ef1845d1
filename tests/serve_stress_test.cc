/**
 * @file
 * Serving concurrency stress suite: N producer threads x M models
 * behind one ShardRouter, with randomized deadlines and cancellations,
 * and model removal racing submissions. The assertions are the serving
 * subsystem's core contracts under contention:
 *
 *  - no lost responses: after drainAll() every accepted request's
 *    future is ready (value or a typed serving error);
 *  - no duplicated / corrupted responses: every fulfilled future is
 *    bit-identical to a single-threaded reference run of the same
 *    input on the same model;
 *  - stats are monotonic while serving and reconcile exactly
 *    afterwards: accepted == completed + deadline_exceeded + cancelled
 *    per model, with an empty queue, and every typed refusal is one
 *    the server counted as rejected. One model's server starts paused
 *    and serves only once its queue has refused a request, so that
 *    reconciliation is checked at a nonzero count.
 *
 * Runs under the CI ASan/UBSan and TSan jobs, which is where the
 * locking and promise-handoff bugs this hunts would surface.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/patdnn.h"

namespace patdnn {
namespace {

/** A tiny conv->relu->fc model; `width` varies the hidden channels so
 * each routed model has distinct weights AND output values. */
Model
stressModel(int64_t width, uint64_t seed)
{
    Model m("stress-" + std::to_string(width), "test");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, width, 3, 3, 8, 8, 1, 1, 1, 1};
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
    fc.in_features = width * 8 * 8;
    fc.out_features = 10;
    m.addLayer(std::move(fc));
    m.randomizeWeights(seed);
    return m;
}

Tensor
stressInput(uint64_t seed)
{
    Tensor in(Shape{1, 3, 8, 8});
    Rng rng(seed);
    in.fillUniform(rng, -1.0f, 1.0f);
    return in;
}

TEST(ServeStress, MultiModelProducersWithDeadlinesAndCancellations)
{
    constexpr int kModels = 3;
    constexpr int kProducers = 4;
    constexpr int kRequestsPerProducer = 40;
    constexpr int kDistinctInputs = 6;
    const std::string names[kModels] = {"m12", "m16", "m20"};
    const int64_t widths[kModels] = {12, 16, 20};

    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    ServerOptions sopts;
    sopts.workers = 2;
    sopts.max_batch = 4;
    sopts.max_queue = 32;
    sopts.max_linger_ms = 0.2;  // Exercise the linger path too.
    // A zero ejection window: a replica that refuses on a full queue is
    // back on probation at the next submission, so every refusal below
    // reaches (and is counted by) its server.
    RouterOptions ropts;
    ropts.reinstate_after_ms = 0.0;
    ShardRouter router(ropts);

    // One caller-made replica per model: the test keeps each server to
    // cancel by the RequestId the router hands back. Model 0's server
    // starts paused, so its queue fills; the first producer it refuses
    // starts it.
    constexpr int kPaused = 0;
    std::atomic<bool> paused_started{false};
    std::vector<std::shared_ptr<const CompiledModel>> models;
    std::vector<std::shared_ptr<InferenceServer>> servers;
    for (int i = 0; i < kModels; ++i) {
        models.push_back(std::make_shared<const CompiledModel>(
            stressModel(widths[i], 1000 + static_cast<uint64_t>(i)),
            FrameworkKind::kPatDnn, dev));
        ServerOptions o = sopts;
        o.start_paused = i == kPaused;
        servers.push_back(std::make_shared<InferenceServer>(models.back(), o));
        router.addReplica(names[i], std::make_shared<LocalReplica>(servers.back()));
    }

    // Single-threaded references for every (model, input) pair the
    // producers can request.
    Tensor refs[kModels][kDistinctInputs];
    for (int mi = 0; mi < kModels; ++mi) {
        InferenceSession session(models[static_cast<size_t>(mi)]);
        for (int ii = 0; ii < kDistinctInputs; ++ii)
            refs[mi][ii] = session.run(stressInput(static_cast<uint64_t>(ii)));
    }

    struct Pending
    {
        int model = 0;
        int input = 0;
        std::future<Tensor> future;
        bool refused = false;     ///< trySubmit returned a typed refusal.
        bool cancel_won = false;  ///< cancel() returned true for this id.
    };
    std::vector<std::vector<Pending>> per_thread(kProducers);

    // Stats monitor: serving counters must be monotonic while the
    // producers hammer the router.
    std::atomic<bool> done{false};
    std::thread monitor([&] {
        int64_t prev_completed[kModels] = {};
        int64_t prev_accepted[kModels] = {};
        int64_t prev_rejected[kModels] = {};
        int64_t prev_deadline[kModels] = {};
        int64_t prev_cancelled[kModels] = {};
        int64_t prev_batches[kModels] = {};
        while (!done.load(std::memory_order_relaxed)) {
            for (int mi = 0; mi < kModels; ++mi) {
                RouterStats rs = router.stats(names[mi]);
                ASSERT_EQ(rs.replicas.size(), 1u);
                const ServerStats& s = rs.replicas[0].server;
                EXPECT_GE(s.completed, prev_completed[mi]);
                EXPECT_GE(s.accepted, prev_accepted[mi]);
                EXPECT_GE(s.rejected, prev_rejected[mi]);
                EXPECT_GE(s.deadline_exceeded, prev_deadline[mi]);
                EXPECT_GE(s.cancelled, prev_cancelled[mi]);
                EXPECT_GE(s.batches, prev_batches[mi]);
                EXPECT_GE(s.accepted,
                          s.completed + s.deadline_exceeded + s.cancelled);
                prev_completed[mi] = s.completed;
                prev_accepted[mi] = s.accepted;
                prev_rejected[mi] = s.rejected;
                prev_deadline[mi] = s.deadline_exceeded;
                prev_cancelled[mi] = s.cancelled;
                prev_batches[mi] = s.batches;
            }
            std::this_thread::yield();
        }
    });

    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t)
        producers.emplace_back([&, t] {
            Rng rng(static_cast<uint64_t>(7000 + t));
            auto roll = [&](uint64_t n) {
                return static_cast<uint64_t>(rng.uniformInt(
                    0, static_cast<int64_t>(n) - 1));
            };
            for (int r = 0; r < kRequestsPerProducer; ++r) {
                Pending p;
                p.model = static_cast<int>(roll(kModels));
                p.input = static_cast<int>(roll(kDistinctInputs));
                const auto& server = servers[static_cast<size_t>(p.model)];
                SubmitOptions sopts;
                uint64_t fate = roll(10);
                if (fate == 0)
                    sopts.deadline = server->deadlineIn(0.0);  // Due on arrival.
                else if (fate == 1)
                    sopts.deadline = server->deadlineIn(0.05);  // Tight race.
                int replica = -1;
                Result<RequestId> id = router.trySubmit(
                    names[p.model],
                    static_cast<uint64_t>(t * kRequestsPerProducer + r),
                    stressInput(static_cast<uint64_t>(p.input)), &p.future,
                    sopts, &replica);
                if (id.ok()) {
                    EXPECT_EQ(replica, 0);
                    if (roll(8) == 0)
                        p.cancel_won = server->cancel(id.value());
                } else {
                    // The server's queue is full: a typed, retryable
                    // refusal instead of a blocked producer.
                    EXPECT_EQ(id.code(), ErrorCode::kResourceExhausted)
                        << id.status().toString();
                    p.refused = true;
                    if (p.model == kPaused && !paused_started.exchange(true))
                        server->start();
                }
                per_thread[static_cast<size_t>(t)].push_back(std::move(p));
            }
        });
    for (auto& t : producers)
        t.join();
    // Never refused (the assertion below fails): start it so the drain
    // returns.
    if (!paused_started.exchange(true))
        servers[kPaused]->start();
    router.drainAll();
    done.store(true, std::memory_order_relaxed);
    monitor.join();

    // Tally every request exactly once; no response may be lost,
    // mis-typed, or numerically different from the reference.
    int64_t completed[kModels] = {};
    int64_t deadline[kModels] = {};
    int64_t cancelled[kModels] = {};
    int64_t refused[kModels] = {};
    for (auto& thread_requests : per_thread)
        for (Pending& p : thread_requests) {
            if (p.refused) {
                ++refused[p.model];
                continue;
            }
            ASSERT_EQ(p.future.wait_for(std::chrono::seconds(0)),
                      std::future_status::ready)
                << "lost response for model " << names[p.model];
            try {
                Tensor out = p.future.get();
                EXPECT_EQ(Tensor::maxAbsDiff(out, refs[p.model][p.input]), 0.0)
                    << names[p.model] << " input " << p.input;
                EXPECT_FALSE(p.cancel_won)
                    << "cancel() won but the request completed";
                ++completed[p.model];
            } catch (const ServeError& e) {
                if (e.code() == ErrorCode::kDeadlineExceeded) {
                    EXPECT_FALSE(p.cancel_won)
                        << "cancel() won but the request expired";
                    ++deadline[p.model];
                } else if (e.code() == ErrorCode::kCancelled) {
                    EXPECT_TRUE(p.cancel_won)
                        << "request cancelled without a winning cancel()";
                    ++cancelled[p.model];
                } else {
                    throw;  // Unexpected code: fail the test.
                }
            }
            // Any other exception type escapes and fails the test.
        }

    // Exact reconciliation against the servers' and router's counters.
    int64_t total = 0;
    for (int mi = 0; mi < kModels; ++mi) {
        RouterStats rs = router.stats(names[mi]);
        const ServerStats& s = rs.replicas[0].server;
        EXPECT_EQ(s.completed, completed[mi]) << names[mi];
        EXPECT_EQ(s.deadline_exceeded, deadline[mi]) << names[mi];
        EXPECT_EQ(s.cancelled, cancelled[mi]) << names[mi];
        EXPECT_EQ(s.accepted, s.completed + s.deadline_exceeded + s.cancelled)
            << names[mi];
        EXPECT_EQ(s.queue_depth, 0u) << names[mi];
        EXPECT_EQ(s.rejected, refused[mi]) << names[mi];
        EXPECT_EQ(rs.routed, s.accepted) << names[mi];
        EXPECT_EQ(rs.shed, refused[mi]) << names[mi];
        total += s.accepted + s.rejected;
    }
    EXPECT_EQ(total, int64_t{kProducers} * kRequestsPerProducer);
    EXPECT_GT(refused[kPaused], 0) << names[kPaused];
    router.shutdownAll();
}

TEST(ServeStress, RemovalRacesSubmissions)
{
    // Producers keep routing to a model while another thread removes and
    // re-adds it: every future must resolve (value or a typed error),
    // never hang or crash, and a submission whose model went away
    // mid-attempt must not touch the router's bookkeeping out of bounds.
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    ServerOptions sopts;
    sopts.workers = 1;
    ShardRouter router;
    auto model = std::make_shared<const CompiledModel>(
        stressModel(12, 5), FrameworkKind::kPatDnnDense, dev);
    Status added = router.addLocalReplicas("hot", model, 1, sopts);
    ASSERT_TRUE(added.ok()) << added.toString();

    std::atomic<bool> stop{false};
    std::thread flipper([&] {
        for (int i = 0; i < 100; ++i) {
            router.removeModel("hot");
            (void)router.addLocalReplicas("hot", model, 1, sopts);
        }
        stop.store(true, std::memory_order_relaxed);
    });

    int resolved = 0;
    Tensor in = stressInput(3);
    InferenceSession ref(model);
    Tensor expect = ref.run(in);
    // do-while: at least one submit even if the flipper (whose final
    // action is a re-add) finishes before this thread gets scheduled.
    do {
        std::future<Tensor> f =
            router.submit("hot", static_cast<uint64_t>(resolved), in);
        try {
            EXPECT_EQ(Tensor::maxAbsDiff(f.get(), expect), 0.0);
        } catch (const ServeError& e) {
            // kNotFound: raced the removal window. kUnavailable:
            // submitted to a server already shutting down.
            EXPECT_TRUE(e.code() == ErrorCode::kNotFound ||
                        e.code() == ErrorCode::kUnavailable)
                << errorCodeName(e.code());
        }
        ++resolved;
    } while (!stop.load(std::memory_order_relaxed));
    flipper.join();
    EXPECT_GT(resolved, 0);
    EXPECT_EQ(router.models(), (std::vector<std::string>{"hot"}));
    EXPECT_EQ(router.replicaCount("hot"), 1u);
    router.shutdownAll();
}

}  // namespace
}  // namespace patdnn
