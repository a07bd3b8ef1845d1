/**
 * @file
 * Serving-tier load generator: drives a 2-replica ShardRouter over one
 * compiled model and reports the three numbers a capacity plan needs.
 *
 *   1. Closed loop — N clients submit back-to-back (each waits for its
 *      response before the next request): peak throughput and the
 *      latency quad (p50/p99/p999) as concurrency grows, for both
 *      routing policies.
 *   2. Open loop — requests arrive on a fixed timer regardless of
 *      completions (the arrival process real traffic has): achieved
 *      QPS, shed fraction and tail latency at offered loads below,
 *      near and above the closed-loop capacity.
 *   3. SLO search — binary search over offered load for the max
 *      sustainable QPS whose p99 stays under an SLO with <= 1% shed.
 *
 * Latency is the server-side submit-to-completion histogram
 * (ServerStats.latency_hist), merged across replicas — the same
 * constant-memory histogram the obs layer exports, so p999 is
 * well-defined even for short trials. Trial lengths scale with
 * PATDNN_BENCH_REPS (default 3).
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"

namespace patdnn::bench {
namespace {

constexpr const char* kModel = "tiny";

Model
tinyModel()
{
    Model m("tiny-load", "bench");
    Layer conv;
    conv.kind = OpKind::kConv;
    conv.name = "c1";
    conv.conv = ConvDesc{"c1", 3, 16, 3, 3, 16, 16, 1, 1, 1, 1};
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
    fc.in_features = 16 * 16 * 16;
    fc.out_features = 8;
    m.addLayer(std::move(fc));
    m.randomizeWeights(7);
    return m;
}

/** A router over `replicas` local InferenceServers, with the server
 * handles kept so trials can merge the per-replica latency
 * histograms. */
struct Cluster
{
    std::unique_ptr<ShardRouter> router;
    std::vector<std::shared_ptr<InferenceServer>> servers;

    Cluster() = default;
    Cluster(Cluster&&) = default;
    Cluster& operator=(Cluster&&) = default;

    ~Cluster()
    {
        if (router != nullptr)
            router->shutdownAll();
    }
};

Cluster
makeCluster(std::shared_ptr<const CompiledModel> model, int replicas,
            RoutePolicy policy)
{
    Cluster c;
    RouterOptions ropts;
    ropts.policy = policy;
    c.router = std::make_unique<ShardRouter>(ropts);
    for (int i = 0; i < replicas; ++i) {
        ServerOptions sopts;
        sopts.workers = 1;
        sopts.max_batch = 8;
        sopts.max_queue = 32;
        auto server = std::make_shared<InferenceServer>(model, sopts);
        c.servers.push_back(server);
        c.router->addReplica(kModel, std::make_shared<LocalReplica>(server));
    }
    return c;
}

/** One trial's outcome: throughput, shed fraction, latency quad. */
struct TrialResult
{
    int64_t completed = 0;
    int64_t shed = 0;
    double wall_ms = 0.0;
    Percentiles lat;

    double qps() const
    {
        return wall_ms > 0.0 ? 1e3 * static_cast<double>(completed) / wall_ms : 0.0;
    }

    double shedFraction() const
    {
        const int64_t offered = completed + shed;
        return offered > 0 ? static_cast<double>(shed) / static_cast<double>(offered)
                           : 0.0;
    }
};

Percentiles
mergedLatency(const Cluster& c)
{
    HistogramSnapshot merged;
    for (const auto& s : c.servers)
        merged.merge(s->stats().latency_hist);
    return merged.percentiles();
}

/** Closed loop: `clients` threads each submit `iters` requests
 * back-to-back, waiting for each response. */
TrialResult
closedLoop(std::shared_ptr<const CompiledModel> model, RoutePolicy policy,
           int clients, int iters)
{
    Cluster c = makeCluster(model, 2, policy);
    const Tensor proto = [] {
        Tensor t(Shape{1, 3, 16, 16});
        Rng rng(17);
        t.fillUniform(rng, -1.0f, 1.0f);
        return t;
    }();

    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> shed{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int cl = 0; cl < clients; ++cl)
        threads.emplace_back([&, cl] {
            for (int i = 0; i < iters; ++i) {
                const uint64_t key =
                    static_cast<uint64_t>(cl) * 1000003u + static_cast<uint64_t>(i);
                std::future<Tensor> f;
                auto r = c.router->trySubmit(kModel, key, Tensor(proto), &f);
                if (!r.ok()) {
                    shed.fetch_add(1);
                    continue;
                }
                f.get();
                completed.fetch_add(1);
            }
        });
    for (auto& t : threads)
        t.join();
    const auto t1 = std::chrono::steady_clock::now();

    TrialResult r;
    r.completed = completed.load();
    r.shed = shed.load();
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.lat = mergedLatency(c);
    return r;
}

/** Open loop: submit on a fixed timer at `offered_qps` for
 * `duration_ms` regardless of completions, then harvest. */
TrialResult
openLoop(std::shared_ptr<const CompiledModel> model, double offered_qps,
         double duration_ms)
{
    Cluster c = makeCluster(model, 2, RoutePolicy::kConsistentHash);
    Tensor proto(Shape{1, 3, 16, 16});
    Rng rng(29);
    proto.fillUniform(rng, -1.0f, 1.0f);

    const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(1.0 / offered_qps));
    const auto t0 = std::chrono::steady_clock::now();
    const auto t_end = t0 + std::chrono::duration<double, std::milli>(duration_ms);

    TrialResult r;
    std::vector<std::future<Tensor>> accepted;
    uint64_t key = 0;
    auto next = t0;
    while (true) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= t_end)
            break;
        std::future<Tensor> f;
        auto res = c.router->trySubmit(kModel, key++, Tensor(proto), &f);
        if (res.ok())
            accepted.push_back(std::move(f));
        else
            ++r.shed;
        next += period;
        // Bounded catch-up: a dispatcher stalled by host scheduling
        // resumes the timer from now instead of dumping its whole
        // backlog as one burst (which reads as a false shed storm).
        if (next + 8 * period < now)
            next = now;
        std::this_thread::sleep_until(next);
    }
    c.router->drainAll();
    const auto t1 = std::chrono::steady_clock::now();
    for (auto& f : accepted) {
        f.get();
        ++r.completed;
    }
    r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.lat = mergedLatency(c);
    return r;
}

/** Max offered load whose p99 meets `slo_p99_ms` with <= 1% shed:
 * binary search over [0, hi_qps], `steps` trials. Returns the best
 * passing trial (empty TrialResult when even the lowest probe fails). */
TrialResult
sloSearch(std::shared_ptr<const CompiledModel> model, double slo_p99_ms,
          double hi_qps, double trial_ms, int steps)
{
    TrialResult best;
    double lo = 0.0;
    double hi = hi_qps;
    for (int i = 0; i < steps; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (mid < 1.0)
            break;
        TrialResult r = openLoop(model, mid, trial_ms);
        if (r.lat.p99 <= slo_p99_ms && r.shedFraction() <= 0.01) {
            best = r;
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return best;
}

int
run()
{
    banner("serve-load", "SLO load generator over a 2-replica ShardRouter");
    const int reps = bench::reps();

    Model m = tinyModel();
    DeviceSpec dev = makeFixedWidthCpuDevice(2);
    auto model = std::make_shared<const CompiledModel>(m, FrameworkKind::kPatDnnDense,
                                                       dev);

    // --- 1. Closed loop: concurrency sweep + policy comparison. ------
    // Enough samples per trial that p999 is an estimate rather than
    // the single worst scheduler hiccup.
    const int iters = 250 * reps;
    std::printf("--- Closed loop (2 replicas, %d requests/client) ---\n", iters);
    Table closed({"Clients", "qps", "p50 (ms)", "p99 (ms)", "p999 (ms)"});
    double capacity_qps = 0.0;
    for (int clients : {1, 2, 4}) {
        TrialResult r = closedLoop(model, RoutePolicy::kConsistentHash, clients,
                                   iters);
        capacity_qps = std::max(capacity_qps, r.qps());
        closed.addRow({std::string("c").append(std::to_string(clients)), Table::num(r.qps(), 0),
                       Table::num(r.lat.p50, 3), Table::num(r.lat.p99, 3),
                       Table::num(r.lat.p999, 3)});
    }
    closed.print();

    std::printf("\n--- Routing policy (closed loop, 4 clients) ---\n");
    Table policy({"Policy", "qps", "p99 (ms)"});
    for (RoutePolicy p : {RoutePolicy::kConsistentHash, RoutePolicy::kLeastLoaded}) {
        TrialResult r = closedLoop(model, p, 4, iters);
        policy.addRow({routePolicyName(p), Table::num(r.qps(), 0),
                       Table::num(r.lat.p99, 3)});
    }
    policy.print();

    // --- 2. Open loop at fractions of the closed-loop capacity. ------
    const double trial_ms = 250.0 * reps;
    std::printf("\n--- Open loop (offered as fraction of closed-loop peak) ---\n");
    Table open({"Offered", "offered qps", "achieved qps", "shed %", "p50 (ms)",
                "p99 (ms)", "p999 (ms)"});
    // Fractions stay well below the closed-loop peak: the open-loop
    // dispatcher competes with the serving workers for cores, so the
    // sustainable open-loop rate sits below the closed-loop one.
    for (double frac : {0.2, 0.4, 0.6}) {
        const double offered = std::max(1.0, frac * capacity_qps);
        TrialResult r = openLoop(model, offered, trial_ms);
        open.addRow({Table::num(frac, 2) + "x", Table::num(offered, 0),
                     Table::num(r.qps(), 0), Table::num(100.0 * r.shedFraction(), 1),
                     Table::num(r.lat.p50, 3), Table::num(r.lat.p99, 3),
                     Table::num(r.lat.p999, 3)});
    }
    open.print();

    // --- 3. Max sustainable QPS under a p99 SLO. ---------------------
    // Each SLO is the larger of an absolute floor (scheduling jitter
    // puts a ~1 ms noise floor under short-trial p99 on shared hosts)
    // and a multiple of the measured single-client p50 (so slow /
    // sanitizer builds still get a meetable target). The reproduction
    // target is the ordering: the tight SLO sustains no more load than
    // the relaxed one.
    const double base_p50 =
        closedLoop(model, RoutePolicy::kConsistentHash, 1, iters).lat.p50;
    std::printf("\n--- Max sustainable QPS under p99 SLO (<=1%% shed) ---\n");
    Table slo({"SLO", "slo p99 (ms)", "max qps", "p99 at max (ms)", "shed %"});
    struct SloCase
    {
        const char* name;
        double floor_ms;
        double factor;
    };
    for (const SloCase sc :
         {SloCase{"tight", 1.0, 16.0}, SloCase{"relaxed", 4.0, 64.0}}) {
        const double slo_ms = std::max(sc.floor_ms, sc.factor * base_p50);
        TrialResult r = sloSearch(model, slo_ms, 1.5 * capacity_qps, trial_ms, 6);
        slo.addRow({sc.name, Table::num(slo_ms, 2), Table::num(r.qps(), 0),
                    Table::num(r.lat.p99, 3),
                    Table::num(100.0 * r.shedFraction(), 1)});
    }
    slo.print();

    std::printf("\nShape to check: closed-loop latency grows with concurrency "
                "while qps\nsaturates; open-loop shed stays ~0 below capacity; "
                "the tight SLO\nsustains no more load than the relaxed one.\n");
    return 0;
}

}  // namespace
}  // namespace patdnn::bench

int
main()
{
    return patdnn::bench::run();
}
