/**
 * @file
 * The deployment path end-to-end: compile a zoo model with the full
 * pattern engine, freeze it into a binary artifact (it records the
 * compile options + device fingerprint), reload it the way a
 * serving host would, and serve it behind one ShardRouter — two named
 * models sharing one compute pool, a linger window coalescing the
 * sparse tail of the request stream, and a deadline on every request
 * so backlogged work is shed, not computed.
 *
 * The final act scales one model out behind the same router: it is
 * removed and re-added as two replica servers with consistent-hash
 * affinity, a replica outage turns into ejection + transparent
 * failover (no client-visible error), and a shared AdmissionController
 * with a deliberately tiny budget shows overload shedding with a
 * machine-readable admission slug.
 *
 * Build & run:   cmake -B build && cmake --build build -j
 *                ./build/examples/serve_model
 */
#include <cstdio>
#include <future>
#include <memory>
#include <vector>

#include "core/patdnn.h"
#include "util/table.h"

using namespace patdnn;

int
main()
{
    // Compile once via the Compiler pipeline facade (training +
    // execution-code-generation products all land in the
    // CompiledModel), as a model-build farm would.
    Model model = buildVGG16(Dataset::kCifar10);
    // Every model compiled or loaded for a device of this width runs
    // on the process's one pool of that width.
    DeviceSpec device = makeCpuDevice(8);
    std::printf("compiling %s for %s (pattern engine)...\n",
                model.name().c_str(), device.name.c_str());
    Compiler compiler(device);
    Result<std::shared_ptr<CompiledModel>> built = compiler.compile(model);
    if (!built.ok()) {
        std::printf("compile failed: %s\n", built.status().toString().c_str());
        return 1;
    }
    std::shared_ptr<CompiledModel> compiled = std::move(built).value();
    std::printf("conv weights: %lld non-zero of %lld dense (%.1fx compression)\n",
                static_cast<long long>(compiled->convNonZeros()),
                static_cast<long long>(compiled->convDense()),
                static_cast<double>(compiled->convDense()) /
                    static_cast<double>(compiled->convNonZeros()));

    // Freeze to a distributable artifact and inspect its provenance on
    // the way back in (checksum + FKW invariants re-validated; the v3
    // header carries the compile options + device fingerprint). Every
    // failure is a typed Status: code() says what class of problem,
    // detail() the exact artifact failure mode, message() the prose.
    const std::string path = "vgg16_cifar10.pdnn";
    Status saved = saveModel(*compiled, path);
    if (!saved.ok()) {
        std::printf("save failed: %s\n", saved.toString().c_str());
        return 1;
    }
    ArtifactInfo info;
    Result<std::shared_ptr<CompiledModel>> reloaded =
        loadModel(path, device, ArtifactLoadOptions{}, &info);
    if (!reloaded.ok()) {
        std::printf("load failed [%s]: %s\n",
                    errorCodeName(reloaded.status().code()),
                    reloaded.status().message().c_str());
        return 1;
    }
    std::shared_ptr<CompiledModel> loaded = std::move(reloaded).value();
    std::printf("artifact %s round-tripped: v%u, tuned on %s, pool width %d, "
                "%d patterns, connectivity %.1f\n",
                path.c_str(), info.version, isaName(info.tuned_isa),
                info.pool_width, info.compile_opts.pattern_count,
                info.compile_opts.connectivity_rate);

    // One serving process, several named models, one shared compute
    // pool: the router routes by name. A dense compilation of the same
    // net stands in for "a second model".
    Result<std::shared_ptr<CompiledModel>> dense =
        compiler.compile(model, FrameworkKind::kPatDnnDense);
    if (!dense.ok()) {
        std::printf("compile failed: %s\n", dense.status().toString().c_str());
        return 1;
    }
    RouterOptions router_opts;
    router_opts.eject_after_failures = 2;
    ShardRouter router(router_opts);
    ServerOptions serving;
    serving.workers = 2;
    serving.max_batch = 8;
    serving.max_linger_ms = 2.0;  // Coalesce the sparse tail.
    Status added = router.addLocalReplicas("vgg16-pattern", loaded, 1, serving);
    if (added.ok())
        added = router.addLocalReplicas("vgg16-dense", dense.value(), 1, serving);
    if (!added.ok()) {
        std::printf("router add failed: %s\n", added.toString().c_str());
        return 1;
    }

    // A burst of async requests against both models; every request
    // carries a deadline so a backlogged server sheds instead of
    // serving stale work.
    constexpr int kBurst = 32;
    Rng rng(42);
    std::vector<std::future<Tensor>> futures;
    futures.reserve(2 * kBurst);
    for (int i = 0; i < kBurst; ++i) {
        SubmitOptions sopts;
        sopts.deadline = systemServeClock()->after(10000.0);
        for (const char* name : {"vgg16-pattern", "vgg16-dense"}) {
            Tensor in(Shape{1, 3, 32, 32});
            in.fillUniform(rng, -1.0f, 1.0f);
            futures.push_back(router.submit(name, /*key=*/i, std::move(in), sopts));
        }
    }
    int completed = 0, shed = 0;
    for (auto& f : futures) {
        try {
            f.get();
            ++completed;
        } catch (const ServeError& e) {
            // One exception type for every serving failure; dispatch
            // on the code instead of the type.
            if (e.code() != ErrorCode::kDeadlineExceeded)
                throw;
            ++shed;
        }
    }
    router.drainAll();

    Table table({"model", "completed", "batches", "avg batch", "p50 ms",
                 "p99 ms", "shed"});
    for (const std::string& name : router.models()) {
        ServerStats stats = router.stats(name).replicas[0].server;
        table.addRow({name, Table::num(stats.completed, 0),
                      Table::num(stats.batches, 0), Table::num(stats.avg_batch),
                      Table::num(stats.latency.p50), Table::num(stats.latency.p99),
                      Table::num(stats.deadline_exceeded, 0)});
    }
    table.print();
    std::printf("client view: %d completed, %d deadline-shed\n", completed, shed);

    // --- Horizontal scale: the dense model over two replicas. -------
    // Remove its single replica and re-add it as two InferenceServers
    // (queue + workers + sessions each) over the same compiled model;
    // the router keeps one front door with key affinity, health
    // ejection and transparent failover. Both replicas charge one
    // deliberately tiny admission budget so the overload path is
    // visible too.
    std::printf("\nrouting vgg16-dense across 2 replicas (consistent hash, "
                "shared admission budget)...\n");
    router.removeModel("vgg16-dense");
    auto admission = std::make_shared<AdmissionController>(
        AdmissionOptions{/*max_queued_samples=*/8, /*max_queued_bytes=*/0,
                         /*fair_share_pressure=*/0.5});
    std::vector<std::shared_ptr<InferenceServer>> replicas;
    for (int i = 0; i < 2; ++i) {
        ServerOptions sopts;
        sopts.workers = 2;
        sopts.max_batch = 8;
        sopts.admission = admission;
        sopts.admission_name = "vgg16-dense";
        replicas.push_back(
            std::make_shared<InferenceServer>(dense.value(), sopts));
        router.addReplica("vgg16-dense", std::make_shared<LocalReplica>(replicas[i]));
    }

    auto routeBurst = [&](int requests, const char* label) {
        int ok = 0, admission_shed = 0;
        Rng burst_rng(7);
        std::vector<std::future<Tensor>> fs;
        for (int i = 0; i < requests; ++i) {
            Tensor in(Shape{1, 3, 32, 32});
            in.fillUniform(burst_rng, -1.0f, 1.0f);
            std::future<Tensor> f;
            // The request key (a user/session id in a real frontend)
            // pins each client to a replica via the hash ring.
            Result<RequestId> r =
                router.trySubmit("vgg16-dense", /*key=*/i, std::move(in), &f);
            if (r.ok()) {
                fs.push_back(std::move(f));
            } else {
                // Every replica refused: an admission refusal keeps
                // its machine-readable slug through the failover.
                ++admission_shed;
                if (admission_shed == 1)
                    std::printf("  %s: first shed [%s] detail=%s\n", label,
                                errorCodeName(r.status().code()),
                                r.status().detail());
            }
        }
        for (auto& f : fs) {
            f.get();
            ++ok;
        }
        // Quiesce: a fulfilled future precedes the worker returning
        // the admission charge by a hair, so wait for the replicas to
        // go idle before the next act measures the budget.
        router.drainAll();
        RouterStats rs = router.stats("vgg16-dense");
        std::printf("  %s: %d served, %d shed | routed %lld, failovers %lld "
                    "| replica0 %s, replica1 %s\n",
                    label, ok, admission_shed,
                    static_cast<long long>(rs.routed),
                    static_cast<long long>(rs.failovers),
                    rs.replicas[0].ejected ? "EJECTED" : "healthy",
                    rs.replicas[1].ejected ? "EJECTED" : "healthy");
    };

    // Act 1 — healthy: 8 requests fit the admission budget; the keys
    // spread across both replicas, no failovers, no shedding.
    routeBurst(8, "both replicas up");

    // Act 2 — outage: shut replica 0 down. Its refusals eject it after
    // eject_after_failures and every request transparently fails over
    // to the survivor — same keys, zero client-visible errors.
    replicas[0]->shutdown();
    routeBurst(8, "replica 0 down  ");

    // Act 3 — overload: a burst past the 8-sample budget. The excess
    // is shed at the front door with a typed kResourceExhausted and an
    // admission_detail slug (cheap and retryable) instead of queueing
    // unboundedly; sustained refusals then eject the survivor too — a
    // replica that only ever refuses is down as far as routing cares.
    routeBurst(24, "overload burst  ");
    AdmissionStats as = admission->stats();
    std::printf("  admission totals: %lld admitted, %lld shed over fair "
                "share, %lld shed on global budget\n",
                static_cast<long long>(as.admitted),
                static_cast<long long>(as.shed_over_fair_share),
                static_cast<long long>(as.shed_global_budget));

    router.shutdownAll();
    std::remove(path.c_str());
    return 0;
}
