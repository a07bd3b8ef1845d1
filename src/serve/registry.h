/**
 * @file
 * Multi-model serving registry.
 *
 * One serving process, several named compiled models: the registry
 * loads (or adopts) artifacts under caller-chosen names, fronts each
 * with its own micro-batching InferenceServer, and routes requests by
 * model name. All models share ONE compute thread pool — the
 * registry's DeviceSpec materializes its lazy util::ThreadPool once at
 * construction and every loaded model is compiled/restored against a
 * copy of that spec, so N models cost one set of compute workers
 * instead of N (the per-server *serving* workers are cheap: they
 * block in the queue, the compute pool does the math). Each worker's
 * session runs out of its model's planned activation arena, so the
 * per-worker memory cost of holding many models stays at peak-live
 * size rather than sum-of-layers.
 *
 * Eviction shuts the model's server down (outstanding futures resolve
 * or fail per the server's shutdown contract) and drops the registry's
 * reference; in-flight submit() calls racing an evict hold their own
 * shared_ptr, so nothing dangles.
 */
#pragma once

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/artifact.h"
#include "serve/server.h"

namespace patdnn {

/** Registry-wide knobs. */
struct RegistryOptions
{
    /// Execution device shared by every model in this registry; its
    /// compute pool is created once and shared. Defaults to a host CPU
    /// device (DeviceSpec{} width).
    DeviceSpec device;
    /// Server options applied to each model's InferenceServer (the
    /// clock, linger window, batch and queue bounds are per-registry
    /// policy; per-model overrides go through add()).
    ServerOptions server;
    /// Process-wide queued-work budget (serve/admission.h). With any
    /// limit set, the registry owns one AdmissionController shared by
    /// every server it fronts: each model charges under its registered
    /// name with ServerOptions::admission_weight as its fair-share
    /// weight, so one hot model sheds (kResourceExhausted +
    /// admission_detail slug) instead of starving the pool. Both
    /// limits 0 (the default) = no admission control.
    AdmissionOptions admission;
};

/**
 * Named multi-model serving front end.
 *
 * Thread-safe: load/add/evict/submit/stats may race freely. The
 * registry never blocks one model's producers on another model's
 * queue — per-model servers are resolved under a short lock, then
 * released before any blocking call.
 */
class ModelRegistry
{
  public:
    explicit ModelRegistry(RegistryOptions opts = {});
    ~ModelRegistry();

    ModelRegistry(const ModelRegistry&) = delete;
    ModelRegistry& operator=(const ModelRegistry&) = delete;

    /**
     * Load an artifact from `path` and serve it as `name`. Propagates
     * the artifact loader's Status (code + detail slug, see artifact.h)
     * when the artifact is rejected; kInvalidArgument when the name is
     * already taken.
     */
    Status load(const std::string& name, const std::string& path);

    /** Serve an already-compiled model as `name`; per-model server
     * options override the registry defaults. kInvalidArgument when
     * the model is null or the name is taken. */
    Status add(const std::string& name,
               std::shared_ptr<const CompiledModel> model);
    Status add(const std::string& name,
               std::shared_ptr<const CompiledModel> model,
               const ServerOptions& server_opts);

    /** Shut down `name`'s server and drop it. False if absent. */
    bool evict(const std::string& name);

    /** Loaded model names, sorted. */
    std::vector<std::string> names() const;
    size_t size() const;

    /** The shared model under `name`; null if absent. */
    std::shared_ptr<const CompiledModel> model(const std::string& name) const;

    /**
     * Route one request to `name`'s server (blocking submit semantics).
     * An unknown name fails only this request's future with
     * ServeError(kNotFound).
     */
    std::future<Tensor> submit(const std::string& name, Tensor input,
                               SubmitOptions sopts = {}, RequestId* id = nullptr);

    /** Non-throwing, non-blocking admission path to `name`'s server
     * (InferenceServer::trySubmit semantics — admission-control
     * refusals surface here as kResourceExhausted with their
     * admission_detail slug); kNotFound for an unknown name. */
    Result<RequestId> trySubmit(const std::string& name, Tensor input,
                                std::future<Tensor>* result,
                                SubmitOptions sopts = {});

    /** Cancel a queued request on `name`'s server. */
    bool cancel(const std::string& name, RequestId id);

    /** Stats snapshot for `name` (default-constructed if absent). */
    ServerStats stats(const std::string& name) const;

    /** Absolute deadline `ms` from now on the registry's clock. */
    ServeClock::TimePoint deadlineIn(double ms) const;

    /** Block until every model's accepted work is fulfilled or shed. */
    void drainAll();

    /** Stop intake and join every model's workers. Idempotent. */
    void shutdownAll();

    /** The shared execution device (and compute pool). */
    const DeviceSpec& device() const { return opts_.device; }

    /** The registry-owned admission controller; null when
     * RegistryOptions::admission set no budget. */
    const std::shared_ptr<AdmissionController>& admission() const
    {
        return admission_;
    }

  private:
    struct Entry
    {
        std::shared_ptr<const CompiledModel> model;
        std::shared_ptr<InferenceServer> server;
    };

    std::shared_ptr<InferenceServer> serverFor(const std::string& name) const;

    RegistryOptions opts_;
    std::shared_ptr<ServeClock> clock_;
    std::shared_ptr<AdmissionController> admission_;  ///< Null = disabled.
    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

}  // namespace patdnn
