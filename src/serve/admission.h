/**
 * @file
 * Process-wide admission control for the serving tier.
 *
 * Each server's bounded queue protects one model's workers from one
 * model's producers, but nothing protects the *pool*: a
 * single hot model can fill its queue, its sessions and the shared
 * compute pool while every other model's requests still get admitted
 * into queues that will never drain at their SLO. The
 * AdmissionController is the process-wide answer — one global
 * queued-samples / queued-bytes budget shared by every server wired to
 * it, with per-model weights and a weighted fair-share shedding policy,
 * so overload turns into typed kResourceExhausted refusals at the
 * front door (cheap, retryable, and visible to the ShardRouter's
 * failover) instead of unbounded latency in the back.
 *
 * Policy (per dimension — samples and bytes are budgeted
 * independently; a request must pass both):
 *
 *   fair_share(m) = weight(m) / sum(weights) * budget
 *
 *   admit(m, n) iff total + n <= budget
 *                AND (model(m) + n <= fair_share(m)
 *                     OR total + n <= fair_share_pressure * budget)
 *
 * Below the pressure line any model may burst past its share (the
 * budget is work-conserving when the pool is idle); above it a model
 * is capped at its weighted share, which leaves the remaining budget
 * for the cold models — a model under its fair share is only refused
 * when the global budget is genuinely full. The two refusal modes are
 * code-distinguishable via Status::detail():
 *
 *   admission/over-fair-share  — this model exceeded its weighted share
 *                                under pressure (shed *this* model);
 *   admission/global-budget    — the whole pool is full (shed anyone).
 *
 * Charges are taken at admission (InferenceServer::trySubmit / submit)
 * and released when the request leaves the queue for any reason —
 * completion, deadline shed, cancel, or shutdown drop — so
 * stats().queued_* always equals the work currently admitted
 * somewhere. The controller never calls back into a server and takes
 * only its own mutex, so servers may call it with their queue lock
 * held (lock order: server -> controller, never the reverse).
 *
 * Exported obs metrics (obs/metrics.h, process-global):
 *   counters serve.admission.admitted / .shed_over_fair_share /
 *   .shed_global_budget, gauges serve.admission.queued_samples /
 *   .queued_bytes.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace patdnn {

/** Stable machine-readable slugs carried in Status::detail() by
 * admission refusals (API contract, like artifact_detail). */
namespace admission_detail {
inline constexpr char kOverFairShare[] = "admission/over-fair-share";
inline constexpr char kGlobalBudget[] = "admission/global-budget";
}  // namespace admission_detail

/** Process-wide admission budgets. 0 = that dimension is unlimited;
 * both 0 = admission control disabled (every tryAdmit admits). */
struct AdmissionOptions
{
    /// Global cap on samples queued across every wired server.
    int64_t max_queued_samples = 0;
    /// Global cap on input bytes queued across every wired server.
    int64_t max_queued_bytes = 0;
    /// Fraction of the budget above which the fair-share cap binds;
    /// below it any model may burst past its share (work conservation).
    double fair_share_pressure = 0.5;
};

/** Per-model admission accounting (one model = one registered name). */
struct AdmissionModelStats
{
    double weight = 1.0;
    int64_t queued_samples = 0;  ///< Currently admitted, not yet released.
    int64_t queued_bytes = 0;
    int64_t admitted = 0;        ///< Requests admitted (lifetime).
    int64_t shed_over_fair_share = 0;
    int64_t shed_global_budget = 0;
};

/** Snapshot of the controller's state. */
struct AdmissionStats
{
    int64_t queued_samples = 0;  ///< Sum over models; <= max_queued_samples.
    int64_t queued_bytes = 0;
    int64_t admitted = 0;
    int64_t shed_over_fair_share = 0;
    int64_t shed_global_budget = 0;
    std::map<std::string, AdmissionModelStats> models;
};

/**
 * The process-wide queued-work budget. Thread-safe; every method takes
 * the internal mutex and returns without calling user code, so callers
 * may hold their own locks across calls (see the lock-order note
 * above). The caller makes one and passes it in ServerOptions::admission
 * to every server that should share the budget — to
 * ShardRouter::addLocalReplicas, which charges it under the model name
 * and deregisters that name on ShardRouter::removeModel, or to
 * InferenceServers it builds itself.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionOptions opts = {});

    /**
     * Register `name` with a fair-share `weight` (values <= 0 clamp to
     * 1.0). Re-registering updates the weight and keeps the counters —
     * fair shares of every model rebalance immediately.
     */
    void registerModel(const std::string& name, double weight = 1.0);

    /** Drop `name` from the weight table (remaining models' shares
     * rebalance). Outstanding charges under the name remain counted
     * against the global budget until released. */
    void deregisterModel(const std::string& name);

    /**
     * Try to admit `samples`/`bytes` of queued work for `name`
     * (registering it at weight 1.0 on first sight). OK = the charge
     * was taken and the caller MUST later release() exactly this
     * amount; otherwise kResourceExhausted with an admission_detail
     * slug and nothing charged.
     */
    Status tryAdmit(const std::string& name, int64_t samples, int64_t bytes);

    /** Return a charge taken by a successful tryAdmit. */
    void release(const std::string& name, int64_t samples, int64_t bytes);

    /** Whether any budget dimension is configured. */
    bool enabled() const;

    AdmissionStats stats() const;

    const AdmissionOptions& options() const { return opts_; }

  private:
    struct ModelEntry
    {
        AdmissionModelStats stats;
        bool registered = false;  ///< Counted in the weight sum.
    };

    /** mutex_ held. Admission test for one budget dimension. */
    Status checkDimLocked(const ModelEntry& entry, int64_t model_queued,
                          int64_t total_queued, int64_t request, int64_t budget,
                          const char* what) const;

    /** mutex_ held. Sum of registered weights (>= 0). */
    double totalWeightLocked() const;

    void exportGaugesLocked() const;

    AdmissionOptions opts_;
    mutable std::mutex mutex_;
    std::map<std::string, ModelEntry> models_;
    int64_t queued_samples_ = 0;
    int64_t queued_bytes_ = 0;
    int64_t admitted_ = 0;
    int64_t shed_over_fair_share_ = 0;
    int64_t shed_global_budget_ = 0;
};

}  // namespace patdnn
