/**
 * @file
 * Shard router: the serving tier's one named-model front door.
 *
 * One InferenceServer is one replica — a queue, a set of serving
 * workers, and private sessions over one shared compiled model. The
 * ShardRouter maps a model name to N such replicas (N may be 1) and
 * gives callers a single front door:
 *
 *   - Routing policies (RouterOptions::policy):
 *       kConsistentHash — a hash ring with `vnodes` virtual nodes per
 *         replica over the caller's request key, so one key lands on
 *         one replica (cache/session affinity) and adding or removing
 *         a replica only remaps ~1/N of the key space;
 *       kLeastLoaded — route to the replica with the smallest queue
 *         depth (from ReplicaEndpoint::stats(), i.e. the same
 *         histogram-backed ServerStats the obs layer exports).
 *   - Per-replica health: `eject_after_failures` consecutive refusals
 *     (kUnavailable / kResourceExhausted / kInternal) eject a replica
 *     from routing; after `reinstate_after_ms` on the router's
 *     ServeClock it is reinstated on probation — the next refusal
 *     re-ejects it immediately, the next success fully heals it. All
 *     timing goes through the injectable clock, so ejection windows
 *     are FakeClock-testable with no sleeps.
 *   - Transparent failover: a refusal from the policy-chosen replica
 *     (its queue is full, admission shed it, or it is shut down)
 *     retries the remaining healthy replicas in policy order before
 *     the request is reported shed — the client sees one submit and
 *     the admission controller's backpressure becomes load *movement*
 *     before it becomes load *shedding*.
 *   - Model lifecycle: removeModel() takes a name out of routing, shuts
 *     its replicas down and drops it from the admission weights.
 *
 * Several models in one process share one compute pool when their
 * devices have one width (DeviceSpec::pool() is the process's pool of
 * that width). A queue never blocks a submitter: a full replica
 * refuses with kResourceExhausted and the router fails over.
 *
 * Replicas are ReplicaEndpoint instances. LocalReplica wraps an
 * in-process InferenceServer; the interface is the seam where a
 * cross-process transport (RPC stub with the same trySubmit/stats
 * contract) plugs in without touching routing, health, or failover.
 *
 * Exported obs counters: serve.router.routed / .failovers / .shed /
 * .ejections / .reinstatements.
 */
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/server.h"

namespace patdnn {

/**
 * One replica the router can submit to. Implementations must be
 * thread-safe (the router calls from any submitting thread) and must
 * express refusals through trySubmit's typed Status — never by
 * throwing — so the router can classify them for health and failover.
 */
class ReplicaEndpoint
{
  public:
    virtual ~ReplicaEndpoint() = default;

    /** InferenceServer::trySubmit contract: the accepted RequestId
     * (with *result holding the future) or a typed refusal. */
    virtual Result<RequestId> trySubmit(Tensor input,
                                        std::future<Tensor>* result,
                                        SubmitOptions sopts) = 0;

    /** Serving stats (queue_depth drives kLeastLoaded routing). */
    virtual ServerStats stats() const = 0;

    /** Human-readable identity for stats/diagnostics. */
    virtual std::string describe() const = 0;

    /** Block until accepted work is fulfilled or shed (no-op default
     * for endpoints that cannot wait remotely). */
    virtual void drain() {}

    /** Stop intake and release serving resources (no-op default). */
    virtual void shutdown() {}
};

/** In-process replica: one InferenceServer behind the endpoint seam. */
class LocalReplica : public ReplicaEndpoint
{
  public:
    explicit LocalReplica(std::shared_ptr<InferenceServer> server);

    Result<RequestId> trySubmit(Tensor input, std::future<Tensor>* result,
                                SubmitOptions sopts) override;
    ServerStats stats() const override;
    std::string describe() const override;
    void drain() override;
    void shutdown() override;

    const std::shared_ptr<InferenceServer>& server() const { return server_; }

  private:
    std::shared_ptr<InferenceServer> server_;
};

/** How the router picks a replica for a request. */
enum class RoutePolicy
{
    kConsistentHash,  ///< Stable key -> replica mapping on a hash ring.
    kLeastLoaded,     ///< Smallest queue depth wins; key is ignored.
};

const char* routePolicyName(RoutePolicy policy);

/** Router-wide knobs. */
struct RouterOptions
{
    RoutePolicy policy = RoutePolicy::kConsistentHash;
    /// Consecutive refusals that eject a replica from routing.
    int eject_after_failures = 3;
    /// Ejection window on the router's clock; after it the replica is
    /// reinstated on probation (one refusal re-ejects immediately).
    double reinstate_after_ms = 1000.0;
    /// Virtual nodes per replica on the consistent-hash ring.
    int vnodes = 64;
    /// Health/ejection time source; null = the process steady clock.
    /// Tests inject a FakeClock here.
    std::shared_ptr<ServeClock> clock;
};

/** Per-replica slice of a RouterStats snapshot. */
struct RouterReplicaStats
{
    std::string describe;
    bool ejected = false;
    int64_t routed = 0;        ///< Requests this replica accepted.
    int64_t refusals = 0;      ///< Typed refusals (health-relevant).
    int64_t ejections = 0;
    int64_t reinstatements = 0;
    ServerStats server;        ///< The endpoint's stats() snapshot.
};

/** Snapshot of one model's routing state. */
struct RouterStats
{
    int64_t routed = 0;      ///< Requests accepted by some replica.
    int64_t failovers = 0;   ///< Retry hops after a refusal.
    int64_t shed = 0;        ///< Requests no replica accepted.
    int64_t ejections = 0;
    int64_t reinstatements = 0;
    std::vector<RouterReplicaStats> replicas;
};

/**
 * Routes named-model traffic across replica sets. Thread-safe:
 * submissions, replica management and stats may race freely; endpoint
 * calls happen outside the router lock, so one slow replica never
 * blocks routing to the others.
 */
class ShardRouter
{
  public:
    explicit ShardRouter(RouterOptions opts = {});
    ~ShardRouter();

    ShardRouter(const ShardRouter&) = delete;
    ShardRouter& operator=(const ShardRouter&) = delete;

    /** Attach a replica to `model`'s set; returns its replica index. */
    int addReplica(const std::string& model,
                   std::shared_ptr<ReplicaEndpoint> endpoint);

    /**
     * Convenience: stand up `n` LocalReplica InferenceServers over one
     * shared compiled model (each gets its own queue/workers/sessions;
     * `server_opts.admission`, when set, makes every replica charge
     * the shared budget under `model` unless admission_name names
     * another identity). kInvalidArgument on a null model or n < 1.
     */
    Status addLocalReplicas(const std::string& model,
                            std::shared_ptr<const CompiledModel> compiled,
                            int n, ServerOptions server_opts = {});

    /**
     * Take `model` out of routing: later submissions get kNotFound.
     * Its endpoints are shut down outside the router lock (outstanding
     * futures resolve or fail per the server's shutdown contract), and
     * every admission identity addLocalReplicas wired for it stops
     * counting in its controller's fair-share weights. In-flight
     * submissions keep their own reference to the removed replicas.
     * False if the model is unknown.
     */
    bool removeModel(const std::string& model);

    size_t replicaCount(const std::string& model) const;

    /**
     * Route one request. `key` is the caller's affinity key (user id,
     * session id...) — consistent-hash routes on it, least-loaded
     * ignores it. On refusal the router fails over per the policy
     * order; when every live replica refuses, the LAST refusal is
     * returned (so an admission shed keeps its admission_detail slug).
     * kNotFound for an unknown model, kUnavailable when every replica
     * of the model is ejected. `replica`, when non-null, receives the
     * accepting replica's index (-1 if none).
     */
    Result<RequestId> trySubmit(const std::string& model, uint64_t key,
                                Tensor input, std::future<Tensor>* result,
                                SubmitOptions sopts = {},
                                int* replica = nullptr);

    /** Future-returning wrapper: refusals surface as a future failing
     * with ServeError carrying the same code + detail slug. */
    std::future<Tensor> submit(const std::string& model, uint64_t key,
                               Tensor input, SubmitOptions sopts = {},
                               int* replica = nullptr);

    RouterStats stats(const std::string& model) const;

    /** Model names with at least one replica, sorted. */
    std::vector<std::string> models() const;

    /** Drain every replica of every model. */
    void drainAll();

    /** Shut down every replica of every model. Idempotent. */
    void shutdownAll();

    const RouterOptions& options() const { return opts_; }

  private:
    struct Replica
    {
        std::shared_ptr<ReplicaEndpoint> endpoint;
        int consecutive_failures = 0;
        bool ejected = false;
        ServeClock::TimePoint eject_until = ServeClock::TimePoint::min();
        int64_t routed = 0;
        int64_t refusals = 0;
        int64_t ejections = 0;
        int64_t reinstatements = 0;
    };

    struct Group
    {
        std::vector<Replica> replicas;
        /// Consistent-hash ring: (point, replica index), sorted by
        /// point. Rebuilt on addReplica.
        std::vector<std::pair<uint64_t, int>> ring;
        int64_t routed = 0;
        int64_t failovers = 0;
        int64_t shed = 0;
        int64_t ejections = 0;
        int64_t reinstatements = 0;
        /// (controller, name) pairs addLocalReplicas registered; removal
        /// deregisters them.
        std::vector<std::pair<std::shared_ptr<AdmissionController>, std::string>>
            admission;
    };

    /** mutex_ held. addReplica's body; creates the group on first use. */
    int addReplicaLocked(const std::string& model,
                         std::shared_ptr<ReplicaEndpoint> endpoint);

    /** mutex_ held. Candidate replica indices for one submission, in
     * policy order, healthy (or probation-reinstated) only. Probation
     * transitions (reinstatements) are applied here. */
    std::vector<int> candidatesLocked(Group& group, uint64_t key);

    /** mutex_ held. Health bookkeeping after an attempt. */
    void recordSuccessLocked(Group& group, int idx);
    void recordFailureLocked(Group& group, int idx);

    RouterOptions opts_;
    std::shared_ptr<ServeClock> clock_;
    mutable std::mutex mutex_;
    /// Behind shared_ptr so a submission holds its group across the
    /// unlocked endpoint call: a concurrent removeModel (or a remove and
    /// re-add) leaves the held group and its replica indices intact.
    std::map<std::string, std::shared_ptr<Group>> groups_;
};

}  // namespace patdnn
