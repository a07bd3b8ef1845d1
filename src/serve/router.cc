#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace patdnn {

namespace {

/** Process-global routing metrics (stable references; see
 * obs/metrics.h registry contract). */
struct RouterMetrics
{
    Counter& routed = MetricsRegistry::global().counter("serve.router.routed");
    Counter& failovers =
        MetricsRegistry::global().counter("serve.router.failovers");
    Counter& shed = MetricsRegistry::global().counter("serve.router.shed");
    Counter& ejections =
        MetricsRegistry::global().counter("serve.router.ejections");
    Counter& reinstatements =
        MetricsRegistry::global().counter("serve.router.reinstatements");
};

RouterMetrics&
metrics()
{
    static RouterMetrics m;
    return m;
}

/** splitmix64: cheap, well-mixed 64-bit hash for ring points and
 * request keys (deterministic across platforms and runs). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A refusal the router retries elsewhere (vs. a caller error it
 * propagates as-is). */
bool
failoverWorthy(ErrorCode code)
{
    return code != ErrorCode::kInvalidArgument;
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalReplica
// ---------------------------------------------------------------------------

LocalReplica::LocalReplica(std::shared_ptr<InferenceServer> server)
    : server_(std::move(server))
{
    PATDNN_CHECK(server_ != nullptr, "LocalReplica needs a server");
}

Result<RequestId>
LocalReplica::trySubmit(Tensor input, std::future<Tensor>* result,
                        SubmitOptions sopts)
{
    return server_->trySubmit(std::move(input), result, sopts);
}

ServerStats
LocalReplica::stats() const
{
    return server_->stats();
}

std::string
LocalReplica::describe() const
{
    return "local";
}

void
LocalReplica::drain()
{
    server_->drain();
}

void
LocalReplica::shutdown()
{
    server_->shutdown();
}

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

const char*
routePolicyName(RoutePolicy policy)
{
    switch (policy) {
      case RoutePolicy::kConsistentHash:
        return "consistent-hash";
      case RoutePolicy::kLeastLoaded:
        return "least-loaded";
    }
    return "unknown";
}

ShardRouter::ShardRouter(RouterOptions opts)
    : opts_(opts), clock_(opts.clock ? opts.clock : systemServeClock())
{
    opts_.eject_after_failures = std::max(1, opts_.eject_after_failures);
    opts_.reinstate_after_ms = std::max(0.0, opts_.reinstate_after_ms);
    opts_.vnodes = std::max(1, opts_.vnodes);
}

ShardRouter::~ShardRouter()
{
    shutdownAll();
}

int
ShardRouter::addReplica(const std::string& model,
                        std::shared_ptr<ReplicaEndpoint> endpoint)
{
    PATDNN_CHECK(endpoint != nullptr, "router replica endpoint is null");
    std::lock_guard<std::mutex> lk(mutex_);
    return addReplicaLocked(model, std::move(endpoint));
}

int
ShardRouter::addReplicaLocked(const std::string& model,
                              std::shared_ptr<ReplicaEndpoint> endpoint)
{
    std::shared_ptr<Group>& slot = groups_[model];
    if (!slot)
        slot = std::make_shared<Group>();
    Group& group = *slot;
    const int idx = static_cast<int>(group.replicas.size());
    Replica replica;
    replica.endpoint = std::move(endpoint);
    group.replicas.push_back(std::move(replica));
    // Rebuild the ring with the new replica's virtual nodes. Points mix
    // the replica index with the vnode counter, double-hashed so the
    // ring lives in a different domain than the single-hashed request
    // keys — otherwise small integer keys would alias replica 0's
    // vnodes exactly (mix64(key) == ring point mix64(v)) and the walk
    // would start on replica 0 for every such key.
    for (int v = 0; v < opts_.vnodes; ++v)
        group.ring.emplace_back(
            mix64(mix64((static_cast<uint64_t>(idx) << 32) |
                        static_cast<uint64_t>(v))),
            idx);
    std::sort(group.ring.begin(), group.ring.end());
    return idx;
}

Status
ShardRouter::addLocalReplicas(const std::string& model,
                              std::shared_ptr<const CompiledModel> compiled,
                              int n, ServerOptions server_opts)
{
    if (!compiled)
        return Status(ErrorCode::kInvalidArgument,
                      "router: null model for '" + model + "'");
    if (n < 1)
        return Status(ErrorCode::kInvalidArgument,
                      "router: replica count must be >= 1");
    if (server_opts.admission && server_opts.admission_name.empty())
        server_opts.admission_name = model;
    // Servers start outside the lock; the replicas and their admission
    // identity join the group in one step, so removeModel sees both.
    std::vector<std::shared_ptr<ReplicaEndpoint>> endpoints;
    for (int i = 0; i < n; ++i)
        endpoints.push_back(std::make_shared<LocalReplica>(
            std::make_shared<InferenceServer>(compiled, server_opts)));
    std::lock_guard<std::mutex> lk(mutex_);
    for (auto& endpoint : endpoints)
        addReplicaLocked(model, std::move(endpoint));
    if (server_opts.admission) {
        auto& wired = groups_[model]->admission;
        std::pair<std::shared_ptr<AdmissionController>, std::string> id(
            server_opts.admission, server_opts.admission_name);
        if (std::find(wired.begin(), wired.end(), id) == wired.end())
            wired.push_back(std::move(id));
    }
    return Status::OK();
}

bool
ShardRouter::removeModel(const std::string& model)
{
    std::shared_ptr<Group> victim;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = groups_.find(model);
        if (it == groups_.end())
            return false;
        victim = std::move(it->second);
        groups_.erase(it);
    }
    // Outside the lock: shutdown drains and joins, which must not block
    // other models' routing. The replica list is read unlocked because
    // the group is out of the map, so no addReplica can reach it.
    for (const Replica& r : victim->replicas)
        r.endpoint->shutdown();
    for (const auto& [controller, name] : victim->admission)
        controller->deregisterModel(name);
    return true;
}

size_t
ShardRouter::replicaCount(const std::string& model) const
{
    std::lock_guard<std::mutex> lk(mutex_);
    auto it = groups_.find(model);
    return it == groups_.end() ? 0 : it->second->replicas.size();
}

std::vector<int>
ShardRouter::candidatesLocked(Group& group, uint64_t key)
{
    // Probation pass: an ejection window that has elapsed on the
    // router's clock reinstates the replica — one refusal away from
    // re-ejection, one success away from full health.
    const ServeClock::TimePoint now = clock_->now();
    for (Replica& r : group.replicas) {
        if (r.ejected && now >= r.eject_until) {
            r.ejected = false;
            r.consecutive_failures = opts_.eject_after_failures - 1;
            ++r.reinstatements;
            ++group.reinstatements;
            metrics().reinstatements.inc();
        }
    }
    std::vector<int> order;
    order.reserve(group.replicas.size());
    if (opts_.policy == RoutePolicy::kConsistentHash && !group.ring.empty()) {
        // Walk the ring from the key's point, collecting each distinct
        // replica the first time it appears: the head is the key's
        // home replica, the tail the stable failover order.
        const uint64_t h = mix64(key);
        const size_t start = static_cast<size_t>(
            std::lower_bound(group.ring.begin(), group.ring.end(),
                             std::make_pair(h, std::numeric_limits<int>::min())) -
            group.ring.begin());
        std::vector<bool> seen(group.replicas.size(), false);
        for (size_t step = 0; step < group.ring.size(); ++step) {
            const size_t pos = (start + step) % group.ring.size();
            const int idx = group.ring[pos].second;
            if (seen[static_cast<size_t>(idx)])
                continue;
            seen[static_cast<size_t>(idx)] = true;
            if (!group.replicas[static_cast<size_t>(idx)].ejected)
                order.push_back(idx);
        }
    } else {
        for (int idx = 0; idx < static_cast<int>(group.replicas.size()); ++idx)
            if (!group.replicas[static_cast<size_t>(idx)].ejected)
                order.push_back(idx);
    }
    return order;
}

void
ShardRouter::recordSuccessLocked(Group& group, int idx)
{
    Replica& r = group.replicas[static_cast<size_t>(idx)];
    r.consecutive_failures = 0;
    ++r.routed;
    ++group.routed;
    metrics().routed.inc();
}

void
ShardRouter::recordFailureLocked(Group& group, int idx)
{
    Replica& r = group.replicas[static_cast<size_t>(idx)];
    ++r.refusals;
    if (++r.consecutive_failures >= opts_.eject_after_failures && !r.ejected) {
        r.ejected = true;
        r.eject_until = clock_->now() +
                        std::chrono::duration_cast<ServeClock::Duration>(
                            std::chrono::duration<double, std::milli>(
                                opts_.reinstate_after_ms));
        ++r.ejections;
        ++group.ejections;
        metrics().ejections.inc();
    }
}

Result<RequestId>
ShardRouter::trySubmit(const std::string& model, uint64_t key, Tensor input,
                       std::future<Tensor>* result, SubmitOptions sopts,
                       int* replica)
{
    if (replica != nullptr)
        *replica = -1;
    std::vector<int> order;
    std::vector<std::shared_ptr<ReplicaEndpoint>> endpoints;
    std::shared_ptr<Group> group;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = groups_.find(model);
        if (it == groups_.end() || it->second->replicas.empty())
            return Status(ErrorCode::kNotFound,
                          "router: no replicas for model '" + model + "'");
        group = it->second;
        order = candidatesLocked(*group, key);
        if (order.empty()) {
            ++group->shed;
            metrics().shed.inc();
            return Status(ErrorCode::kUnavailable,
                          "router: every replica of '" + model +
                              "' is ejected");
        }
        endpoints.reserve(order.size());
        for (int idx : order)
            endpoints.push_back(
                group->replicas[static_cast<size_t>(idx)].endpoint);
    }
    if (opts_.policy == RoutePolicy::kLeastLoaded && order.size() > 1) {
        // Queue depths come from the endpoints (outside the router
        // lock — a slow replica must not block routing); re-sort the
        // candidate list shallowest-first, index as the tie-break.
        std::vector<std::pair<size_t, int>> by_depth;
        by_depth.reserve(order.size());
        for (size_t i = 0; i < order.size(); ++i)
            by_depth.emplace_back(endpoints[i]->stats().queue_depth, order[i]);
        std::vector<std::shared_ptr<ReplicaEndpoint>> sorted_eps;
        std::vector<int> sorted_order;
        std::vector<size_t> perm(order.size());
        for (size_t i = 0; i < perm.size(); ++i)
            perm[i] = i;
        std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
            return by_depth[a] < by_depth[b];
        });
        for (size_t i : perm) {
            sorted_eps.push_back(endpoints[i]);
            sorted_order.push_back(order[i]);
        }
        endpoints = std::move(sorted_eps);
        order = std::move(sorted_order);
    }

    Status last(ErrorCode::kUnavailable, "router: no replica accepted");
    for (size_t attempt = 0; attempt < order.size(); ++attempt) {
        const int idx = order[attempt];
        const bool final_attempt = attempt + 1 == order.size();
        if (attempt > 0) {
            std::lock_guard<std::mutex> lk(mutex_);
            ++group->failovers;
            metrics().failovers.inc();
        }
        // Retries need the tensor back after a refusal, so every
        // non-final attempt submits a copy and only the last moves.
        Result<RequestId> r = endpoints[attempt]->trySubmit(
            final_attempt ? std::move(input) : Tensor(input), result, sopts);
        // Bookkeeping goes to the held group, even if the model was
        // removed (or removed and re-added) meanwhile: `idx` indexes its
        // replicas, which only ever grow.
        std::lock_guard<std::mutex> lk(mutex_);
        if (r.ok()) {
            recordSuccessLocked(*group, idx);
            if (replica != nullptr)
                *replica = idx;
            return r;
        }
        if (!failoverWorthy(r.code()))
            return r;  // The request's own fault; no health penalty.
        recordFailureLocked(*group, idx);
        last = r.status();
    }
    {
        std::lock_guard<std::mutex> lk(mutex_);
        ++group->shed;
        metrics().shed.inc();
    }
    return last;
}

std::future<Tensor>
ShardRouter::submit(const std::string& model, uint64_t key, Tensor input,
                    SubmitOptions sopts, int* replica)
{
    std::future<Tensor> result;
    Result<RequestId> r =
        trySubmit(model, key, std::move(input), &result, sopts, replica);
    if (r.ok())
        return result;
    std::promise<Tensor> p;
    p.set_exception(std::make_exception_ptr(ServeError(
        r.code(), r.status().message(), r.status().detail())));
    return p.get_future();
}

RouterStats
ShardRouter::stats(const std::string& model) const
{
    RouterStats s;
    std::vector<std::shared_ptr<ReplicaEndpoint>> endpoints;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = groups_.find(model);
        if (it == groups_.end())
            return s;
        const Group& group = *it->second;
        s.routed = group.routed;
        s.failovers = group.failovers;
        s.shed = group.shed;
        s.ejections = group.ejections;
        s.reinstatements = group.reinstatements;
        s.replicas.reserve(group.replicas.size());
        for (const Replica& r : group.replicas) {
            RouterReplicaStats rs;
            rs.describe = r.endpoint->describe();
            rs.ejected = r.ejected;
            rs.routed = r.routed;
            rs.refusals = r.refusals;
            rs.ejections = r.ejections;
            rs.reinstatements = r.reinstatements;
            s.replicas.push_back(std::move(rs));
            endpoints.push_back(r.endpoint);
        }
    }
    // Server snapshots outside the lock (each is replica-local).
    for (size_t i = 0; i < endpoints.size(); ++i)
        s.replicas[i].server = endpoints[i]->stats();
    return s;
}

std::vector<std::string>
ShardRouter::models() const
{
    std::vector<std::string> out;
    std::lock_guard<std::mutex> lk(mutex_);
    out.reserve(groups_.size());
    for (const auto& [name, group] : groups_)
        out.push_back(name);
    return out;
}

void
ShardRouter::drainAll()
{
    std::vector<std::shared_ptr<ReplicaEndpoint>> endpoints;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const auto& [name, group] : groups_)
            for (const Replica& r : group->replicas)
                endpoints.push_back(r.endpoint);
    }
    for (const auto& e : endpoints)
        e->drain();
}

void
ShardRouter::shutdownAll()
{
    std::vector<std::shared_ptr<ReplicaEndpoint>> endpoints;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        for (const auto& [name, group] : groups_)
            for (const Replica& r : group->replicas)
                endpoints.push_back(r.endpoint);
    }
    for (const auto& e : endpoints)
        e->shutdown();
}

}  // namespace patdnn
