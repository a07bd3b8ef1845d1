/**
 * @file
 * Asynchronous batched inference server.
 *
 * The north-star deployment serves heavy traffic from one compiled
 * model: requests enter a bounded queue, serving workers (scheduled on
 * a util::ThreadPool) pop them, transparently micro-batch compatible
 * inputs along N, run their private InferenceSession over the shared
 * artifact, and fulfill per-request futures. Per-model serving stats
 * (latency percentiles from an obs/metrics.h histogram, throughput,
 * queue depth) are exposed via stats(); when tracing is enabled the
 * whole request path — queue wait, batch formation, dispatch,
 * per-layer execution, epilogue — emits spans (obs/trace.h) stamped
 * from the server's injectable clock.
 *
 * Four behaviours make the server production-shaped rather than a
 * queue demo:
 *
 *  - Deadlines: a request may carry an absolute deadline (SubmitOptions,
 *    measured against the server's ServeClock). Expired requests are
 *    shed from the queue before dispatch — their futures fail with
 *    ServeError(kDeadlineExceeded) and they count in
 *    stats().deadline_exceeded, separately from rejections — so a
 *    backlogged server spends no model time on answers nobody is
 *    waiting for.
 *  - Cancellation: submit hands back a RequestId; cancel() removes a
 *    still-queued request (future fails with ServeError(kCancelled)).
 *  - Admission control: a server wired to a shared AdmissionController
 *    (serve/admission.h) charges every accepted request against the
 *    process-wide queued-samples/queued-bytes budget under its model
 *    name, and sheds with kResourceExhausted (admission_detail slug)
 *    when the weighted fair-share policy refuses — so one hot model
 *    backs off at its own front door instead of starving the pool.
 *    Charges are released when a request leaves the queue for any
 *    reason (completion, deadline shed, cancel, shutdown drop).
 *  - Linger batching: with max_linger_ms > 0 a worker that popped a
 *    partial batch waits up to the linger window for more compatible
 *    requests instead of dispatching immediately, so a *sparse* request
 *    stream still coalesces. A full batch (max_batch samples) always
 *    preempts the linger; max_linger_ms == 0 dispatches whatever is
 *    queued (the pre-linger behaviour). All waits go through the
 *    injected ServeClock, so linger timing is testable with a
 *    FakeClock and no sleeps.
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/admission.h"
#include "serve/clock.h"
#include "serve/session.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace patdnn {

/**
 * The one exception type a serving future can fail with: carries the
 * same ErrorCode vocabulary as Status, so async (future) and sync
 * (Status/Result) failures dispatch on one enum. Codes thrown by the
 * serving layer: kDeadlineExceeded (shed before dispatch), kCancelled
 * (removed by cancel()), kNotFound (router routing to an unknown
 * model name), kInvalidArgument (malformed request input) and
 * kUnavailable (submit raced a shutdown).
 */
class ServeError : public std::runtime_error
{
  public:
    /** `detail`, when given, must be a stable slug constant (same
     * contract as Status::detail) — e.g. the admission_detail slugs on
     * kResourceExhausted refusals surfaced through futures. */
    ServeError(ErrorCode code, const std::string& what, const char* detail = "")
        : std::runtime_error(what), code_(code), detail_(detail)
    {
    }

    ErrorCode code() const { return code_; }

    /** Stable machine-readable slug ("" when none was attached). */
    const char* detail() const { return detail_; }

  private:
    ErrorCode code_;
    const char* detail_;
};

/** Serving knobs. */
struct ServerOptions
{
    int workers = 2;        ///< Serving threads (each owns one session).
    int64_t max_batch = 8;  ///< Micro-batch cap in samples along N.
    size_t max_queue = 64;  ///< Bounded pending-request queue depth.
    /// Batching linger window in ms: a worker holding a partial batch
    /// waits up to this long for more compatible requests. 0 = dispatch
    /// what is already queued (no timed waits at all).
    double max_linger_ms = 0.0;
    /// Construct paused; call start() to begin serving. Lets callers
    /// (and the queue-bound tests) stage a burst before any worker runs.
    bool start_paused = false;
    /// Time source for deadlines and the linger window; null = the
    /// process steady clock. Tests inject a FakeClock here.
    std::shared_ptr<ServeClock> clock;
    /// Process-wide queued-work budget (serve/admission.h) this server
    /// charges against; null = no admission control beyond max_queue.
    /// Admission refusals are kResourceExhausted with an
    /// admission_detail slug — from trySubmit as a typed Status, from
    /// submit via the request's future (ServeError carries the slug).
    std::shared_ptr<AdmissionController> admission;
    /// Name this server charges the budget under (its fair-share
    /// identity; ShardRouter::addLocalReplicas defaults it to the model
    /// name).
    /// Empty with `admission` set charges under "default".
    std::string admission_name;
    /// Fair-share weight registered for admission_name at construction.
    double admission_weight = 1.0;
};

/** Identifies an accepted request for cancel(); 0 = invalid/none. */
using RequestId = uint64_t;

/** Per-request submission options. */
struct SubmitOptions
{
    /// Absolute deadline on the server's clock; max() = no deadline.
    /// Use InferenceServer::deadlineIn() for relative timeouts.
    ServeClock::TimePoint deadline = ServeClock::TimePoint::max();
};

/** Snapshot of a server's serving statistics. */
struct ServerStats
{
    int64_t accepted = 0;          ///< Requests admitted to the queue.
    int64_t completed = 0;         ///< Requests fulfilled.
    int64_t rejected = 0;          ///< Refused at intake (malformed, full, shed).
    int64_t deadline_exceeded = 0; ///< Shed before dispatch (deadline passed).
    int64_t cancelled = 0;         ///< Removed from the queue by cancel().
    int64_t batches = 0;           ///< Model invocations.
    size_t queue_depth = 0;        ///< Requests currently waiting.
    /// Full submit-to-completion latency distribution (obs/metrics.h
    /// fixed-bucket histogram, ms): constant memory for any lifetime,
    /// every completed request counted.
    HistogramSnapshot latency_hist;
    /// p50/p90/p99/p999 of latency_hist.
    Percentiles latency;
    double throughput_rps = 0.0;   ///< Completed requests / serving wall-clock.
    double avg_batch = 0.0;        ///< Mean samples per model invocation.
};

/**
 * Async inference server over one shared compiled model.
 *
 * submit() is safe from any number of producer threads. Workers run on
 * an owned util::ThreadPool for the lifetime of the server; shutdown
 * (or destruction) stops intake, drains the queue and joins them.
 */
class InferenceServer
{
  public:
    explicit InferenceServer(std::shared_ptr<const CompiledModel> model,
                             ServerOptions opts = {});
    ~InferenceServer();

    InferenceServer(const InferenceServer&) = delete;
    InferenceServer& operator=(const InferenceServer&) = delete;

    /**
     * Enqueue one NCHW input (its dim-0 may already hold several
     * samples); blocks while the queue is full. The future resolves to
     * the model output rows for exactly this input, or fails with a
     * ServeError exposing its code: kDeadlineExceeded / kCancelled for
     * shed work, kInvalidArgument (and ++rejected) for an input that
     * is not a non-empty batch of the model's inputShape() samples
     * (fails only this request's future), kUnavailable when intake
     * already stopped. `id`, when non-null, receives the accepted
     * request's id (0 if not enqueued).
     */
    std::future<Tensor> submit(Tensor input, SubmitOptions sopts = {},
                               RequestId* id = nullptr);

    /**
     * Non-throwing, non-blocking admission path: the RequestId on
     * acceptance (with *result holding the future), or a typed refusal
     * (and ++rejected) — kInvalidArgument for an input that is not a
     * non-empty batch of the model's inputShape() samples,
     * kResourceExhausted when the queue is full, kUnavailable when
     * intake has stopped.
     */
    Result<RequestId> trySubmit(Tensor input, std::future<Tensor>* result,
                                SubmitOptions sopts = {});

    /**
     * Remove a still-queued request: its future fails with
     * ServeError(kCancelled) and stats().cancelled increments. False
     * if the id is unknown, already dispatched, or already completed.
     */
    bool cancel(RequestId id);

    /** Absolute deadline `ms` from now on this server's clock. */
    ServeClock::TimePoint deadlineIn(double ms) const { return clock_->after(ms); }

    /** This server's time source (shared with its tests). */
    const std::shared_ptr<ServeClock>& clock() const { return clock_; }

    /** Begin serving (no-op unless constructed with start_paused). */
    void start();

    /** Block until every accepted request has been fulfilled or shed. */
    void drain();

    /** Stop intake, drain, and join the serving workers. Idempotent. */
    void shutdown();

    ServerStats stats() const;

    const ServerOptions& options() const { return opts_; }

  private:
    struct Request
    {
        Tensor input;
        std::promise<Tensor> promise;
        Timer queued;  ///< Started at submit; read at completion.
        ServeClock::TimePoint deadline = ServeClock::TimePoint::max();
        RequestId id = 0;
        int64_t submit_ns = 0;  ///< clock_ ns at admission (queue_wait span).
        int64_t samples = 0;    ///< Admission charge (released on exit).
        int64_t bytes = 0;
    };

    void workerLoop();
    /** Pop a micro-batch, lingering per opts_; empty only when
     * stopping and fully drained. */
    std::vector<Request> popBatch();
    /** Shed queued requests whose deadline has passed: fail their
     * futures with ServeError(kDeadlineExceeded) and count them (mutex_ held;
     * set_exception only stores state, no user code runs under the
     * lock). Returns how many were shed. */
    size_t shedExpiredLocked();
    /** Fail one request as deadline-exceeded and release its admission
     * charge (mutex_ held; the controller only takes its own lock). */
    void expireLocked(Request& req);
    /** Assign an id and queue the request (mutex_ held); returns the
     * assigned id. */
    RequestId enqueueLocked(Request& req);
    /** Charge the admission budget for `req` (no-op without a
     * controller). OK = charge recorded in req.samples/req.bytes. */
    Status admitRequest(Request& req);
    /** Return `req`'s admission charge (no-op when never charged). */
    void releaseAdmission(const Request& req);

    std::shared_ptr<const CompiledModel> model_;
    ServerOptions opts_;
    std::shared_ptr<ServeClock> clock_;

    mutable std::mutex mutex_;
    std::condition_variable cv_request_;  ///< Workers: queue non-empty/stop.
    std::condition_variable cv_space_;    ///< Producers: queue has room.
    std::condition_variable cv_idle_;     ///< drain(): all work finished.
    std::deque<Request> queue_;
    RequestId next_id_ = 1;
    int in_flight_ = 0;      ///< Requests popped but not yet fulfilled.
    bool started_ = false;
    bool stopping_ = false;  ///< Intake closed; workers exit when drained.

    // Serving statistics (guarded by mutex_, except the histogram,
    // whose record() is lock-free). Per-server (not in the global
    // MetricsRegistry) so concurrent servers/tests never share state.
    Histogram latency_hist_;  ///< Submit-to-completion ms.
    int64_t accepted_ = 0;
    int64_t completed_ = 0;
    int64_t rejected_ = 0;
    int64_t deadline_exceeded_ = 0;
    int64_t cancelled_ = 0;
    int64_t batches_ = 0;
    int64_t batched_samples_ = 0;
    Timer serving_clock_;    ///< Reset at start().

    ThreadPool pool_;        ///< The serving workers.
    std::thread launcher_;   ///< Drives pool_.parallelFor(workers, loop).
};

}  // namespace patdnn
