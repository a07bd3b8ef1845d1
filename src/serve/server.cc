#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/trace.h"
#include "util/logging.h"

namespace patdnn {

namespace {

/**
 * Serve-layer spans are stamped from the server's injectable ServeClock
 * rather than TraceSpan's steady clock, so FakeClock tests can assert
 * exact span extents (e.g. batch_form covering precisely the linger
 * window). The system ServeClock is the same steady clock the rt spans
 * use, so in production both layers share one timebase.
 */
int64_t
nsOf(ServeClock::TimePoint tp)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               tp.time_since_epoch())
        .count();
}

/** Refusal for an input CompiledModel::acceptsInput() rejects: the
 * workers and the conv engines only ever see inputs they can run. */
std::string
malformedInputMessage(const CompiledModel& model)
{
    return "inference request is not a non-empty batch of the model's " +
           model.inputShape().str() + " samples";
}

}  // namespace

InferenceServer::InferenceServer(std::shared_ptr<const CompiledModel> model,
                                 ServerOptions opts)
    : model_(std::move(model)), opts_(opts),
      clock_(opts.clock ? opts.clock : systemServeClock()),
      pool_(std::max(1, opts.workers))
{
    PATDNN_CHECK(model_ != nullptr, "server needs a model");
    opts_.workers = std::max(1, opts_.workers);
    opts_.max_batch = std::max<int64_t>(1, opts_.max_batch);
    opts_.max_queue = std::max<size_t>(1, opts_.max_queue);
    opts_.max_linger_ms = std::max(0.0, opts_.max_linger_ms);
    if (opts_.admission) {
        if (opts_.admission_name.empty())
            opts_.admission_name = "default";
        opts_.admission->registerModel(opts_.admission_name,
                                       opts_.admission_weight);
    }
    if (!opts_.start_paused)
        start();
}

InferenceServer::~InferenceServer()
{
    shutdown();
}

void
InferenceServer::start()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (started_ || stopping_)
            return;
        started_ = true;
        serving_clock_.reset();
    }
    // The launcher thread becomes pool worker 0, so all opts_.workers
    // serving loops run on the util::ThreadPool.
    launcher_ = std::thread([this] {
        pool_.parallelFor(opts_.workers, [this](int64_t) { workerLoop(); });
    });
}

Status
InferenceServer::admitRequest(Request& req)
{
    if (!opts_.admission)
        return Status::OK();
    const int64_t samples = req.input.shape().dim(0);
    const int64_t bytes =
        req.input.numel() * static_cast<int64_t>(sizeof(float));
    PATDNN_RETURN_IF_ERROR(
        opts_.admission->tryAdmit(opts_.admission_name, samples, bytes));
    req.samples = samples;
    req.bytes = bytes;
    return Status::OK();
}

void
InferenceServer::releaseAdmission(const Request& req)
{
    if (opts_.admission && (req.samples > 0 || req.bytes > 0))
        opts_.admission->release(opts_.admission_name, req.samples, req.bytes);
}

RequestId
InferenceServer::enqueueLocked(Request& req)
{
    req.id = next_id_++;
    if (Tracer::enabled())
        req.submit_ns = nsOf(clock_->now());
    ++accepted_;
    queue_.push_back(std::move(req));
    return queue_.back().id;
}

std::future<Tensor>
InferenceServer::submit(Tensor input, SubmitOptions sopts, RequestId* id)
{
    if (id != nullptr)
        *id = 0;
    Request req;
    req.input = std::move(input);
    req.deadline = sopts.deadline;
    std::future<Tensor> result = req.promise.get_future();
    if (!model_->acceptsInput(req.input)) {
        {
            std::lock_guard<std::mutex> lk(mutex_);
            ++rejected_;
        }
        req.promise.set_exception(std::make_exception_ptr(
            ServeError(ErrorCode::kInvalidArgument, malformedInputMessage(*model_))));
        return result;
    }
    {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_space_.wait(lk, [&] {
            return queue_.size() < opts_.max_queue || stopping_;
        });
        if (stopping_) {
            req.promise.set_exception(std::make_exception_ptr(ServeError(
                ErrorCode::kUnavailable, "inference server is shut down")));
            return result;
        }
        // The queue has room, but the process-wide budget may still
        // refuse: a shed here is this model's backpressure, not a full
        // queue, so it fails fast instead of blocking the producer.
        Status admitted = admitRequest(req);
        if (!admitted.ok()) {
            ++rejected_;
            req.promise.set_exception(std::make_exception_ptr(
                ServeError(admitted.code(), admitted.message(),
                           admitted.detail())));
            return result;
        }
        RequestId assigned = enqueueLocked(req);
        if (id != nullptr)
            *id = assigned;
    }
    // With a linger window the woken worker may be mid-batch and not
    // take this request; wake everyone so an idle worker can.
    if (opts_.max_linger_ms > 0.0)
        cv_request_.notify_all();
    else
        cv_request_.notify_one();
    return result;
}

Result<RequestId>
InferenceServer::trySubmit(Tensor input, std::future<Tensor>* result,
                           SubmitOptions sopts)
{
    Request req;
    req.input = std::move(input);
    req.deadline = sopts.deadline;
    if (!model_->acceptsInput(req.input)) {
        std::lock_guard<std::mutex> lk(mutex_);
        ++rejected_;
        return Status(ErrorCode::kInvalidArgument, malformedInputMessage(*model_));
    }
    RequestId assigned = 0;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stopping_) {
            ++rejected_;
            return Status(ErrorCode::kUnavailable,
                          "inference server is shut down");
        }
        if (queue_.size() >= opts_.max_queue) {
            ++rejected_;
            return Status(ErrorCode::kResourceExhausted,
                          "inference queue is full (" +
                              std::to_string(opts_.max_queue) + " pending)");
        }
        Status admitted = admitRequest(req);
        if (!admitted.ok()) {
            ++rejected_;
            return admitted;  // kResourceExhausted + admission_detail slug.
        }
        if (result != nullptr)
            *result = req.promise.get_future();
        assigned = enqueueLocked(req);
    }
    if (opts_.max_linger_ms > 0.0)
        cv_request_.notify_all();
    else
        cv_request_.notify_one();
    return assigned;
}

bool
InferenceServer::cancel(RequestId id)
{
    if (id == 0)
        return false;
    Request victim;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        auto it = std::find_if(queue_.begin(), queue_.end(),
                               [&](const Request& r) { return r.id == id; });
        if (it == queue_.end())
            return false;  // Unknown, already dispatched, or completed.
        victim = std::move(*it);
        queue_.erase(it);
        ++cancelled_;
        if (queue_.empty() && in_flight_ == 0)
            cv_idle_.notify_all();
    }
    cv_space_.notify_all();
    releaseAdmission(victim);
    victim.promise.set_exception(std::make_exception_ptr(
        ServeError(ErrorCode::kCancelled,
                   "inference request cancelled before dispatch")));
    return true;
}

void
InferenceServer::expireLocked(Request& req)
{
    releaseAdmission(req);
    req.promise.set_exception(std::make_exception_ptr(
        ServeError(ErrorCode::kDeadlineExceeded,
                   "inference request deadline exceeded before dispatch")));
    ++deadline_exceeded_;
}

size_t
InferenceServer::shedExpiredLocked()
{
    if (queue_.empty())
        return 0;
    ServeClock::TimePoint now = clock_->now();
    size_t shed = 0;
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (it->deadline != ServeClock::TimePoint::max() && now >= it->deadline) {
            expireLocked(*it);
            it = queue_.erase(it);
            ++shed;
        } else {
            ++it;
        }
    }
    return shed;
}

std::vector<InferenceServer::Request>
InferenceServer::popBatch()
{
    std::vector<Request> batch;
    std::unique_lock<std::mutex> lk(mutex_);
    while (batch.empty()) {
        cv_request_.wait(lk, [&] { return !queue_.empty() || stopping_; });
        if (queue_.empty())
            break;  // Stopping and fully drained.
        // Shed expired work before dispatch: no model time for answers
        // nobody is waiting for.
        if (shedExpiredLocked() > 0) {
            cv_space_.notify_all();
            if (queue_.empty()) {
                if (in_flight_ == 0)
                    cv_idle_.notify_all();
                continue;
            }
        }
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        ++in_flight_;  // Counted immediately so drain() sees lingering work.
        // batch_form: first pop through linger-loop exit (== the linger
        // window exactly when nothing preempts it; pinned by tests).
        const int64_t form_start_ns =
            Tracer::enabled() ? nsOf(clock_->now()) : 0;
        int64_t rows = batch.front().input.shape().dim(0);
        const bool linger = opts_.max_linger_ms > 0.0;
        ServeClock::TimePoint flush_at =
            linger ? clock_->after(opts_.max_linger_ms)
                   : ServeClock::TimePoint::min();
        for (;;) {
            while (!queue_.empty() && rows < opts_.max_batch) {
                Request& next = queue_.front();
                if (next.deadline != ServeClock::TimePoint::max() &&
                    clock_->now() >= next.deadline) {
                    expireLocked(next);
                    queue_.pop_front();
                    continue;
                }
                // Every queued input is a batch of the model's sample
                // shape (checked at submit), so any two stack.
                if (rows + next.input.shape().dim(0) > opts_.max_batch)
                    break;
                rows += next.input.shape().dim(0);
                batch.push_back(std::move(next));
                queue_.pop_front();
                ++in_flight_;
            }
            cv_space_.notify_all();
            // A full batch always preempts the linger window; zero
            // linger dispatches whatever was queued.
            if (rows >= opts_.max_batch || !linger || stopping_)
                break;
            if (clock_->now() >= flush_at)
                break;
            clock_->waitUntil(cv_request_, lk, flush_at);
        }
        // Batch members whose deadline passed during the linger are
        // shed too: the queue is swept at pop, the batch here.
        for (auto it = batch.begin(); it != batch.end();) {
            if (it->deadline != ServeClock::TimePoint::max() &&
                clock_->now() >= it->deadline) {
                expireLocked(*it);
                it = batch.erase(it);
                --in_flight_;
            } else {
                ++it;
            }
        }
        if (batch.empty() && queue_.empty() && in_flight_ == 0)
            cv_idle_.notify_all();
        if (!batch.empty() && Tracer::enabled()) {
            int64_t dispatched = 0;
            for (const Request& r : batch)
                dispatched += r.input.shape().dim(0);
            Tracer::emitSpan("batch_form", "serve", form_start_ns,
                             nsOf(clock_->now()) - form_start_ns, "rows",
                             dispatched);
        }
    }
    return batch;
}

void
InferenceServer::workerLoop()
{
    InferenceSession session(model_);
    for (;;) {
        std::vector<Request> batch = popBatch();
        if (batch.empty())
            return;

        if (Tracer::enabled()) {
            // queue_wait: admission through batch formation, one span
            // per request, stamped from the serve clock.
            int64_t now_ns = nsOf(clock_->now());
            for (const Request& r : batch)
                Tracer::emitSpan("queue_wait", "serve", r.submit_ns,
                                 now_ns - r.submit_ns, "request",
                                 static_cast<int64_t>(r.id));
        }

        int64_t rows = 0;
        for (const Request& r : batch)
            rows += r.input.shape().dim(0);

        const int64_t dispatch_ns =
            Tracer::enabled() ? nsOf(clock_->now()) : 0;
        Tensor out;
        if (batch.size() == 1) {
            out = session.run(batch.front().input);
        } else {
            // Transparent micro-batching: stack the inputs along N, run
            // once, and hand each request back exactly its rows.
            const Shape& s0 = batch.front().input.shape();
            std::vector<int64_t> dims = s0.dims();
            dims[0] = rows;
            Tensor stacked{Shape{std::move(dims)}};
            int64_t offset = 0;
            for (const Request& r : batch) {
                std::memcpy(stacked.data() + offset, r.input.data(),
                            static_cast<size_t>(r.input.numel()) * sizeof(float));
                offset += r.input.numel();
            }
            out = session.run(stacked);
        }
        if (Tracer::enabled())
            Tracer::emitSpan("dispatch", "serve", dispatch_ns,
                             nsOf(clock_->now()) - dispatch_ns, "rows", rows);

        const int64_t epilogue_ns =
            Tracer::enabled() ? nsOf(clock_->now()) : 0;
        std::vector<double> lat;
        lat.reserve(batch.size());
        if (batch.size() == 1) {
            lat.push_back(batch.front().queued.elapsedMs());
            batch.front().promise.set_value(std::move(out));
        } else {
            int64_t per_sample = out.numel() / rows;
            std::vector<int64_t> odims = out.shape().dims();
            int64_t row = 0;
            for (Request& r : batch) {
                int64_t n = r.input.shape().dim(0);
                odims[0] = n;
                Tensor slice{Shape{odims}};
                std::memcpy(slice.data(), out.data() + row * per_sample,
                            static_cast<size_t>(n * per_sample) * sizeof(float));
                row += n;
                lat.push_back(r.queued.elapsedMs());
                r.promise.set_value(std::move(slice));
            }
        }
        if (Tracer::enabled())
            Tracer::emitSpan("epilogue", "serve", epilogue_ns,
                             nsOf(clock_->now()) - epilogue_ns);

        for (const Request& r : batch)
            releaseAdmission(r);
        for (double ms : lat)
            latency_hist_.record(ms);  // Lock-free; no mutex_ needed.
        {
            std::lock_guard<std::mutex> lk(mutex_);
            completed_ += static_cast<int64_t>(batch.size());
            ++batches_;
            batched_samples_ += rows;
            in_flight_ -= static_cast<int>(batch.size());
            if (queue_.empty() && in_flight_ == 0)
                cv_idle_.notify_all();
        }
    }
}

void
InferenceServer::drain()
{
    std::unique_lock<std::mutex> lk(mutex_);
    cv_idle_.wait(lk, [&] { return queue_.empty() && in_flight_ == 0; });
}

void
InferenceServer::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(mutex_);
        if (stopping_)
            return;
        stopping_ = true;
    }
    cv_request_.notify_all();
    cv_space_.notify_all();
    if (launcher_.joinable())
        launcher_.join();
    // Never-started servers may still hold staged requests; dropping
    // them breaks their promises, which is the documented contract —
    // but their admission charges must still flow back to the budget.
    std::lock_guard<std::mutex> lk(mutex_);
    for (const Request& r : queue_)
        releaseAdmission(r);
    queue_.clear();
}

ServerStats
InferenceServer::stats() const
{
    ServerStats s;
    {
        std::lock_guard<std::mutex> lk(mutex_);
        s.accepted = accepted_;
        s.completed = completed_;
        s.rejected = rejected_;
        s.deadline_exceeded = deadline_exceeded_;
        s.cancelled = cancelled_;
        s.batches = batches_;
        s.queue_depth = queue_.size();
        s.avg_batch = batches_ > 0
                          ? static_cast<double>(batched_samples_) /
                                static_cast<double>(batches_)
                          : 0.0;
        if (started_) {
            double sec = serving_clock_.elapsedMs() / 1000.0;
            if (sec > 0.0)
                s.throughput_rps = static_cast<double>(completed_) / sec;
        }
    }
    s.latency_hist = latency_hist_.snapshot();
    s.latency = s.latency_hist.percentiles();
    return s;
}

}  // namespace patdnn
