/**
 * @file
 * A fixed-size worker thread pool with a parallel-for primitive.
 *
 * This is the substrate standing in for the paper's mobile execution
 * backends (the paper's "8 threads on CPU"). Scheduling is static: each
 * worker gets one contiguous chunk of equal index count, whatever the
 * iterations cost. Callers whose iterations differ in cost balance them
 * before the call; the pattern engine passes one index per worker and
 * maps it to a filter range cut at equal kernel counts
 * (rt/conv_pattern.h, preparePatternPlan).
 */
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace patdnn {

/** Fixed-size thread pool executing [begin, end) index ranges. */
class ThreadPool
{
  public:
    /** Create a pool with n workers (n >= 1; 1 means run inline). */
    explicit ThreadPool(int n_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of workers (including the calling thread's share). */
    int numThreads() const { return n_threads_; }

    /**
     * Run body(i) for every i in [0, count) across the pool.
     *
     * Iterations are divided into numThreads() contiguous static chunks.
     * Blocks until all iterations finish. Safe to call repeatedly and
     * from multiple threads concurrently (concurrent submitters are
     * serialized, one fork-join at a time); not reentrant from inside a
     * body.
     */
    void parallelFor(int64_t count, const std::function<void(int64_t)>& body);

    /**
     * Run body(chunk_begin, chunk_end) once per worker over [0, count).
     *
     * Lower overhead than parallelFor when the body can iterate its own
     * range; chunking is static and contiguous. Same concurrency
     * contract as parallelFor.
     */
    void parallelChunks(
        int64_t count,
        const std::function<void(int64_t, int64_t)>& body);

    /** Process-wide pool sized to the hardware concurrency. */
    static ThreadPool& global();

  private:
    struct Task
    {
        const std::function<void(int64_t, int64_t)>* body = nullptr;
        int64_t count = 0;
    };

    void workerLoop(int worker_id);
    void runTask(const Task& task, int worker_id);

    int n_threads_;
    std::vector<std::thread> workers_;
    /// Serializes whole fork-joins so independent threads (e.g. several
    /// inference sessions sharing one device) may submit concurrently.
    std::mutex submit_mutex_;
    std::mutex mutex_;
    std::condition_variable cv_start_;
    std::condition_variable cv_done_;
    Task task_;
    uint64_t generation_ = 0;
    int pending_ = 0;
    bool stop_ = false;
};

}  // namespace patdnn
