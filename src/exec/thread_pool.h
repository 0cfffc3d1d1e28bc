/**
 * @file
 * Ordered parallel map for the execution engine (DESIGN.md §12).
 *
 * A sweep is a set of independent points, so the pool needs one
 * operation: for_each(n, body) runs body(i) for every i in [0, n) on
 * some worker. Workers claim indices in increasing order from a single
 * counter, so a caller that lists its costliest points first gets the
 * shortest tail. All synchronisation is plain mutex +
 * condition_variable — the design is deliberately lock-based so
 * ThreadSanitizer can verify it exactly as written (no atomics whose
 * orderings TSan models conservatively).
 *
 * The pool executes host-side orchestration only. Simulation code never
 * runs concurrently over shared state: every point owns its MultiNoc,
 * Metrics, and RNG (see exec/sweep_runner.h for the argument).
 */
#ifndef CATNAP_EXEC_THREAD_POOL_H
#define CATNAP_EXEC_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace catnap {

class ThreadPool
{
  public:
    /** Starts @p jobs worker threads; 0 means default_jobs(). */
    explicit ThreadPool(int jobs = 0);

    /** Joins the workers. Must not run concurrently with for_each(). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Runs @p body(i) for every i in [0, n) on the workers and returns
     * once all n calls have finished. Every index runs even when some
     * throw; afterwards the exception of the lowest throwing index is
     * rethrown, so failure is as deterministic as success. One call at
     * a time per pool; the calling thread only waits.
     */
    void for_each(std::size_t n,
                  const std::function<void(std::size_t)> &body);

    /** Number of worker threads. */
    int size() const { return static_cast<int>(workers_.size()); }

    /**
     * Index of the pool worker running the calling thread, in
     * [0, size()), or -1 when called from outside the pool.
     */
    static int current_worker();

    /** Default parallelism: hardware_concurrency, at least 1. */
    static int default_jobs();

  private:
    void worker_loop(int my_index);
    void stop_and_join();

    // Batch state, all guarded by mutex_. A batch is live while body_
    // is non-null; next_ is the next unclaimed index and running_ the
    // number of claimed indices still executing.
    std::mutex mutex_;
    std::condition_variable work_cv_; ///< workers: a batch or stop
    std::condition_variable done_cv_; ///< for_each: the batch drained
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t n_ = 0;
    std::size_t next_ = 0;
    std::size_t running_ = 0;
    std::size_t first_failed_ = 0; ///< lowest throwing index, if error_
    std::exception_ptr error_;
    bool stop_ = false;

    // Last, so the workers start after and stop before the state above.
    std::vector<std::thread> workers_;
};

} // namespace catnap

#endif // CATNAP_EXEC_THREAD_POOL_H
