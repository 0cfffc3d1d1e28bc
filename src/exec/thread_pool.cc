#include "exec/thread_pool.h"

#include <utility>

namespace catnap {

namespace {

/** Worker index of the current thread (-1 off-pool). One pool at a time
 * runs per thread, so a plain thread_local int suffices. */
thread_local int t_worker_index = -1;

} // namespace

ThreadPool::ThreadPool(int jobs)
{
    if (jobs <= 0)
        jobs = default_jobs();
    workers_.reserve(static_cast<std::size_t>(jobs));
    try {
        for (int i = 0; i < jobs; ++i)
            workers_.emplace_back([this, i] { worker_loop(i); });
    } catch (...) {
        // No destructor runs for a half-built pool: join what started.
        stop_and_join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    stop_and_join();
}

void
ThreadPool::stop_and_join()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::for_each(std::size_t n,
                     const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    body_ = &body;
    n_ = n;
    next_ = 0;
    running_ = 0;
    error_ = nullptr;
    work_cv_.notify_all();
    done_cv_.wait(lock, [this] { return next_ == n_ && running_ == 0; });
    body_ = nullptr;
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::worker_loop(int my_index)
{
    t_worker_index = my_index;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock, [this] {
            return stop_ || (body_ != nullptr && next_ < n_);
        });
        if (stop_)
            return;
        const std::size_t i = next_++;
        ++running_;
        const std::function<void(std::size_t)> &body = *body_;
        lock.unlock();

        std::exception_ptr error;
        try {
            body(i);
        } catch (...) {
            error = std::current_exception();
        }

        lock.lock();
        --running_;
        if (error && (!error_ || i < first_failed_)) {
            error_ = std::move(error);
            first_failed_ = i;
        }
        if (next_ == n_ && running_ == 0)
            done_cv_.notify_one();
    }
}

int
ThreadPool::current_worker()
{
    return t_worker_index;
}

int
ThreadPool::default_jobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

} // namespace catnap
