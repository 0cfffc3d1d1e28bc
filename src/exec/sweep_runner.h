/**
 * @file
 * Deterministic batch runner: fans independent simulation points out
 * across cores and returns results in submission order, bit-identical
 * to the serial path (DESIGN.md §12).
 *
 * Why this is safe: run_synthetic() (and run_app_workload()) construct
 * everything they touch — MultiNoc, Metrics, PowerMeter, traffic
 * generator, and a private Rng seeded from RunParams::seed — on the
 * calling thread's stack. No simulation state is shared between points,
 * so points may execute on any worker in any order and still produce
 * the exact bytes the serial loop produces; the runner's only job is to
 * deliver result i into slot i. A RunItem is plain data and carries no
 * observer: tracing and snapshots attach to one SyntheticRun
 * (sim/simulator.h), never to a batch.
 */
#ifndef CATNAP_EXEC_SWEEP_RUNNER_H
#define CATNAP_EXEC_SWEEP_RUNNER_H

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/thread_pool.h"
#include "sim/simulator.h"

namespace catnap {

/** Batch-execution policy shared by every point of a batch. */
struct ExecOptions
{
    /** Worker threads; 0 = ThreadPool::default_jobs(). */
    int jobs = 0;
};

/** One independent simulation point of a batch. */
struct RunItem
{
    MultiNocConfig cfg;
    SyntheticConfig traffic;
    RunParams params;
};

/**
 * Executes a batch of closures indexed 0..n-1 on a private thread pool
 * of min(jobs, n) workers and delivers fn(i) into slot i of the
 * returned vector.
 *
 * The generic core under run_batch(), usable for any per-point result
 * type (bench::run_app_grid() runs the app-workload harnesses' points
 * through it). Exceptions: every point is attempted (independent points are not
 * cancelled by a failure); after the batch drains, the error of the
 * *lowest-indexed* failing point is rethrown, so failure is as
 * deterministic as success (ThreadPool::for_each).
 */
class SweepRunner
{
  public:
    explicit SweepRunner(const ExecOptions &opts = {}) : opts_(opts) {}

    /** Runs @p fn(i) for i in [0, n) and returns results in index
     * order. @p Result must be default-constructible and movable. */
    template <typename Result, typename Fn>
    std::vector<Result>
    map(std::size_t n, Fn &&fn)
    {
        std::vector<Result> results(n);
        run_jobs(n, [&results, &fn](std::size_t i) {
            results[i] = fn(i);
        });
        return results;
    }

    /** Type-erased form of map(): runs @p body(i) for i in [0, n). */
    void run_jobs(std::size_t n,
                  const std::function<void(std::size_t)> &body);

  private:
    ExecOptions opts_;
};

/**
 * Runs every item of @p items (each with its own config, traffic, and
 * seeded RunParams) and returns one SyntheticResult per item, in item
 * order, bit-identical to running them serially.
 */
std::vector<SyntheticResult> run_batch(const std::vector<RunItem> &items,
                                       const ExecOptions &opts = {});

} // namespace catnap

#endif // CATNAP_EXEC_SWEEP_RUNNER_H
