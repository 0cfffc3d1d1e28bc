/**
 * @file
 * Crash-isolated point execution: one supervised worker subprocess per
 * sweep point, with watchdog, bounded retry, crash classification and
 * quarantine (DESIGN.md §15).
 *
 * The in-process path (exec/sweep_runner.h) is fast but fate-shares
 * with its points: one simulator abort, stack smash, or OOM kill takes
 * the whole sweep — and every finished result — with it. ProcRunner
 * trades a process spawn per point for fault containment:
 *
 *   - each point runs in a fresh worker process (`catnap_sim
 *     --worker-spec ... --worker-out ...`) that receives its full
 *     RunItem as a sealed spec file and writes its SyntheticResult as
 *     a sealed image (exec/point_codec.h), so a worker can neither
 *     corrupt the supervisor nor hand back bytes for the wrong point;
 *   - a wall-clock watchdog SIGKILLs workers that exceed the per-point
 *     budget; exit codes, signals, timeouts, and unreadable results
 *     are classified separately (PointFailKind);
 *   - a failed point is retried with exponential backoff; a point that
 *     exhausts its budget is *quarantined* — reported, never thrown.
 *
 * execute_points() (exec/sweep.h) is the only caller outside tests: it
 * dispatches points on the thread pool, and run_sweep() keeps their
 * results in the --journal file.
 *
 * Determinism contract: a worker's result is bit-identical to the
 * in-process value — workers encode doubles by bit pattern and the
 * simulation itself is deterministic. (Which *attempt* fails can vary
 * with host scheduling; which points quarantine for a deterministic
 * failure cannot.)
 */
#ifndef CATNAP_EXEC_PROC_RUNNER_H
#define CATNAP_EXEC_PROC_RUNNER_H

#include "exec/sweep.h"

namespace catnap {

/**
 * The supervisor. Not copyable. Lives in src/exec/, which is host-side
 * by contract (tools/lint host-clock exemption): nothing here runs
 * during a simulation phase.
 */
class ProcRunner
{
  public:
    /**
     * Takes the worker, scratch, point_retries and point_timeout_ms of
     * @p opts (an empty worker or scratch takes its default) and
     * creates the scratch directory, throwing std::runtime_error when
     * it cannot.
     */
    explicit ProcRunner(const SweepOptions &opts);

    ProcRunner(const ProcRunner &) = delete;
    ProcRunner &operator=(const ProcRunner &) = delete;

    /**
     * Runs one point through a supervised worker. Concurrent calls for
     * distinct points are safe. Worker failures are classified and
     * quarantined; only supervisor-side errors (an unspawnable worker,
     * unwritable scratch files) throw.
     */
    PointReport run_one(const RunItem &item);

  private:
    SweepOptions opts_;
};

} // namespace catnap

#endif // CATNAP_EXEC_PROC_RUNNER_H
