/**
 * @file
 * Crash-isolated sweep backend: one supervised worker subprocess per
 * sweep point, with watchdog, bounded retry, crash classification,
 * quarantine, and a resumable journal (DESIGN.md §15).
 *
 * The in-process runner (exec/sweep_runner.h) is fast but fate-shares
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
 *     exhausts its budget is *quarantined* — recorded, skipped, and
 *     reported — while the rest of the sweep completes;
 *   - every fresh result is appended to a CRC-checked journal
 *     (ckpt/journal.h) keyed by the point hash; a resumed sweep
 *     replays the journal and only spawns workers for missing points.
 *
 * Determinism contract: results are delivered in item order regardless
 * of completion order, and a resumed or isolated sweep's results are
 * bit-identical to an uninterrupted in-process run — workers encode
 * doubles by bit pattern and the simulation itself is deterministic.
 * Quarantine reporting is equally deterministic: reports are indexed by
 * point, never by completion order. (Which *attempt* fails can vary
 * with host scheduling; which points are quarantined for a
 * deterministic failure cannot.)
 */
#ifndef CATNAP_EXEC_PROC_RUNNER_H
#define CATNAP_EXEC_PROC_RUNNER_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/journal.h"
#include "exec/sweep_runner.h"
#include "obs/event.h"
#include "sim/simulator.h"

namespace catnap {

/** Policy for one isolated sweep. */
struct ProcOptions
{
    /** Worker executable (normally the catnap_sim binary). Required. */
    std::string worker;

    /** Directory for spec/result exchange files. Required; created if
     * missing. Files are named by point-hash hex, so concurrent sweeps
     * must use distinct scratch directories. */
    std::string scratch_dir;

    /** Journal path; empty disables journalling (and resume). */
    std::string journal;

    /** Replay an existing journal before spawning anything: points
     * with an intact record are served from it, the journal is opened
     * in append mode, and only missing points run. Without resume an
     * existing journal file is truncated. */
    bool resume = false;

    /** Concurrent workers; 0 = ThreadPool::default_jobs(). */
    int jobs = 0;

    /** Extra attempts after a failed one; a point failing
     * max_retries + 1 times is quarantined. */
    int max_retries = 2;

    /** Per-attempt wall-clock budget in milliseconds; a worker still
     * running at the deadline is SIGKILLed and the attempt classified
     * kTimeout. 0 = unlimited. Only the spawned process is killed, not
     * its children, so a wrapper-script worker must `exec` its target:
     * an orphaned child would outlive the watchdog. */
    std::int64_t timeout_ms = 0;

    /** Base retry delay in milliseconds, doubled per extra attempt
     * (capped); 0 retries immediately. */
    std::int64_t backoff_ms = 50;

    /** Receives proc.* worker-lifecycle events (host wall-clock
     * timestamps, serialized; null disables). */
    EventSink *sink = nullptr;
};

/** How one sweep point ended up with (or without) a result. */
enum class PointStatus : std::int8_t {
    kOk = 0,          ///< a worker produced the result this run
    kFromJournal = 1, ///< replayed from the journal, no worker spawned
    kQuarantined = 2, ///< every attempt failed; no result
};

/** Classification of one failed worker attempt (kProcExit payload b). */
enum class PointFailKind : std::int8_t {
    kNone = 0,      ///< attempt succeeded
    kExit = 1,      ///< worker exited with a nonzero code (detail=code)
    kSignal = 2,    ///< worker died on a signal (detail=signal number)
    kTimeout = 3,   ///< watchdog SIGKILL at the budget (detail=ms)
    kBadResult = 4, ///< worker exited 0 but its result image failed
                    ///< validation (missing/truncated/corrupt/foreign)
    kThrew = 5,     ///< an in-process point threw (message = what())
};

/** One failed attempt, classified. */
struct PointFailure
{
    PointFailKind kind = PointFailKind::kNone;
    std::int64_t detail = 0; ///< exit code, signal number, or budget ms
    std::string message;     ///< human-readable classification
};

/** Outcome of one sweep point. */
struct PointReport
{
    PointStatus status = PointStatus::kQuarantined;
    std::uint64_t key = 0;     ///< point hash (journal key)
    int attempts = 0;          ///< workers spawned for this point
    std::vector<PointFailure> failures; ///< one entry per failed attempt
    SyntheticResult result; ///< valid unless quarantined

    /** "N attempt(s) [failure; failure]" — why a point quarantined. */
    std::string failure_reason() const;
};

/** Outcome of a whole isolated sweep. */
struct ProcSweepResult
{
    std::vector<PointReport> points; ///< index-ordered, one per item

    std::size_t completed = 0;    ///< points a worker finished this run
    std::size_t from_journal = 0; ///< points replayed from the journal
    std::size_t quarantined = 0;  ///< points with no result
    std::size_t spawned = 0;      ///< total worker processes spawned

    bool ok() const { return quarantined == 0; }
};

/**
 * The supervisor. Not copyable; one instance per sweep. Lives in
 * src/exec/, which is host-side by contract (tools/lint host-clock
 * exemption): nothing here runs during a simulation phase.
 */
class ProcRunner
{
  public:
    /** Validates @p opts (worker and scratch_dir required). */
    explicit ProcRunner(const ProcOptions &opts);

    ProcRunner(const ProcRunner &) = delete;
    ProcRunner &operator=(const ProcRunner &) = delete;

    /**
     * Runs every item through a supervised worker (or the journal) and
     * returns index-ordered reports. Throws on supervisor-side errors
     * only — an unrunnable worker binary, an unwritable scratch dir or
     * journal; *worker* failures are classified and quarantined, never
     * thrown.
     */
    ProcSweepResult run(const std::vector<RunItem> &items);

    /**
     * Runs one point through a supervised worker, bypassing the journal
     * and deduplication of run(): the per-point path of the sweep
     * service, which publishes each point the moment it finishes.
     * Concurrent calls for distinct points are safe. Throws on the same
     * supervisor-side errors as run().
     */
    PointReport run_one(std::size_t index, const RunItem &item);

  private:
    PointReport run_point(std::size_t index, const RunItem &item,
                          std::uint64_t key);
    void make_scratch_dir() const;
    void emit(TraceEvent ev);
    void journal_append(std::uint64_t key,
                        const std::vector<std::uint8_t> &payload);

    ProcOptions opts_;
    std::mutex sink_mutex_;
    std::mutex journal_mutex_;
    std::unique_ptr<ckpt::JournalWriter> journal_;
    std::int64_t epoch_us_ = 0; ///< sweep start, host microseconds
};

} // namespace catnap

#endif // CATNAP_EXEC_PROC_RUNNER_H
