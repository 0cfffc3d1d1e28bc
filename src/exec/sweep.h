/**
 * @file
 * The one command-line parser and the one sweep-execution interface
 * (DESIGN.md §12). Every binary declares each flag once, as a Flag of
 * its CommandLine, and parses argv with parse_command_line(); the sweep
 * flags and --csv are entries the sweeping binaries share, so a flag
 * means the same thing, fails the same way and exits with the same
 * code in every binary. run_sweep() executes ordered RunItems on one of
 * two backends and reports where every point came from:
 *
 *   local    the in-process thread pool (exec/sweep_runner.h)
 *   isolate  supervised catnap_sim worker subprocesses with retry and
 *            quarantine (exec/proc_runner.h)
 *
 * On either backend, --journal keeps finished points in an
 * exec/result_cache.h file and --resume replays them. Every backend
 * returns results in item order, bit-identical to the serial run.
 *
 * Exit codes shared by every binary:
 *   1 runtime or supervisor fault   2 usage error
 *   3 invalid flag value            4 sweep left quarantined point(s)
 * Code 5 (the retired sweep-service daemon) is never reused.
 */
#ifndef CATNAP_EXEC_SWEEP_H
#define CATNAP_EXEC_SWEEP_H

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "exec/sweep_runner.h"
#include "sim/simulator.h"

namespace catnap {

constexpr int kExitRuntime = 1;    ///< simulation, supervisor or I/O fault
constexpr int kExitUsage = 2;      ///< unknown, unusable or malformed flag
constexpr int kExitBadValue = 3;   ///< syntactically valid flag, bad value
constexpr int kExitQuarantine = 4; ///< sweep left quarantined point(s)

/** How a sweep executes. */
struct SweepOptions
{
    /** Concurrent points (threads or workers); 0 = one per core. */
    int jobs = 0;

    /** Run every point in a supervised catnap_sim worker subprocess. */
    bool isolate = false;

    /** Worker executable; empty = default_worker_path(). */
    std::string worker;

    /** Spec/result exchange directory; empty = .catnap-scratch. Files
     * are named by point key, so concurrent sweeps need distinct
     * directories. */
    std::string scratch;

    /** Keep every finished point in this CRC-checked result-cache file
     * (exec/result_cache.h), locked for the sweep; without --resume an
     * existing file is emptied first. */
    std::string journal;

    /** Replay the journal's intact records, run only missing points. */
    bool resume = false;

    /** Per-attempt wall budget of a worker in ms; 0 = unlimited. Only
     * the spawned process is killed, not its children, so a
     * wrapper-script worker must `exec` its target: an orphaned child
     * would outlive the watchdog. */
    std::int64_t point_timeout_ms = 0;

    /** Extra worker attempts before a point is quarantined. */
    int point_retries = 2;
};

/** Rejects a flag value with a precise reason and exits kExitBadValue,
 * so scripts can tell "bad config" from "bad CLI" and "sim died". */
[[noreturn]] void die_value(const char *flag, const std::string &value,
                            const std::string &why);

/** Strict integer parse: whole string, in [lo, hi]. "4x" and "99999"
 * for a small range both exit kExitBadValue instead of truncating. */
long long parse_int(const char *flag, const std::string &value, long long lo,
                    long long hi);

/** Strict unsigned parse (seeds, cycle counts): "-1" is rejected
 * instead of wrapping to 2^64-1. */
unsigned long long parse_uint(const char *flag, const std::string &value,
                              unsigned long long hi = ~0ull);

/** Strict real parse: whole string, finite (a NaN load silently poisons
 * every downstream metric), in [lo, hi]. */
double parse_real(const char *flag, const std::string &value, double lo,
                  double hi);

/** The names a flag's value may take, each with the value it selects. */
template <typename T>
using Names = std::vector<std::pair<std::string, T>>;

/** "a|b|c": the value form --help shows for @p names. */
template <typename T>
std::string
names_of(const Names<T> &names)
{
    std::string out;
    for (const auto &n : names)
        out += (out.empty() ? "" : "|") + n.first;
    return out;
}

/** Reports a malformed command line and exits kExitUsage. */
[[noreturn]] void die_usage(const std::string &why);

/** The value @p value names in @p names; an unknown name is an invalid
 * value (kExitBadValue) whose message lists the known ones. */
template <typename T>
const T &
parse_name(const char *flag, const std::string &value, const Names<T> &names)
{
    for (const auto &n : names)
        if (n.first == value)
            return n.second;
    die_value(flag, value, "expected " + names_of(names));
}

/** Applies one occurrence of a flag: called with the flag's name (for
 * error messages) and its value, "" for a switch. */
using FlagSetter =
    std::function<void(const std::string &flag, const std::string &value)>;

/** Every run kind (the default of Flag::kinds). */
inline constexpr unsigned kAnyRun = ~0u;

/** One command-line flag: the only place a binary declares it. */
struct Flag
{
    std::string name;  ///< "--jobs"
    std::string value; ///< value form --help shows ("N"); "" = a switch
    std::string help;  ///< --help text; each '\n' starts an indented line
    FlagSetter set;    ///< runs once per occurrence, in argv order
    /** Run kinds the flag applies to: bit k is CommandLine::kinds[k]. */
    unsigned kinds = kAnyRun;
    /** Flags of which at least one must be given with this one. */
    std::vector<std::string> needs = {};
};

/** A binary's whole command line. */
struct CommandLine
{
    std::string about;       ///< printed above the flags by --help
    std::vector<Flag> flags; ///< in --help order
    /** Names of the binary's run kinds; empty when it has one kind. */
    std::vector<std::string> kinds = {};
    /** Once every setter has run: the index in @c kinds of the run the
     * command line asks for. */
    std::function<std::size_t()> kind_of = {};
};

/**
 * Runs each flag's setter in argv order (a bad value exits
 * kExitBadValue from it); --help prints the table and exits 0. Exits
 * kExitUsage, naming the flag, on an unknown flag, a missing value, a
 * flag outside the run kind kind_of() names, or a flag without any of
 * the flags it needs.
 */
void parse_command_line(int argc, char **argv, const CommandLine &cli);

// Setters that parse a flag's value strictly into @p dst (a bad value
// exits kExitBadValue): a whole number in [lo, hi], a non-negative one
// up to @p hi, a finite real in [lo, hi], the text as given, a
// switch's fixed @p value, or the value a name in @p names selects.

template <typename T>
FlagSetter
store_int(T &dst, long long lo, long long hi)
{
    return [&dst, lo, hi](const std::string &flag, const std::string &v) {
        dst = static_cast<T>(parse_int(flag.c_str(), v, lo, hi));
    };
}

template <typename T>
FlagSetter
store_uint(T &dst, unsigned long long hi = ~0ull)
{
    return [&dst, hi](const std::string &flag, const std::string &v) {
        dst = static_cast<T>(parse_uint(flag.c_str(), v, hi));
    };
}

inline FlagSetter
store_real(double &dst, double lo, double hi)
{
    return [&dst, lo, hi](const std::string &flag, const std::string &v) {
        dst = parse_real(flag.c_str(), v, lo, hi);
    };
}

inline FlagSetter
store_text(std::string &dst)
{
    return [&dst](const std::string &, const std::string &v) { dst = v; };
}

inline FlagSetter
store_bool(bool &dst, bool value)
{
    return [&dst, value](const std::string &, const std::string &) {
        dst = value;
    };
}

template <typename T>
FlagSetter
store_name(T &dst, const Names<T> &names)
{
    return [&dst, names](const std::string &flag, const std::string &v) {
        dst = parse_name(flag.c_str(), v, names);
    };
}

/** Flag groups of sweep_flags() (bitmask). */
enum SweepFlags : unsigned {
    kJobsFlag = 1u << 0,     ///< --jobs
    kIsolateFlags = 1u << 1, ///< --isolate --worker --scratch
                             ///< --point-timeout --point-retries
    kJournalFlags = 1u << 2, ///< --journal --resume
    kAllSweepFlags = kJobsFlag | kIsolateFlags | kJournalFlags,
};

/** The entries of the sweep flags in the groups @p accept selects,
 * storing into @p opts and applying to the run @p kinds. The worker
 * flags need --isolate and --resume needs --journal. */
std::vector<Flag> sweep_flags(SweepOptions &opts,
                              unsigned accept = kAllSweepFlags,
                              unsigned kinds = kAnyRun);

/** The --csv FILE entry of a binary that saves its main sweep. */
Flag csv_flag(std::string &path, unsigned kinds = kAnyRun);

/** The default worker: catnap_sim next to the running binary, else in
 * ../tools/ (the build-tree layout of the bench harnesses). */
std::string default_worker_path();

/** Where one point's result came from. */
enum class Provenance : std::int8_t {
    kExecuted = 0,    ///< simulated by this sweep
    kFromJournal = 1, ///< replayed from the --journal file
    kQuarantined = 2, ///< every attempt failed; no result
};

/** Classification of one failed attempt. */
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

/** Outcome of executing one point: kExecuted or kQuarantined. */
struct PointReport
{
    Provenance status = Provenance::kQuarantined;
    int attempts = 0;                   ///< runs (workers spawned)
    std::vector<PointFailure> failures; ///< one entry per failed attempt
    SyntheticResult result;             ///< valid unless quarantined

    /** "N attempt(s) [failure; failure]" — why a point quarantined. */
    std::string failure_reason() const;
};

/**
 * The one miss executor: runs items[slot] for every slot in @p slots on
 * min(opts.jobs, |slots|) threads — in-process, or in a supervised
 * worker subprocess per point when opts.isolate is set (the only place
 * a ProcRunner is built) — and calls @p done(slot, report) on the
 * worker thread the moment that point finishes. Point failures arrive
 * quarantined, never thrown: an in-process throw quarantines at once,
 * because the simulator is deterministic and a retry would throw again.
 * Supervisor faults (an unspawnable worker, an unusable scratch
 * directory) and exceptions from @p done propagate once every slot has
 * been attempted.
 */
void execute_points(const std::vector<RunItem> &items,
                    const std::vector<std::size_t> &slots,
                    const SweepOptions &opts,
                    const std::function<void(std::size_t, PointReport)> &done);

/** Everything run_sweep() reports. */
struct SweepOutcome
{
    const char *backend = "local"; ///< "local" or "isolate"

    /** Item order; slot i is valid unless provenance[i] is
     * kQuarantined. */
    std::vector<SyntheticResult> results;
    std::vector<Provenance> provenance;

    std::size_t executed = 0;
    std::size_t from_journal = 0;
    std::size_t quarantined = 0;

    /** Deterministic description of every quarantined point, in point
     * order (index, key, load, seed, reason); empty when none. */
    std::string quarantine_summary;

    /** 0, or kExitQuarantine, or kExitRuntime for a whole-sweep failure
     * whose reason is @c fatal. */
    int exit_code = 0;
    std::string fatal;

    /** "[backend] E executed, J point(s) from journal, Q quarantined"
     * plus a newline. */
    std::string status_line() const;
};

/**
 * Runs @p items on the backend @p opts selects. Points with the same key
 * (exec/point_codec.h) resolve once and later copies take the first
 * copy's result and provenance; with opts.journal, the journal's points
 * replay as kFromJournal and every executed point is stored the moment
 * it finishes. Never throws: every failure is reported through
 * the outcome's exit code.
 */
SweepOutcome run_sweep(const std::vector<RunItem> &items,
                       const SweepOptions &opts);

/**
 * run_sweep() for command-line binaries: prints the status line (and
 * the quarantine summary or fatal reason) to stderr, keeping stdout
 * bit-identical across backends, and exits with the outcome's code
 * unless it is 0. Returns the results in item order.
 */
std::vector<SyntheticResult> sweep_or_exit(const std::vector<RunItem> &items,
                                           const SweepOptions &opts);

} // namespace catnap

#endif // CATNAP_EXEC_SWEEP_H
