#include "exec/sweep.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>

#include <unistd.h>

#include "exec/point_codec.h"
#include "exec/proc_runner.h"
#include "exec/result_cache.h"

namespace catnap {

namespace {

/** The running binary's name, for diagnostics. */
const char *
prog()
{
    return program_invocation_short_name;
}

/** Opens @p opts' journal as a result cache, or returns null when the
 * sweep keeps none. Without --resume the sweep starts over, so the
 * cache empties the file once it holds its lock. The parent directory
 * is created, so a journal may live in a scratch directory that does
 * not exist yet. */
std::unique_ptr<ResultCache>
open_journal(const SweepOptions &opts)
{
    if (opts.journal.empty())
        return nullptr;
    std::error_code ec; // any failure here surfaces as the open's error
    const std::filesystem::path parent =
        std::filesystem::path(opts.journal).parent_path();
    if (!parent.empty())
        std::filesystem::create_directories(parent, ec);
    return std::make_unique<ResultCache>(
        opts.journal, opts.resume ? ckpt::JournalWriter::Mode::kAppend
                                  : ckpt::JournalWriter::Mode::kTruncate);
}

} // namespace

void
die_value(const char *flag, const std::string &value, const std::string &why)
{
    std::fprintf(stderr, "%s: invalid value '%s' for %s: %s\n", prog(),
                 value.c_str(), flag, why.c_str());
    std::exit(kExitBadValue);
}

const char *
need_value(int argc, char **argv, int &i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: missing value for %s (try --help)\n",
                     prog(), argv[i]);
        std::exit(kExitUsage);
    }
    return argv[++i];
}

long long
parse_int(const char *flag, const std::string &value, long long lo,
          long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not an integer");
    if (errno == ERANGE || v < lo || v > hi) {
        die_value(flag, value, "must be in [" + std::to_string(lo) + ", " +
                                   std::to_string(hi) + "]");
    }
    return v;
}

unsigned long long
parse_uint(const char *flag, const std::string &value, unsigned long long hi)
{
    if (!value.empty() && value[0] == '-')
        die_value(flag, value, "must be non-negative");
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not an integer");
    if (errno == ERANGE || v > hi)
        die_value(flag, value, "must be at most " + std::to_string(hi));
    return v;
}

double
parse_real(const char *flag, const std::string &value, double lo, double hi)
{
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0' || end == value.c_str())
        die_value(flag, value, "not a number");
    if (!std::isfinite(v))
        die_value(flag, value, "must be finite (NaN/inf rejected)");
    char range[96];
    std::snprintf(range, sizeof range, "must be in [%g, %g]", lo, hi);
    if (errno == ERANGE || v < lo || v > hi)
        die_value(flag, value, range);
    return v;
}

bool
parse_sweep_flag(int argc, char **argv, int &i, unsigned accept,
                 SweepOptions &opts)
{
    const std::string a = argv[i];
    const bool isolate_group = (accept & kIsolateFlags) != 0;
    const bool journal_group = (accept & kJournalFlags) != 0;
    if ((accept & kJobsFlag) != 0 && a == "--jobs") {
        opts.jobs = static_cast<int>(
            parse_int("--jobs", need_value(argc, argv, i), 0, 4096));
    } else if (isolate_group && a == "--isolate") {
        opts.isolate = true;
    } else if (isolate_group && a == "--worker") {
        opts.worker = need_value(argc, argv, i);
    } else if (isolate_group && a == "--scratch") {
        opts.scratch = need_value(argc, argv, i);
    } else if (isolate_group && a == "--point-timeout") {
        opts.point_timeout_ms = static_cast<std::int64_t>(parse_uint(
            "--point-timeout", need_value(argc, argv, i), 86400000ull));
    } else if (isolate_group && a == "--point-retries") {
        opts.point_retries = static_cast<int>(
            parse_int("--point-retries", need_value(argc, argv, i), 0, 100));
    } else if (journal_group && a == "--journal") {
        opts.journal = need_value(argc, argv, i);
    } else if (journal_group && a == "--resume") {
        opts.resume = true;
    } else {
        return false;
    }
    return true;
}

std::string
sweep_flags_help(unsigned accept)
{
    std::string out;
    if ((accept & kJobsFlag) != 0) {
        out += "  --jobs N                  concurrent points (default: one "
               "per core;\n"
               "                            1 = serial; output is identical "
               "for every N)\n";
    }
    if ((accept & kIsolateFlags) != 0) {
        out += "  --isolate                 run every point in a supervised\n"
               "                            catnap_sim worker subprocess: "
               "crashes, hangs\n"
               "                            and bad exits are classified, "
               "retried, then\n"
               "                            quarantined (DESIGN.md §15)\n"
               "  --worker PATH             worker executable (default: "
               "catnap_sim next\n"
               "                            to this binary)\n"
               "  --scratch DIR             spec/result exchange directory\n"
               "  --point-timeout MS        per-attempt wall budget; hung "
               "workers are\n"
               "                            SIGKILLed (0 = unlimited)\n"
               "  --point-retries N         extra attempts before quarantine "
               "(default 2)\n";
    }
    if ((accept & kJournalFlags) != 0) {
        out += "  --journal FILE            append every finished point to a "
               "CRC-checked\n"
               "                            journal\n"
               "  --resume                  replay the journal's intact "
               "records, run only\n"
               "                            missing points (needs "
               "--journal)\n";
    }
    return out;
}

void
check_sweep_options(const SweepOptions &opts)
{
    const SweepOptions defaults;
    const bool worker_flags =
        !opts.worker.empty() || !opts.scratch.empty() ||
        opts.point_timeout_ms != defaults.point_timeout_ms ||
        opts.point_retries != defaults.point_retries;
    const char *why = nullptr;
    if (opts.resume && opts.journal.empty()) {
        why = "--resume requires --journal FILE";
    } else if (worker_flags && !opts.isolate) {
        why = "--worker, --scratch, --point-timeout and --point-retries "
              "require --isolate";
    }
    if (why != nullptr) {
        std::fprintf(stderr, "%s: %s\n", prog(), why);
        std::exit(kExitUsage);
    }
}

std::string
default_worker_path()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
    std::string dir = ".";
    if (n > 0) {
        const std::string self(buf, static_cast<std::size_t>(n));
        const std::size_t slash = self.rfind('/');
        if (slash != std::string::npos)
            dir = self.substr(0, slash);
    }
    const std::string sibling = dir + "/catnap_sim";
    return ::access(sibling.c_str(), X_OK) == 0 ? sibling
                                                : dir + "/../tools/catnap_sim";
}

std::string
PointReport::failure_reason() const
{
    std::string s = std::to_string(attempts) + " attempt(s) [";
    for (std::size_t f = 0; f < failures.size(); ++f) {
        if (f != 0)
            s += "; ";
        s += failures[f].message;
    }
    return s + "]";
}

void
execute_points(const std::vector<RunItem> &items,
               const std::vector<std::size_t> &slots,
               const SweepOptions &opts,
               const std::function<void(std::size_t, PointReport)> &done)
{
    if (slots.empty())
        return;
    std::unique_ptr<ProcRunner> proc;
    if (opts.isolate)
        proc = std::make_unique<ProcRunner>(opts);
    ExecOptions eo;
    eo.jobs = opts.jobs;
    SweepRunner(eo).run_jobs(slots.size(), [&](std::size_t p) {
        const std::size_t slot = slots[p];
        const RunItem &item = items[slot];
        if (proc != nullptr) {
            done(slot, proc->run_one(item));
            return;
        }
        PointReport rep;
        rep.attempts = 1;
        try {
            rep.result = run_synthetic(item.cfg, item.traffic, item.params);
            rep.status = Provenance::kExecuted;
        } catch (const std::exception &e) {
            PointFailure fail;
            fail.kind = PointFailKind::kThrew;
            fail.message = std::string("point threw: ") + e.what();
            rep.failures.push_back(std::move(fail));
        }
        done(slot, std::move(rep));
    });
}

std::string
SweepOutcome::status_line() const
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "[%s] %zu executed, %zu point(s) from journal, %zu "
                  "quarantined\n",
                  backend, executed, from_journal, quarantined);
    return buf;
}

SweepOutcome
run_sweep(const std::vector<RunItem> &items, const SweepOptions &opts)
{
    const std::size_t n = items.size();
    SweepOutcome out;
    out.backend = opts.isolate ? "isolate" : "local";
    out.results.resize(n);
    out.provenance.assign(n, Provenance::kQuarantined);
    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = point_hash(items[i]);
    std::vector<std::string> why(n);
    try {
        // Identical points resolve once, through their first copy.
        const std::unique_ptr<ResultCache> journal = open_journal(opts);
        std::mutex journal_mutex;
        std::map<std::uint64_t, std::size_t> first;
        std::vector<std::size_t> misses;
        for (std::size_t i = 0; i < n; ++i) {
            if (!first.emplace(keys[i], i).second)
                continue;
            if (journal != nullptr &&
                replay_result(*journal, keys[i], out.results[i]))
                out.provenance[i] = Provenance::kFromJournal;
            else
                misses.push_back(i);
        }
        execute_points(items, misses, opts,
                       [&](std::size_t slot, PointReport rep) {
            if (rep.status == Provenance::kQuarantined) {
                why[slot] = rep.failure_reason();
                return;
            }
            if (journal != nullptr) {
                // Stored the moment the point finishes: a supervisor
                // killed right after this loses nothing.
                std::lock_guard<std::mutex> lock(journal_mutex);
                store_result(*journal, keys[slot], rep.result);
            }
            out.provenance[slot] = rep.status;
            out.results[slot] = std::move(rep.result);
        });
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t f = first.at(keys[i]);
            if (f != i) {
                out.results[i] = out.results[f];
                out.provenance[i] = out.provenance[f];
                why[i] = why[f];
            }
        }
    } catch (const std::exception &e) {
        // Supervisor faults (unusable scratch dir, unspawnable worker,
        // unwritable or locked journal) — point failures quarantine
        // instead.
        out.exit_code = kExitRuntime;
        out.fatal = e.what();
        return out;
    }

    for (std::size_t i = 0; i < n; ++i) {
        switch (out.provenance[i]) {
          case Provenance::kExecuted:    ++out.executed;     break;
          case Provenance::kFromJournal: ++out.from_journal; break;
          case Provenance::kQuarantined: ++out.quarantined;  break;
        }
    }
    if (out.quarantined == 0)
        return out;

    out.exit_code = kExitQuarantine;
    out.quarantine_summary = "quarantine: " +
                             std::to_string(out.quarantined) + " of " +
                             std::to_string(n) +
                             " sweep point(s) failed permanently\n";
    for (std::size_t i = 0; i < n; ++i) {
        if (out.provenance[i] != Provenance::kQuarantined)
            continue;
        char head[128];
        std::snprintf(head, sizeof head,
                      "  point %zu key=%s load=%.6g seed=%llu: ", i,
                      key_hex(keys[i]).c_str(), items[i].traffic.load,
                      static_cast<unsigned long long>(items[i].params.seed));
        out.quarantine_summary += head + why[i] + "\n";
    }
    return out;
}

std::vector<SyntheticResult>
sweep_or_exit(const std::vector<RunItem> &items, const SweepOptions &opts)
{
    SweepOutcome out = run_sweep(items, opts);
    if (!out.fatal.empty()) {
        std::fprintf(stderr, "[%s] fatal: %s\n", out.backend,
                     out.fatal.c_str());
        std::exit(out.exit_code);
    }
    std::fputs(out.status_line().c_str(), stderr);
    std::fputs(out.quarantine_summary.c_str(), stderr);
    if (out.exit_code != 0)
        std::exit(out.exit_code);
    return std::move(out.results);
}

} // namespace catnap
