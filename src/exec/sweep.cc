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

/** @p parts separated by @p sep. */
std::string
join(const std::vector<std::string> &parts, const char *sep)
{
    std::string out;
    for (const std::string &p : parts)
        out += (out.empty() ? "" : sep) + p;
    return out;
}

/** --help for @p cli: the about text, then each flag with its help at
 * column 28, under a heading naming the run kinds it applies to
 * whenever that set changes. */
std::string
help_text(const CommandLine &cli)
{
    const std::string indent(28, ' ');
    const auto entry = [&](std::string head, const std::string &help) {
        head += head.size() < indent.size() ? indent.substr(head.size())
                                            : "\n" + indent;
        for (const char c : help)
            head += c == '\n' ? "\n" + indent : std::string(1, c);
        return head + "\n";
    };
    std::string out =
        cli.about + "\n" + entry("  --help, -h", "print this help");
    unsigned heading = kAnyRun;
    for (const Flag &f : cli.flags) {
        if (!cli.kinds.empty() && f.kinds != heading) {
            heading = f.kinds;
            std::string names;
            for (std::size_t k = 0; k < cli.kinds.size(); ++k)
                if (((heading >> k) & 1u) != 0)
                    names += (names.empty() ? "" : ", ") + cli.kinds[k];
            out += names + ":\n";
        }
        std::string help = f.help;
        if (!f.needs.empty())
            help += "\n(needs " + join(f.needs, " or ") + ")";
        out += entry("  " + f.name + (f.value.empty() ? "" : " " + f.value),
                     help);
    }
    return out;
}

} // namespace

void
die_value(const char *flag, const std::string &value, const std::string &why)
{
    std::fprintf(stderr, "%s: invalid value '%s' for %s: %s\n", prog(),
                 value.c_str(), flag, why.c_str());
    std::exit(kExitBadValue);
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

void
die_usage(const std::string &why)
{
    std::fprintf(stderr, "%s: %s (try --help)\n", prog(), why.c_str());
    std::exit(kExitUsage);
}

void
parse_command_line(int argc, char **argv, const CommandLine &cli)
{
    std::vector<const Flag *> given;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(help_text(cli).c_str(), stdout);
            std::exit(0);
        }
        const Flag *flag = nullptr;
        for (const Flag &f : cli.flags)
            if (f.name == a)
                flag = &f;
        if (flag == nullptr)
            die_usage("unknown option '" + a + "'");
        if (!flag->value.empty() && i + 1 >= argc)
            die_usage("missing value for " + a);
        flag->set(a, flag->value.empty() ? "" : argv[++i]);
        given.push_back(flag);
    }
    const std::size_t kind = cli.kind_of ? cli.kind_of() : 0;
    for (const Flag *flag : given) {
        if (cli.kind_of && ((flag->kinds >> kind) & 1u) == 0)
            die_usage(flag->name + " does not apply to a " +
                      cli.kinds[kind]);
        bool partnered = flag->needs.empty();
        for (const Flag *other : given)
            for (const std::string &need : flag->needs)
                partnered = partnered || other->name == need;
        if (!partnered)
            die_usage(flag->name + " requires " + join(flag->needs, " or "));
    }
}

std::vector<Flag>
sweep_flags(SweepOptions &opts, unsigned accept, unsigned kinds)
{
    const std::vector<std::string> isolate = {"--isolate"};
    std::vector<Flag> flags;
    if ((accept & kJobsFlag) != 0)
        flags.push_back({"--jobs", "N", "concurrent points (default: one "
                         "per core);\noutput is identical for every N",
                         store_int(opts.jobs, 0, 4096), kinds});
    if ((accept & kIsolateFlags) != 0)
        flags.insert(flags.end(), {
            {"--isolate", "", "run every point in a supervised worker\n"
             "subprocess (DESIGN.md §15)", store_bool(opts.isolate, true),
             kinds},
            {"--worker", "PATH", "worker (default: catnap_sim beside this)",
             store_text(opts.worker), kinds, isolate},
            {"--scratch", "DIR", "spec/result exchange directory",
             store_text(opts.scratch), kinds, isolate},
            {"--point-timeout", "MS", "per-attempt wall budget (0 = none)",
             store_uint(opts.point_timeout_ms, 86400000ull), kinds, isolate},
            {"--point-retries", "N",
             "extra attempts before quarantine (default 2)",
             store_int(opts.point_retries, 0, 100), kinds, isolate}});
    if ((accept & kJournalFlags) != 0)
        flags.insert(flags.end(), {
            {"--journal", "FILE", "keep every finished point in this file",
             store_text(opts.journal), kinds},
            {"--resume", "", "replay the journal, run only missing points",
             store_bool(opts.resume, true), kinds, {"--journal"}}});
    return flags;
}

Flag
csv_flag(std::string &path, unsigned kinds)
{
    return {"--csv", "FILE", "save the main sweep as CSV", store_text(path),
            kinds};
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
