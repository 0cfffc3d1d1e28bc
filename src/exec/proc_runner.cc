#include "exec/proc_runner.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <map>

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/checkpoint.h"
#include "exec/point_codec.h"

extern char **environ;

namespace catnap {

namespace {

/** Watchdog poll interval: how often a supervising thread checks its
 * worker for exit or deadline. Small enough that a timeout fires
 * within a few ms of the budget; large enough to cost nothing. */
constexpr std::int64_t kProcPollMs = 2;

/** Exponential-backoff ceiling: retries never wait longer than this. */
constexpr std::int64_t kBackoffCapMs = 10000;

/** Microseconds on the host's monotonic clock. Host-side observability
 * only (see tools/lint host-clock exemption for src/exec/). */
std::int64_t
now_us()
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
now_ms()
{
    return now_us() / 1000;
}

/** Fixed-width lower-case hex of a point key (scratch file names). */
std::string
key_hex(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
}

} // namespace

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

ProcRunner::ProcRunner(const ProcOptions &opts)
    : opts_(opts), epoch_us_(now_us())
{
    if (opts_.worker.empty())
        throw std::invalid_argument("proc: worker executable is required");
    if (opts_.scratch_dir.empty())
        throw std::invalid_argument("proc: scratch_dir is required");
    if (opts_.resume && opts_.journal.empty())
        throw std::invalid_argument("proc: --resume requires a journal");
}

void
ProcRunner::emit(TraceEvent ev)
{
    if (opts_.sink == nullptr)
        return;
    ev.cycle = static_cast<Cycle>(now_us() - epoch_us_);
    // Supervising threads emit concurrently; the sink sees one event
    // at a time.
    std::lock_guard<std::mutex> lock(sink_mutex_);
    opts_.sink->on_event(ev);
}

void
ProcRunner::journal_append(std::uint64_t key,
                           const std::vector<std::uint8_t> &payload)
{
    if (journal_ == nullptr)
        return;
    std::lock_guard<std::mutex> lock(journal_mutex_);
    journal_->append(key, payload);
}

ProcSweepResult
ProcRunner::run(const std::vector<RunItem> &items)
{
    ProcSweepResult out;
    const std::size_t n = items.size();
    out.points.resize(n);
    if (n == 0)
        return out;
    epoch_us_ = now_us();
    make_scratch_dir();

    // Replay the journal before opening it for writing: in append mode
    // replay decides which points are already done, in truncate mode a
    // stale journal holds results for a possibly different sweep and
    // must not leak into this one.
    std::map<std::uint64_t, std::vector<std::uint8_t>> replay;
    if (opts_.resume) {
        for (ckpt::JournalRecord &rec :
             ckpt::load_journal(opts_.journal).records)
            replay[rec.key] = std::move(rec.payload); // last record wins
    }
    if (!opts_.journal.empty()) {
        journal_ = std::make_unique<ckpt::JournalWriter>(
            opts_.journal, opts_.resume
                               ? ckpt::JournalWriter::Mode::kAppend
                               : ckpt::JournalWriter::Mode::kTruncate);
    }

    std::vector<std::uint64_t> keys(n);
    for (std::size_t i = 0; i < n; ++i)
        keys[i] = point_hash(items[i]);

    // Identical points (same key) run once and share the result; the
    // first occurrence owns the slot the worker writes into.
    std::map<std::uint64_t, std::size_t> owner;
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        if (!owner.emplace(keys[i], i).second)
            continue;
        const auto rec = replay.find(keys[i]);
        if (rec != replay.end()) {
            try {
                ckpt::Reader r(rec->second);
                PointReport rep;
                rep.result = take_synth_result(r);
                r.expect_exhausted();
                rep.status = PointStatus::kFromJournal;
                rep.key = keys[i];
                out.points[i] = std::move(rep);
                continue;
            } catch (const ckpt::CkptError &) {
                // Damaged record that still passed the CRC scan (e.g.
                // schema drift): forget it and re-run the point.
            }
        }
        pending.push_back(i);
    }

    // Points only throw on supervisor-side faults (spawn/scratch/
    // journal I/O); worker failures become quarantine reports.
    ExecOptions eo;
    eo.jobs = opts_.jobs;
    SweepRunner(eo).run_jobs(pending.size(), [&](std::size_t p) {
        const std::size_t idx = pending[p];
        out.points[idx] = run_point(idx, items[idx], keys[idx]);
    });

    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t first = owner.at(keys[i]);
        if (i != first)
            out.points[i] = out.points[first];
        const PointReport &rep = out.points[i];
        if (i == first)
            out.spawned += static_cast<std::size_t>(rep.attempts);
        switch (rep.status) {
          case PointStatus::kOk:          ++out.completed;    break;
          case PointStatus::kFromJournal: ++out.from_journal; break;
          case PointStatus::kQuarantined: ++out.quarantined;  break;
        }
    }
    return out;
}

void
ProcRunner::make_scratch_dir() const
{
    std::error_code ec;
    std::filesystem::create_directories(opts_.scratch_dir, ec);
    if (ec) {
        throw std::runtime_error("proc: cannot create scratch dir '" +
                                 opts_.scratch_dir + "': " + ec.message());
    }
}

PointReport
ProcRunner::run_one(std::size_t index, const RunItem &item)
{
    make_scratch_dir();
    return run_point(index, item, point_hash(item));
}

PointReport
ProcRunner::run_point(std::size_t index, const RunItem &item,
                      std::uint64_t key)
{
    PointReport rep;
    rep.key = key;

    const std::string base = opts_.scratch_dir + "/pt_" + key_hex(key);
    const std::string spec_path = base + ".spec";
    const std::string out_path = base + ".result";
    ckpt::write_file(spec_path, encode_point_spec(item));

    const int max_attempts =
        opts_.max_retries > 0 ? opts_.max_retries + 1 : 1;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            const int shift = attempt - 2 < 20 ? attempt - 2 : 20;
            const std::int64_t delay =
                opts_.backoff_ms <= 0
                    ? 0
                    : std::min<std::int64_t>(opts_.backoff_ms << shift,
                                             kBackoffCapMs);
            TraceEvent ev;
            ev.kind = EventKind::kProcRetry;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(delay);
            emit(ev);
            if (delay > 0)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
        }

        ::unlink(out_path.c_str()); // a stale image must never pass

        const char *argv[] = {opts_.worker.c_str(),
                              "--worker-spec", spec_path.c_str(),
                              "--worker-out",  out_path.c_str(),
                              nullptr};
        pid_t pid = -1;
        const int spawn_err =
            ::posix_spawn(&pid, opts_.worker.c_str(), nullptr, nullptr,
                          const_cast<char *const *>(argv), environ);
        if (spawn_err != 0) {
            throw std::runtime_error("proc: cannot spawn worker '" +
                                     opts_.worker +
                                     "': " + std::strerror(spawn_err));
        }
        ++rep.attempts;
        {
            TraceEvent ev;
            ev.kind = EventKind::kProcSpawn;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(pid);
            emit(ev);
        }

        const std::int64_t deadline =
            opts_.timeout_ms > 0 ? now_ms() + opts_.timeout_ms : 0;
        bool timed_out = false;
        int status = 0;
        for (;;) {
            const pid_t r = ::waitpid(pid, &status, WNOHANG);
            if (r == pid)
                break;
            if (r < 0) {
                if (errno == EINTR)
                    continue;
                throw std::runtime_error(
                    std::string("proc: waitpid failed: ") +
                    std::strerror(errno));
            }
            if (deadline != 0 && now_ms() >= deadline) {
                ::kill(pid, SIGKILL);
                while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
                }
                timed_out = true;
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kProcPollMs));
        }

        PointFailure fail;
        if (timed_out) {
            fail.kind = PointFailKind::kTimeout;
            fail.detail = opts_.timeout_ms;
            fail.message = "timeout after " +
                           std::to_string(opts_.timeout_ms) +
                           "ms (SIGKILL)";
        } else if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == 0) {
                try {
                    rep.result =
                        decode_point_result(item,
                                            ckpt::read_file(out_path));
                    rep.status = PointStatus::kOk;
                    TraceEvent ev;
                    ev.kind = EventKind::kProcExit;
                    ev.node = static_cast<NodeId>(index);
                    ev.a = attempt;
                    ev.b = static_cast<std::int32_t>(PointFailKind::kNone);
                    emit(ev);
                    ckpt::Writer w;
                    put_synth_result(w, rep.result);
                    journal_append(key, w.bytes());
                    ::unlink(spec_path.c_str());
                    ::unlink(out_path.c_str());
                    return rep;
                } catch (const ckpt::CkptError &e) {
                    fail.kind = PointFailKind::kBadResult;
                    fail.message =
                        std::string("bad result image: ") + e.what();
                }
            } else {
                fail.kind = PointFailKind::kExit;
                fail.detail = code;
                fail.message = "exit code " + std::to_string(code);
            }
        } else if (WIFSIGNALED(status)) {
            const int sig = WTERMSIG(status);
            fail.kind = PointFailKind::kSignal;
            fail.detail = sig;
            fail.message = "killed by signal " + std::to_string(sig);
        } else {
            fail.kind = PointFailKind::kExit;
            fail.detail = status;
            fail.message = "unrecognized wait status " +
                           std::to_string(status);
        }

        {
            TraceEvent ev;
            ev.kind = EventKind::kProcExit;
            ev.node = static_cast<NodeId>(index);
            ev.a = attempt;
            ev.b = static_cast<std::int32_t>(fail.kind);
            ev.pkt = static_cast<PacketId>(fail.detail);
            emit(ev);
        }
        rep.failures.push_back(std::move(fail));
    }

    rep.status = PointStatus::kQuarantined;
    TraceEvent ev;
    ev.kind = EventKind::kProcQuarantine;
    ev.node = static_cast<NodeId>(index);
    ev.a = rep.attempts;
    emit(ev);
    return rep;
}

} // namespace catnap
