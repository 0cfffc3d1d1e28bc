#include "exec/proc_runner.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

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

/** First retry delay, doubled per further attempt up to the cap. */
constexpr std::int64_t kBackoffMs = 50;

/** Exponential-backoff ceiling: retries never wait longer than this. */
constexpr std::int64_t kBackoffCapMs = 10000;

/** Scratch directory of an isolated sweep that names none. */
constexpr const char *kDefaultScratch = ".catnap-scratch";

/** Milliseconds on the host's monotonic clock, for the watchdog (see
 * the tools/lint host-clock exemption for src/exec/). */
std::int64_t
now_ms()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

ProcRunner::ProcRunner(const SweepOptions &opts) : opts_(opts)
{
    if (opts_.worker.empty())
        opts_.worker = default_worker_path();
    if (opts_.scratch.empty())
        opts_.scratch = kDefaultScratch;
    std::error_code ec;
    std::filesystem::create_directories(opts_.scratch, ec);
    if (ec) {
        throw std::runtime_error("proc: cannot create scratch dir '" +
                                 opts_.scratch + "': " + ec.message());
    }
}

PointReport
ProcRunner::run_one(const RunItem &item)
{
    PointReport rep;
    const std::string base =
        opts_.scratch + "/pt_" + key_hex(point_hash(item));
    const std::string spec_path = base + ".spec";
    const std::string out_path = base + ".result";
    ckpt::write_file(spec_path, encode_point_spec(item));

    const int max_attempts =
        opts_.point_retries > 0 ? opts_.point_retries + 1 : 1;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            const int shift = attempt - 2 < 20 ? attempt - 2 : 20;
            const std::int64_t delay =
                std::min<std::int64_t>(kBackoffMs << shift, kBackoffCapMs);
            std::this_thread::sleep_for(std::chrono::milliseconds(delay));
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

        const std::int64_t deadline =
            opts_.point_timeout_ms > 0 ? now_ms() + opts_.point_timeout_ms
                                       : 0;
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
            fail.detail = opts_.point_timeout_ms;
            fail.message = "timeout after " +
                           std::to_string(opts_.point_timeout_ms) +
                           "ms (SIGKILL)";
        } else if (WIFEXITED(status)) {
            const int code = WEXITSTATUS(status);
            if (code == 0) {
                try {
                    rep.result =
                        decode_point_result(item,
                                            ckpt::read_file(out_path));
                    rep.status = Provenance::kExecuted;
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

        rep.failures.push_back(std::move(fail));
    }
    return rep;
}

} // namespace catnap
