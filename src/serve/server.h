/**
 * @file
 * catnap_serve: the long-running sweep service (DESIGN.md §17).
 *
 * The server listens on a local Unix-domain socket and answers
 * length-prefixed JSON frames (serve/frame.h). A sweep request carries
 * sealed point-spec images (exec/point_codec.h); every point is keyed
 * by its 64-bit "PNT1" identity hash and answered from the persistent
 * result cache (serve/cache.h) when possible. Misses execute through
 * execute_points() of exec/sweep.h, the executor run_sweep() uses —
 * in-process by default, or in a supervised catnap_sim worker
 * subprocess (ProcRunner, with its retry/backoff and quarantine
 * semantics) when ServeConfig::exec.isolate is set. Each point is its
 * own pool job and lands in the cache the moment it completes, in
 * either mode, so a daemon killed mid-sweep loses only the points in
 * flight.
 *
 * Concurrency contract:
 *   - one handler thread per connection; the cache, statistics, and
 *     single-flight table are serialised behind one mutex;
 *   - *single-flight*: concurrent requests for the same uncached point
 *     execute it exactly once — later requesters block until the owner
 *     finishes, then read the cache (provenance: hit);
 *   - quarantined points are never inserted into the cache, so a
 *     transient failure (isolate mode) is retried by the next request
 *     instead of being served forever.
 *
 * Determinism contract: a result is encoded once (bit-exact doubles)
 * when its point first executes; every later response replays those
 * bytes. A warm-cache sweep is therefore byte-identical to the serial
 * in-process run while executing zero simulation points.
 */
#ifndef CATNAP_SERVE_SERVER_H
#define CATNAP_SERVE_SERVER_H

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep.h"
#include "obs/event.h"
#include "serve/cache.h"
#include "serve/frame.h"

namespace catnap {
namespace serve {

/** Cap on points per sweep request (bounds per-request allocation). */
constexpr std::size_t kMaxPointsPerRequest = 4096;

/** Daemon-wide policy. */
struct ServeConfig
{
    /** Unix-domain socket path to listen on. Required. */
    std::string socket_path;

    /** Result-cache backing file and bound (serve/cache.h). */
    CacheConfig cache;

    /** How misses execute: jobs, isolate, worker, scratch,
     * point_retries and point_timeout_ms (execute_points()); serve,
     * journal and resume are ignored. */
    SweepOptions exec;

    /** When non-empty, the daemon rewrites this file with the stats
     * JSON after every request (and at shutdown), so the statistics
     * survive even a SIGKILLed daemon. */
    std::string stats_path;

    /** Receives serve.* host-time trace events (exec Perfetto track;
     * null disables). */
    EventSink *sink = nullptr;
};

/** Daemon-level counters (monotonic since startup). */
struct ServeStats
{
    std::uint64_t requests = 0;    ///< sweep requests answered
    std::uint64_t points = 0;      ///< points across all sweep requests
    std::uint64_t hits = 0;        ///< points served from the cache
    std::uint64_t misses = 0;      ///< points executed for the requester
    std::uint64_t quarantined = 0; ///< points answered as quarantined
    std::uint64_t executed = 0;    ///< simulation points actually run
    std::uint64_t evicted = 0;     ///< cache entries evicted
    std::uint64_t cache_entries = 0;
    std::uint64_t cache_bytes = 0;
    std::uint64_t restored_records = 0; ///< rebuilt from the cache file
    std::uint64_t restored_discarded_bytes = 0; ///< torn tail at startup

    /** Canonical JSON rendering (fixed field order). */
    std::string to_json() const;
};

/** A decoded client request (the fuzzed trust-boundary surface). */
struct ServeRequest
{
    enum class Kind : std::int8_t {
        kSweep = 0,    ///< run/lookup a list of points
        kStats = 1,    ///< report daemon statistics
        kPing = 2,     ///< liveness probe
        kShutdown = 3, ///< ask the daemon to exit cleanly
    };

    Kind kind = Kind::kPing;
    std::vector<RunItem> items; ///< kSweep only
};

/**
 * Validates and decodes one frame payload into a request. Throws
 * ServeError with a precise message on any malformed input — bad JSON,
 * missing/mistyped fields, an unknown type, too many points, bad hex,
 * or a spec image that fails the §15 container validation. Never
 * crashes or reads out of bounds (libFuzzer-covered).
 */
ServeRequest decode_request(const std::string &payload);

/** The daemon. One instance per socket; start() spawns the accept
 * loop, stop() tears everything down (idempotent). */
class ServeServer
{
  public:
    /** Opens the cache and binds the socket (throws on either). */
    explicit ServeServer(const ServeConfig &cfg);

    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /** Spawns the accept thread; returns immediately. */
    void start();

    /** Closes the socket, wakes every handler, joins all threads. */
    void stop();

    /** True once a client sent a shutdown request. */
    bool shutdown_requested() const;

    /** Snapshot of the daemon counters. */
    ServeStats stats() const;

    const ServeConfig &config() const { return cfg_; }

  private:
    struct PointAnswer
    {
        Provenance status = Provenance::kQuarantined;
        SyntheticResult result; ///< valid unless quarantined
        std::string error;      ///< quarantine reason
    };

    void accept_loop();
    void handle_connection(int fd);
    std::string handle_payload(const std::string &payload);
    std::string handle_sweep(const std::vector<RunItem> &items);
    std::vector<PointAnswer> resolve_points(const std::vector<RunItem> &items);
    void execute_misses(const std::vector<RunItem> &items,
                        const std::vector<std::uint64_t> &keys,
                        const std::vector<std::size_t> &pending,
                        std::vector<PointAnswer> &answers);
    void finish_point(std::uint64_t key, PointAnswer answer,
                      PointAnswer &out);
    ServeStats stats_locked() const;
    void write_stats_file();
    void emit(TraceEvent ev);

    ServeConfig cfg_;
    std::unique_ptr<ResultCache> cache_;
    int listen_fd_ = -1;

    mutable std::mutex mu_;            ///< cache + stats + single-flight
    std::condition_variable inflight_cv_;
    std::set<std::uint64_t> inflight_; ///< keys some request is executing
    ServeStats stats_;

    std::mutex sink_mutex_;
    std::int64_t epoch_us_ = 0;

    std::mutex threads_mu_;            ///< conn bookkeeping
    std::vector<std::thread> conn_threads_;
    std::set<int> conn_fds_;
    std::thread accept_thread_;
    bool running_ = false;
    bool shutdown_requested_ = false;
};

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_SERVER_H
