/**
 * @file
 * Client side of the sweep service (DESIGN.md §17): a SweepRunner-
 * shaped backend that resolves a batch of points against a running
 * catnap_serve daemon instead of executing them locally.
 *
 * run_batch_served() serialises every RunItem as a sealed point-spec
 * image (exec/point_codec.h), ships the batch as one framed sweep
 * request, and decodes each returned result image against the item
 * that requested it — the seal under the "PNT1" point hash means a
 * daemon (or a bit-flipped cache) can never hand back bytes for the
 * wrong point. Results arrive in item order, bit-identical to the
 * serial in-process run.
 *
 * Failure model: connection-level trouble — the daemon not up yet,
 * killed mid-request, or restarting — retries the *whole request* on a
 * fixed cadence (ServeClientOptions) until the attempt budget runs
 * out. This is safe because the protocol is idempotent: every point a
 * previous attempt finished is in the daemon's cache, so a retried
 * request re-executes only the points the crash actually lost.
 * Protocol-level errors (a malformed-request reply, an undecodable
 * response) are programming errors, not outages, and throw ServeError
 * immediately. Per-point quarantine is data, not an exception: it is
 * reported in ServedSweep, one Provenance per point.
 */
#ifndef CATNAP_SERVE_CLIENT_H
#define CATNAP_SERVE_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "exec/sweep.h"
#include "serve/server.h"
#include "sim/simulator.h"

namespace catnap {
namespace serve {

/** How to reach (and wait for) the daemon. */
struct ServeClientOptions
{
    /** The daemon's Unix-domain socket path. Required. */
    std::string socket_path;

    /** Connection/request attempts before giving up. With the default
     * cadence this spans ~30 s — enough to ride out a daemon restart. */
    int attempts = 120;

    /** Delay between attempts in milliseconds. */
    std::int64_t retry_delay_ms = 250;
};

/** Outcome of one served batch. */
struct ServedSweep
{
    /** Index-ordered; slot i is valid unless provenance[i] is
     * kQuarantined. */
    std::vector<SyntheticResult> results;
    /** kCacheHit ("hit" on the wire), kExecuted ("miss": the daemon ran
     * it for this request) or kQuarantined. */
    std::vector<Provenance> provenance;
    std::vector<std::string> errors; ///< per-point; empty unless quar.

    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t quarantined = 0;

    bool ok() const { return quarantined == 0; }
};

/**
 * Resolves @p items against the daemon at @p opts.socket_path. Throws
 * ServeError when the daemon stays unreachable for the whole attempt
 * budget, replies with an error frame, or sends an undecodable
 * response.
 */
ServedSweep run_batch_served(const std::vector<RunItem> &items,
                             const ServeClientOptions &opts);

/** Fetches the daemon's statistics counters. Same retry/throw rules as
 * run_batch_served(). */
ServeStats fetch_stats(const ServeClientOptions &opts);

/** True when the daemon answers a ping within one attempt budget. */
bool ping(const ServeClientOptions &opts);

/** Asks the daemon to exit cleanly (it finishes in-flight requests,
 * persists its stats file, and removes the socket). */
void request_shutdown(const ServeClientOptions &opts);

} // namespace serve
} // namespace catnap

#endif // CATNAP_SERVE_CLIENT_H
