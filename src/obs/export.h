/**
 * @file
 * Trace exporters: Chrome trace-event JSON (loadable in Perfetto /
 * chrome://tracing) and line-delimited JSON for scripted analysis.
 *
 * The Chrome export lays the trace out as one process per subnet, one
 * thread per router. Each router thread carries its power-state
 * timeline as "X" (complete) spans named Active/Sleep/Wakeup, with
 * idle-detect, LCS, and escalation marks as instant events; RCS bits get
 * their own per-region threads; per-subnet injected-flit throughput is
 * rendered as a counter track sampled every `counter_window` cycles.
 * Timestamps are cycles (1 cycle == 1 "us" in the viewer's time unit).
 */
#ifndef CATNAP_OBS_EXPORT_H
#define CATNAP_OBS_EXPORT_H

#include <iosfwd>
#include <string>

#include "obs/trace_buffer.h"

namespace catnap {

/** Static context the event stream alone does not carry. */
struct TraceExportMeta
{
    int num_subnets = 1;
    int num_nodes = 0;   ///< routers per subnet (0 = infer from events)
    int num_regions = 0; ///< RCS regions (0 = infer from events)

    /** Cycle the trace window ends at; open power-state spans are closed
     * here. 0 = use the last event's cycle. */
    Cycle end_cycle = 0;

    /** Counter-track sampling window, cycles. */
    Cycle counter_window = 50;
};

/** Thread-id base for the per-region RCS tracks in the Chrome export
 * (router threads use their node id directly). */
inline constexpr int kRcsTrackTidBase = 100000;

/** Writes @p trace as a single Chrome trace-event JSON object. */
void write_chrome_trace(std::ostream &os, const EventTrace &trace,
                        const TraceExportMeta &meta);

/**
 * Writes @p trace as JSONL: one event object per line with the fields
 * cycle, kind (see event_kind_name()), node, subnet, a, b, pkt.
 */
void write_jsonl(std::ostream &os, const EventTrace &trace);

/** File-writing wrappers; fatal on I/O failure. */
void save_chrome_trace(const std::string &path, const EventTrace &trace,
                       const TraceExportMeta &meta);
void save_jsonl(const std::string &path, const EventTrace &trace);

} // namespace catnap

#endif // CATNAP_OBS_EXPORT_H
