#include "obs/export.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <vector>

#include "common/log.h"

namespace catnap {

namespace {

/** One entry of the traceEvents array; tracks whether a comma is due. */
class JsonArrayWriter
{
  public:
    explicit JsonArrayWriter(std::ostream &os) : os_(os) {}

    std::ostream &
    next()
    {
        if (!first_)
            os_ << ",\n";
        first_ = false;
        return os_;
    }

  private:
    std::ostream &os_;
    bool first_ = true;
};

void
write_metadata(JsonArrayWriter &arr, const TraceExportMeta &meta)
{
    for (int s = 0; s < meta.num_subnets; ++s) {
        arr.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << s
                   << ",\"args\":{\"name\":\"subnet " << s << "\"}}";
        arr.next() << "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":"
                   << s << ",\"args\":{\"sort_index\":" << s << "}}";
        for (int n = 0; n < meta.num_nodes; ++n) {
            arr.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                       << s << ",\"tid\":" << n
                       << ",\"args\":{\"name\":\"router " << n << "\"}}";
        }
        for (int r = 0; r < meta.num_regions; ++r) {
            arr.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                       << s << ",\"tid\":" << (kRcsTrackTidBase + r)
                       << ",\"args\":{\"name\":\"RCS region " << r
                       << "\"}}";
        }
    }
}

const char *
power_state_span_name(EventKind k)
{
    // State entered by the transition event.
    switch (k) {
      case EventKind::kRouterSleep:     return "Sleep";
      case EventKind::kRouterWakeBegin: return "Wakeup";
      case EventKind::kRouterActive:    return "Active";
      default:                          return nullptr;
    }
}

void
write_span(JsonArrayWriter &arr, const char *state, int pid, int tid,
           Cycle start, Cycle end)
{
    if (end <= start)
        return;
    arr.next() << "{\"name\":\"" << state
               << "\",\"cat\":\"power\",\"ph\":\"X\",\"ts\":" << start
               << ",\"dur\":" << (end - start) << ",\"pid\":" << pid
               << ",\"tid\":" << tid << "}";
}

void
write_instant(JsonArrayWriter &arr, const char *name, const char *cat,
              int pid, int tid, Cycle ts)
{
    arr.next() << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
               << "\",\"ph\":\"i\",\"ts\":" << ts << ",\"pid\":" << pid
               << ",\"tid\":" << tid << ",\"s\":\"t\"}";
}

} // namespace

void
write_chrome_trace(std::ostream &os, const EventTrace &trace,
                   const TraceExportMeta &meta)
{
    TraceExportMeta m = meta;
    Cycle last_cycle = 0;
    trace.for_each([&](const TraceEvent &ev) {
        last_cycle = std::max(last_cycle, ev.cycle);
        m.num_subnets = std::max(m.num_subnets, ev.subnet + 1);
        if (ev.kind == EventKind::kRcsSet ||
            ev.kind == EventKind::kRcsClear) {
            m.num_regions = std::max(m.num_regions, ev.node + 1);
        } else {
            m.num_nodes = std::max(m.num_nodes, ev.node + 1);
        }
    });
    const Cycle end_cycle = std::max(m.end_cycle, last_cycle);

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    JsonArrayWriter arr(os);
    write_metadata(arr, m);

    // Power-state spans: every router starts Active at the window start
    // (if the ring dropped the true beginning, the first retained
    // transition still resynchronizes each track).
    struct TrackState
    {
        const char *state = "Active";
        Cycle since = 0;
    };
    const auto tracks = static_cast<std::size_t>(m.num_subnets) *
                        static_cast<std::size_t>(std::max(m.num_nodes, 1));
    std::vector<TrackState> state(tracks);
    const auto track_of = [&](const TraceEvent &ev) -> TrackState & {
        return state[static_cast<std::size_t>(ev.subnet) *
                         static_cast<std::size_t>(std::max(m.num_nodes, 1)) +
                     static_cast<std::size_t>(ev.node)];
    };

    // Counter tracks: injected flits per subnet per window.
    std::vector<std::uint64_t> window_flits(
        static_cast<std::size_t>(m.num_subnets), 0);
    Cycle window_start = 0;
    const Cycle window = m.counter_window > 0 ? m.counter_window : 50;
    const auto flush_counters = [&](Cycle up_to) {
        while (window_start + window <= up_to) {
            for (int s = 0; s < m.num_subnets; ++s) {
                auto &count = window_flits[static_cast<std::size_t>(s)];
                arr.next()
                    << "{\"name\":\"injected flits\",\"ph\":\"C\",\"ts\":"
                    << window_start << ",\"pid\":" << s
                    << ",\"args\":{\"flits\":" << count << "}}";
                count = 0;
            }
            window_start += window;
        }
    };

    trace.for_each([&](const TraceEvent &ev) {
        switch (ev.kind) {
          case EventKind::kRouterSleep:
          case EventKind::kRouterWakeBegin:
          case EventKind::kRouterActive: {
            TrackState &t = track_of(ev);
            write_span(arr, t.state, ev.subnet, ev.node, t.since, ev.cycle);
            t.state = power_state_span_name(ev.kind);
            t.since = ev.cycle;
            break;
          }
          case EventKind::kFlitInject:
            flush_counters(ev.cycle);
            ++window_flits[static_cast<std::size_t>(ev.subnet)];
            break;
          case EventKind::kRouterIdleDetect:
            write_instant(arr, "idle-detect", "power", ev.subnet, ev.node,
                          ev.cycle);
            break;
          case EventKind::kLcsSet:
            write_instant(arr, "LCS set", "congestion", ev.subnet, ev.node,
                          ev.cycle);
            break;
          case EventKind::kLcsClear:
            write_instant(arr, "LCS clear", "congestion", ev.subnet,
                          ev.node, ev.cycle);
            break;
          case EventKind::kRcsSet:
            write_instant(arr, "RCS set", "congestion", ev.subnet,
                          kRcsTrackTidBase + ev.node, ev.cycle);
            break;
          case EventKind::kRcsClear:
            write_instant(arr, "RCS clear", "congestion", ev.subnet,
                          kRcsTrackTidBase + ev.node, ev.cycle);
            break;
          case EventKind::kEscalation:
            arr.next() << "{\"name\":\"escalate\",\"cat\":\"select\","
                          "\"ph\":\"i\",\"ts\":"
                       << ev.cycle << ",\"pid\":" << ev.subnet
                       << ",\"tid\":" << ev.node
                       << ",\"s\":\"t\",\"args\":{\"skipped\":" << ev.a
                       << ",\"reason\":" << ev.b << ",\"pkt\":" << ev.pkt
                       << "}}";
            break;
          case EventKind::kFaultInjected:
            arr.next() << "{\"name\":\"fault\",\"cat\":\"fault\","
                          "\"ph\":\"i\",\"ts\":"
                       << ev.cycle << ",\"pid\":" << ev.subnet
                       << ",\"tid\":" << ev.node
                       << ",\"s\":\"p\",\"args\":{\"kind\":" << ev.a
                       << ",\"detail\":" << ev.b << "}}";
            break;
          case EventKind::kSubnetHealth:
            arr.next() << "{\"name\":\"subnet failed\",\"cat\":\"fault\","
                          "\"ph\":\"i\",\"ts\":"
                       << ev.cycle << ",\"pid\":" << ev.subnet
                       << ",\"tid\":" << ev.node
                       << ",\"s\":\"g\",\"args\":{\"never_sleep\":" << ev.b
                       << "}}";
            break;
          case EventKind::kWakeRetry:
            write_instant(arr, "wake retry", "fault", ev.subnet, ev.node,
                          ev.cycle);
            break;
          case EventKind::kPacketTimeout:
            write_instant(arr, "pkt timeout", "fault", ev.subnet, ev.node,
                          ev.cycle);
            break;
          case EventKind::kPacketRetransmit:
            write_instant(arr, "pkt retransmit", "fault", ev.subnet,
                          ev.node, ev.cycle);
            break;
          case EventKind::kPacketDrop:
            write_instant(arr, "pkt drop", "fault", ev.subnet, ev.node,
                          ev.cycle);
            break;
          case EventKind::kFlitEject:
          case EventKind::kSubnetSelect:
            break; // JSONL-only detail; spans/counters cover the story
        }
    });

    flush_counters(end_cycle + window); // close the final partial window
    for (int s = 0; s < m.num_subnets; ++s) {
        for (int n = 0; n < std::max(m.num_nodes, 1); ++n) {
            const TrackState &t =
                state[static_cast<std::size_t>(s) *
                          static_cast<std::size_t>(std::max(m.num_nodes, 1)) +
                      static_cast<std::size_t>(n)];
            write_span(arr, t.state, s, n, t.since, end_cycle);
        }
    }

    os << "\n],\"otherData\":{\"dropped_events\":" << trace.dropped()
       << ",\"recorded_events\":" << trace.recorded() << "}}\n";
}

void
write_jsonl(std::ostream &os, const EventTrace &trace)
{
    trace.for_each([&](const TraceEvent &ev) {
        os << "{\"cycle\":" << ev.cycle << ",\"kind\":\""
           << event_kind_name(ev.kind) << "\",\"node\":" << ev.node
           << ",\"subnet\":" << ev.subnet << ",\"a\":" << ev.a
           << ",\"b\":" << ev.b << ",\"pkt\":" << ev.pkt << "}\n";
    });
}

namespace {

std::ofstream
open_or_die(const std::string &path)
{
    std::ofstream os(path);
    if (!os)
        CATNAP_FATAL("cannot open ", path, " for writing");
    return os;
}

} // namespace

void
save_chrome_trace(const std::string &path, const EventTrace &trace,
                  const TraceExportMeta &meta)
{
    auto os = open_or_die(path);
    write_chrome_trace(os, trace, meta);
    if (!os)
        CATNAP_FATAL("error writing ", path);
}

void
save_jsonl(const std::string &path, const EventTrace &trace)
{
    auto os = open_or_die(path);
    write_jsonl(os, trace);
    if (!os)
        CATNAP_FATAL("error writing ", path);
}

} // namespace catnap
