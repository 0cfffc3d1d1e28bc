/**
 * @file
 * Tests for the observability subsystem: the EventTrace ring buffer
 * (wraparound, drop accounting), the Chrome trace-event / JSONL
 * exporters (well-formedness), the epoch-snapshot recorder, and a
 * deterministic golden sleep/wake event sequence on a fixed-seed
 * 2-subnet network.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "noc/multinoc.h"
#include "obs/export.h"
#include "obs/snapshot.h"
#include "obs/trace_buffer.h"
#include "sim/simulator.h"
#include "traffic/synthetic.h"

namespace catnap {
namespace {

// ---------------------------------------------------------------------
// A minimal JSON validator covering the subset the exporters emit
// (objects, arrays, escape-free strings, integers/doubles, literals).
// ---------------------------------------------------------------------
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skip_ws();
        if (!value())
            return false;
        skip_ws();
        return pos_ == s_.size();
    }

  private:
    void
    skip_ws()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool
    literal(const char *lit)
    {
        const std::size_t len = std::string(lit).size();
        if (s_.compare(pos_, len, lit) != 0)
            return false;
        pos_ += len;
        return true;
    }

    bool
    string_token()
    {
        if (s_[pos_] != '"')
            return false;
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\')
                return false; // exporters never emit escapes
            ++pos_;
        }
        if (pos_ >= s_.size())
            return false;
        ++pos_;
        return true;
    }

    bool
    number_token()
    {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        return pos_ > start;
    }

    bool
    members(char close, bool keyed)
    {
        ++pos_; // consume the opener
        skip_ws();
        if (pos_ < s_.size() && s_[pos_] == close) {
            ++pos_;
            return true;
        }
        while (pos_ < s_.size()) {
            skip_ws();
            if (keyed) {
                if (!string_token())
                    return false;
                skip_ws();
                if (pos_ >= s_.size() || s_[pos_] != ':')
                    return false;
                ++pos_;
            }
            if (!value())
                return false;
            skip_ws();
            if (pos_ >= s_.size())
                return false;
            if (s_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (s_[pos_] == close) {
                ++pos_;
                return true;
            }
            return false;
        }
        return false;
    }

    bool
    value()
    {
        skip_ws();
        if (pos_ >= s_.size())
            return false;
        const char c = s_[pos_];
        if (c == '{')
            return members('}', true);
        if (c == '[')
            return members(']', false);
        if (c == '"')
            return string_token();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number_token();
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

TraceEvent
make_event(Cycle cycle, NodeId node)
{
    return {cycle, EventKind::kRouterSleep, node, 1, 0, 0, 0};
}

// ---------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------

TEST(EventTrace, RecordsUpToCapacityWithoutDropping)
{
    EventTrace trace(8);
    for (int i = 0; i < 8; ++i)
        trace.on_event(make_event(static_cast<Cycle>(i), i));
    EXPECT_EQ(trace.size(), 8u);
    EXPECT_EQ(trace.recorded(), 8u);
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_EQ(trace.at(0).cycle, 0u);
    EXPECT_EQ(trace.at(7).cycle, 7u);
}

TEST(EventTrace, WraparoundKeepsNewestAndCountsDrops)
{
    EventTrace trace(4);
    for (int i = 0; i < 11; ++i)
        trace.on_event(make_event(static_cast<Cycle>(i), i));
    EXPECT_EQ(trace.size(), 4u);
    EXPECT_EQ(trace.capacity(), 4u);
    EXPECT_EQ(trace.recorded(), 11u);
    EXPECT_EQ(trace.dropped(), 7u);
    // Retained events are the newest 4, oldest-first, in order.
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(trace.at(i).cycle, 7u + i);
        EXPECT_EQ(trace.at(i).node, static_cast<NodeId>(7 + i));
    }
}

TEST(EventTrace, ClearResetsEverything)
{
    EventTrace trace(2);
    for (int i = 0; i < 5; ++i)
        trace.on_event(make_event(static_cast<Cycle>(i), i));
    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.recorded(), 0u);
    EXPECT_EQ(trace.dropped(), 0u);
    trace.on_event(make_event(42, 1));
    EXPECT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.at(0).cycle, 42u);
}

TEST(EventTrace, ForEachVisitsOldestFirst)
{
    EventTrace trace(3);
    for (int i = 0; i < 7; ++i)
        trace.on_event(make_event(static_cast<Cycle>(i), i));
    std::vector<Cycle> seen;
    trace.for_each([&](const TraceEvent &ev) { seen.push_back(ev.cycle); });
    EXPECT_EQ(seen, (std::vector<Cycle>{4, 5, 6}));
}

// ---------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------

EventTrace
record_fixed_seed_run(int subnets, double load, RunParams *out_params)
{
    EventTrace trace;
    MultiNocConfig cfg = multi_noc_config(subnets, GatingKind::kCatnap);
    SyntheticConfig traffic;
    traffic.load = load;
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 1000;
    rp.seed = 99;
    SyntheticRun run(cfg, traffic, rp);
    run.set_event_sink(&trace);
    run.run_warmup();
    run.finish();
    if (out_params)
        *out_params = rp;
    return trace;
}

TEST(ChromeTraceExport, EmitsWellFormedJsonWithExpectedTracks)
{
    const EventTrace trace = record_fixed_seed_run(2, 0.2, nullptr);
    ASSERT_GT(trace.size(), 0u);

    TraceExportMeta meta;
    meta.num_subnets = 2;
    meta.num_nodes = 64;
    std::ostringstream os;
    write_chrome_trace(os, trace, meta);
    const std::string json = os.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << "malformed Chrome trace JSON";

    // Per-router power-state tracks and per-subnet counter tracks.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"subnet 1\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"router 63\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"Sleep\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"injected flits\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(JsonlExport, EveryLineIsAValidObject)
{
    EventTrace trace(64);
    const EventTrace full = record_fixed_seed_run(2, 0.2, nullptr);
    // Re-emit a slice through a small ring to keep the test fast.
    full.for_each([&](const TraceEvent &ev) { trace.on_event(ev); });

    std::ostringstream os;
    write_jsonl(os, trace);
    std::istringstream is(os.str());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line)) {
        ++lines;
        JsonChecker checker(line);
        EXPECT_TRUE(checker.valid()) << "bad JSONL line: " << line;
        EXPECT_NE(line.find("\"kind\":\""), std::string::npos);
    }
    EXPECT_EQ(lines, trace.size());
}

// ---------------------------------------------------------------------
// Golden sleep/wake sequence (fixed seed, 2 subnets)
// ---------------------------------------------------------------------

bool
is_power_event(EventKind k)
{
    return k == EventKind::kRouterIdleDetect ||
           k == EventKind::kRouterSleep ||
           k == EventKind::kRouterWakeBegin ||
           k == EventKind::kRouterActive;
}

TEST(GoldenTrace, IdleSubnetOneRoutersDetectIdleThenSleepAtCycle3)
{
    // No traffic at all: every subnet-1 router must emit exactly
    // idle-detect then sleep, both at cycle t_idle_detect - 1 (the
    // streak reaches 4 in the commit of cycle 3 and the Catnap policy
    // gates the router in the same cycle's policy phase). Subnet 0
    // never sleeps.
    EventTrace trace;
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    MultiNoc net(cfg);
    net.set_event_sink(&trace);
    net.run(40);

    std::vector<std::vector<TraceEvent>> per_node(
        static_cast<std::size_t>(net.num_nodes()));
    trace.for_each([&](const TraceEvent &ev) {
        if (!is_power_event(ev.kind))
            return;
        if (ev.subnet == 1)
            per_node[static_cast<std::size_t>(ev.node)].push_back(ev);
        else
            EXPECT_NE(ev.kind, EventKind::kRouterSleep)
                << "subnet 0 must never sleep";
    });

    for (NodeId n = 0; n < net.num_nodes(); ++n) {
        const auto &evs = per_node[static_cast<std::size_t>(n)];
        ASSERT_EQ(evs.size(), 2u) << "router " << n;
        EXPECT_EQ(evs[0].kind, EventKind::kRouterIdleDetect);
        EXPECT_EQ(evs[0].cycle, 3u);
        EXPECT_EQ(evs[1].kind, EventKind::kRouterSleep);
        EXPECT_EQ(evs[1].cycle, 3u);
    }
}

TEST(GoldenTrace, CongestionWakesSubnetOneViaRcsAfterTWakeup)
{
    // Let subnet 1 fall asleep, then saturate the network: subnet 0
    // congests, its RCS sets, and the Catnap policy wakes subnet-1
    // routers with the RCS reason; each becomes Active exactly
    // t_wakeup cycles later.
    EventTrace trace;
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    MultiNoc net(cfg);
    net.set_event_sink(&trace);
    net.run(100); // subnet 1 fully asleep
    trace.clear();

    SyntheticConfig traffic;
    traffic.load = 0.4;
    SyntheticTraffic gen(&net, traffic, 17);
    for (Cycle c = 0; c < 2000; ++c) {
        gen.step(net.now());
        net.tick();
    }

    bool saw_rcs_set = false;
    bool saw_escalation = false;
    std::size_t rcs_wakes = 0;
    std::vector<Cycle> wake_begin(64, kNoCycle);
    std::vector<std::int32_t> wake_cost(64, 0);
    std::size_t verified_completions = 0;

    trace.for_each([&](const TraceEvent &ev) {
        if (ev.kind == EventKind::kRcsSet && ev.subnet == 0)
            saw_rcs_set = true;
        if (ev.kind == EventKind::kEscalation)
            saw_escalation = true;
        if (ev.subnet != 1)
            return;
        const auto n = static_cast<std::size_t>(ev.node);
        if (ev.kind == EventKind::kRouterWakeBegin) {
            if (ev.a == static_cast<std::int32_t>(WakeReason::kRcs))
                ++rcs_wakes;
            wake_begin[n] = ev.cycle;
            wake_cost[n] = ev.b;
        } else if (ev.kind == EventKind::kRouterActive) {
            ASSERT_NE(wake_begin[n], kNoCycle)
                << "active without wake_begin at router " << ev.node;
            EXPECT_EQ(ev.cycle - wake_begin[n],
                      static_cast<Cycle>(wake_cost[n]));
            wake_begin[n] = kNoCycle;
            ++verified_completions;
        }
    });

    EXPECT_TRUE(saw_rcs_set) << "subnet 0 RCS never set under saturation";
    EXPECT_TRUE(saw_escalation) << "no packet escalated past subnet 0";
    EXPECT_GT(rcs_wakes, 0u) << "no RCS-reason wake-ups on subnet 1";
    EXPECT_GT(verified_completions, 0u);
}

TEST(GoldenTrace, SameSeedProducesIdenticalEventStreams)
{
    const EventTrace a = record_fixed_seed_run(2, 0.3, nullptr);
    const EventTrace b = record_fixed_seed_run(2, 0.3, nullptr);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.recorded(), b.recorded());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const TraceEvent &x = a.at(i);
        const TraceEvent &y = b.at(i);
        ASSERT_EQ(x.cycle, y.cycle) << "event " << i;
        ASSERT_EQ(x.kind, y.kind) << "event " << i;
        ASSERT_EQ(x.node, y.node) << "event " << i;
        ASSERT_EQ(x.subnet, y.subnet) << "event " << i;
        ASSERT_EQ(x.a, y.a) << "event " << i;
        ASSERT_EQ(x.b, y.b) << "event " << i;
        ASSERT_EQ(x.pkt, y.pkt) << "event " << i;
    }
}

// ---------------------------------------------------------------------
// Epoch snapshots
// ---------------------------------------------------------------------

TEST(SnapshotRecorder, SamplesEveryIntervalPerSubnet)
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    MultiNoc net(cfg);
    SnapshotRecorder rec(10);
    for (int i = 0; i < 35; ++i) {
        net.tick();
        rec.observe(net, net.now() - 1);
    }
    // 35 observed cycles at interval 10 -> 3 closed epochs x 2 subnets.
    ASSERT_EQ(rec.rows().size(), 6u);
    EXPECT_EQ(rec.rows()[0].cycle, 9u);
    EXPECT_EQ(rec.rows()[2].cycle, 19u);
    for (const SnapshotRow &row : rec.rows()) {
        EXPECT_EQ(row.num_routers, 64);
        EXPECT_GE(row.rcs_duty, 0.0);
        EXPECT_LE(row.rcs_duty, 1.0);
        if (row.subnet == 0) {
            EXPECT_EQ(row.sleeping_routers, 0); // subnet 0 never sleeps
        } else if (row.cycle >= 9) {
            // Idle network: all subnet-1 routers asleep by cycle 3.
            EXPECT_EQ(row.sleeping_routers, 64);
        }
        EXPECT_EQ(row.buffered_flits, 0);
        EXPECT_EQ(row.injected_flits, 0u);
    }
}

TEST(SnapshotRecorder, CsvHasHeaderAndOneLinePerRow)
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    MultiNoc net(cfg);
    SnapshotRecorder rec(5);
    for (int i = 0; i < 12; ++i) {
        net.tick();
        rec.observe(net, net.now() - 1);
    }
    std::ostringstream os;
    rec.write_csv(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line,
              "cycle,subnet,buffered_flits,sleeping_routers,num_routers,"
              "rcs_duty,injected_flits,healthy,failed_routers");
    std::size_t rows = 0;
    while (std::getline(is, line))
        ++rows;
    EXPECT_EQ(rows, rec.rows().size());
}

TEST(Simulator, TracingDoesNotChangeResults)
{
    MultiNocConfig cfg = multi_noc_config(2, GatingKind::kCatnap);
    SyntheticConfig traffic;
    traffic.load = 0.15;
    RunParams rp;
    rp.warmup = 200;
    rp.measure = 1000;
    rp.seed = 5;

    const SyntheticResult plain = run_synthetic(cfg, traffic, rp);

    EventTrace trace;
    SnapshotRecorder rec(100);
    SyntheticRun run(cfg, traffic, rp);
    run.set_event_sink(&trace);
    run.set_snapshots(&rec);
    run.run_warmup();
    const SyntheticResult traced = run.finish();

    EXPECT_EQ(plain.measured_packets, traced.measured_packets);
    EXPECT_DOUBLE_EQ(plain.avg_latency, traced.avg_latency);
    EXPECT_DOUBLE_EQ(plain.accepted_rate, traced.accepted_rate);
    EXPECT_DOUBLE_EQ(plain.csc_percent, traced.csc_percent);
    EXPECT_GT(trace.recorded(), 0u);
    EXPECT_FALSE(rec.rows().empty());
}

} // namespace
} // namespace catnap
