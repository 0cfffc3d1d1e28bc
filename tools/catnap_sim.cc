/**
 * @file
 * catnap_sim: command-line driver for one-off experiments.
 *
 * Examples:
 *   catnap_sim --subnets 4 --gating catnap --load 0.1
 *   catnap_sim --subnets 1 --width 512 --pattern transpose --load 0.2
 *   catnap_sim --mode app --workload heavy --subnets 4 --gating catnap
 *   catnap_sim --help
 */
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/system.h"
#include "ckpt/checkpoint.h"
#include "exec/point_codec.h"
#include "exec/sweep.h"
#include "obs/export.h"
#include "obs/snapshot.h"
#include "obs/trace_buffer.h"
#include "sim/report.h"
#include "sim/simulator.h"

using namespace catnap;

namespace {

/** An offered load: finite, strictly positive, sane upper bound. */
double
parse_load(const std::string &flag, const std::string &value)
{
    const double v = parse_real(flag.c_str(), value, 0.0, 8.0);
    if (v <= 0.0)
        die_value(flag.c_str(), value, "offered load must be > 0");
    return v;
}

/** Parses a comma-separated load list ("0.01,0.05,0.1"). */
std::vector<double>
parse_loads(const std::string &flag, const std::string &value)
{
    std::vector<double> loads;
    std::size_t pos = 0;
    while (pos <= value.size()) {
        std::size_t next = value.find(',', pos);
        if (next == std::string::npos)
            next = value.size();
        loads.push_back(parse_load(flag, value.substr(pos, next - pos)));
        pos = next + 1;
    }
    return loads;
}

const Names<bool> kModes = {{"synthetic", false}, {"app", true}};

const Names<SelectorKind> kSelectors = {
    {"rr", SelectorKind::kRoundRobin}, {"random", SelectorKind::kRandom},
    {"catnap", SelectorKind::kCatnap},
    {"class", SelectorKind::kClassPartition}};

const Names<GatingKind> kGatings = {
    {"off", GatingKind::kAlwaysOn}, {"idle", GatingKind::kIdle},
    {"fineport", GatingKind::kFinePort}, {"catnap", GatingKind::kCatnap}};

const Names<CongestionMetric> kMetrics = {
    {"bfm", CongestionMetric::kBufferMax},
    {"bfa", CongestionMetric::kBufferAvg},
    {"ir", CongestionMetric::kInjectionRate},
    {"iqocc", CongestionMetric::kInjQueueOcc},
    {"delay", CongestionMetric::kBlockingDelay}};

const Names<PatternKind> kPatterns = {
    {"uniform", PatternKind::kUniformRandom},
    {"transpose", PatternKind::kTranspose},
    {"bitcomp", PatternKind::kBitComplement},
    {"bitrev", PatternKind::kBitReverse}, {"shuffle", PatternKind::kShuffle},
    {"hotspot", PatternKind::kHotspot}, {"neighbor", PatternKind::kNeighbor}};

/** A Table 3 mix builder, given the core count. */
using MixBuilder = WorkloadMix (*)(int);

const Names<MixBuilder> kWorkloads = {{"light", light_mix},
                                      {"medium-light", medium_light_mix},
                                      {"medium-heavy", medium_heavy_mix},
                                      {"heavy", heavy_mix}};

/** Every Table 3 mix runs this many applications, in equal shares. */
constexpr int kMixApps = 8;

const Names<Direction> kDirections = {
    {"north", Direction::kNorth}, {"east", Direction::kEast},
    {"south", Direction::kSouth}, {"west", Direction::kWest},
    {"local", Direction::kLocal}};

/**
 * Parses a @p kind fault-event spec: "C:S:N", then DUR for lost wakes,
 * DUR:DELAY for delayed wakes, DIR for a dead link. A wrong field count
 * or a bad number exits kExitBadValue, an unknown DIR kExitUsage. S and
 * N must fit a 32-bit id; whether they name a subnet and a node of the
 * network is a cross-field check.
 */
FaultEvent
parse_fault_event(const std::string &flag, const std::string &value,
                  FaultKind kind)
{
    std::vector<std::string> fields;
    for (std::size_t pos = 0;;) {
        const std::size_t next = value.find(':', pos);
        fields.push_back(value.substr(pos, next - pos));
        if (next == std::string::npos)
            break;
        pos = next + 1;
    }
    std::size_t want = kind == FaultKind::kDelayedWake ? 5 : 3;
    if (kind == FaultKind::kLostWake || kind == FaultKind::kLinkFailure)
        want = 4;
    if (fields.size() != want) {
        die_value(flag.c_str(), value,
                  "expected " + std::to_string(want) +
                      " ':'-separated fields, got " +
                      std::to_string(fields.size()));
    }
    const auto number = [&](std::size_t k, long long hi) {
        return parse_int(flag.c_str(), fields[k], 0, hi);
    };
    FaultEvent ev;
    ev.kind = kind;
    ev.at = static_cast<Cycle>(number(0, 1ll << 62));
    ev.subnet = static_cast<SubnetId>(number(1, INT32_MAX));
    ev.node = static_cast<NodeId>(number(2, INT32_MAX));
    if (kind == FaultKind::kLinkFailure)
        ev.port = parse_name(flag.c_str(), fields[3], kDirections);
    else if (want > 3)
        ev.duration = static_cast<Cycle>(number(3, 1ll << 62));
    if (want > 4)
        ev.delay = static_cast<Cycle>(number(4, 1ll << 62));
    return ev;
}

// Run kinds: CommandLine::kinds order, and the bits of Flag::kinds.
enum RunKind : std::size_t { kSingle, kSweep, kApp, kWorker };
constexpr unsigned kSingleRun = 1u << kSingle;
constexpr unsigned kLoadSweep = 1u << kSweep;
constexpr unsigned kAppRun = 1u << kApp;
constexpr unsigned kWorkerRun = 1u << kWorker;
constexpr unsigned kSynthetic = kSingleRun | kLoadSweep;
constexpr unsigned kNetwork = kSynthetic | kAppRun;

/**
 * Worker mode (DESIGN.md §15): run exactly one sweep point from a
 * sealed spec file and write the sealed result. Deliberately silent on
 * stdout — the supervisor owns all reporting — and fully sandboxed by
 * the process boundary: any throw, abort, or crash here is classified
 * by the supervisor, never propagated.
 */
int
run_worker(const std::string &spec_path, const std::string &out_path)
{
    try {
        const RunItem item = decode_point_spec(ckpt::read_file(spec_path));
        const SyntheticResult res =
            run_synthetic(item.cfg, item.traffic, item.params);
        ckpt::write_file(out_path, encode_point_result(item, res));
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "catnap_sim worker: %s\n", e.what());
        return kExitRuntime;
    }
}

void
print_power(const PowerBreakdown &p, const PowerBreakdown &stat)
{
    std::printf("power        : %.2f W (static %.2f, dynamic %.2f)\n",
                p.total(), stat.total(), p.total() - stat.total());
    std::printf("  buffer %.2f | xbar %.2f | ctrl %.2f | clock %.2f | "
                "link %.2f | NI %.2f | OR-net %.3f\n",
                p.buffer, p.crossbar, p.control, p.clock, p.link, p.ni,
                p.or_net);
}

} // namespace

int
main(int argc, char **argv)
{
    bool app = false;
    MixBuilder workload = light_mix;
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    SyntheticConfig traffic;
    traffic.load = 0.1;
    RunParams rp;
    AppRunParams ap;
    double threshold = -1.0;
    std::string trace_out;
    std::string trace_jsonl;
    std::string snapshot_out = "snapshots.csv";
    std::size_t trace_capacity = EventTrace::kDefaultCapacity;
    Cycle snapshot_every = 0;
    std::vector<double> loads;
    SweepOptions sweep;
    std::string csv_out;
    std::string save_ckpt;
    std::string load_ckpt;
    Cycle ckpt_every = 0;
    std::string worker_spec;
    std::string worker_out;
    // Each fault-event flag and its spec, in cfg.fault.events order.
    std::vector<std::pair<std::string, std::string>> fault_specs;
    const auto fault_event = [&](FaultKind kind) {
        return [&, kind](const std::string &flag, const std::string &spec) {
            fault_specs.emplace_back(flag, spec);
            cfg.fault.events.push_back(parse_fault_event(flag, spec, kind));
        };
    };
    // --warmup, --measure and --seed set a synthetic and an app run alike.
    const auto both = [](std::uint64_t &synthetic, std::uint64_t &app_run,
                         unsigned long long hi) -> FlagSetter {
        return [&synthetic, &app_run, hi](const std::string &flag,
                                          const std::string &v) {
            synthetic = app_run = parse_uint(flag.c_str(), v, hi);
        };
    };
    constexpr unsigned long long kMaxCycles = 1000000000000ull;

    std::vector<Flag> flags = {
        {"--mode", names_of(kModes), "experiment type (default synthetic)",
         store_name(app, kModes), kNetwork},
        {"--subnets", "N", "number of subnets (default 4)",
         store_int(cfg.num_subnets, 1, 16), kNetwork},
        {"--width", "BITS", "aggregate datapath bits (default 512)",
         store_int(cfg.total_link_bits, 1, 1 << 20), kNetwork},
        {"--selector", names_of(kSelectors),
         "subnet selector (default catnap)",
         store_name(cfg.selector, kSelectors), kNetwork},
        {"--gating", names_of(kGatings), "power gating (default catnap)",
         store_name(cfg.gating, kGatings), kNetwork},
        {"--metric", names_of(kMetrics), "congestion metric (default bfm)",
         store_name(cfg.congestion.metric, kMetrics), kNetwork},
        {"--threshold", "X", "congestion threshold (default: the metric's)",
         store_real(threshold, 0.0, 1e9), kNetwork},
        {"--no-rcs", "", "disable the regional OR network",
         store_bool(cfg.congestion.use_rcs, false), kNetwork},
        {"--mesh", "W", "mesh width == height (default 8)",
         [&](const std::string &flag, const std::string &v) {
             // Lower bound 2: a zero- or one-node "mesh" has no links to
             // route over and every pattern degenerates.
             const int w =
                 static_cast<int>(parse_int(flag.c_str(), v, 2, 64));
             cfg.mesh_width = cfg.mesh_height = w;
             cfg.region_width = w >= 8 ? 4 : (w >= 4 ? 2 : 1);
         }, kNetwork},
        {"--warmup", "N", "warm-up cycles",
         both(rp.warmup, ap.warmup, kMaxCycles), kNetwork},
        {"--measure", "N", "measured cycles (at least 1)",
         both(rp.measure, ap.measure, kMaxCycles), kNetwork},
        {"--seed", "N", "RNG seed", both(rp.seed, ap.seed, ~0ull), kNetwork},
        {"--no-vscale", "", "run everything at 0.750 V",
         [&](const std::string &, const std::string &) {
             rp.voltage_scaling = ap.voltage_scaling = false;
         }, kNetwork},
        {"--fault-kill-router", "C:S:N",
         "router death at cycle C, subnet S, node N\n(every event repeats)",
         fault_event(FaultKind::kRouterFailure), kNetwork},
        {"--fault-kill-link", "C:S:N:DIR",
         "dead output link (DIR = " + names_of(kDirections) + ")",
         fault_event(FaultKind::kLinkFailure), kNetwork},
        {"--fault-wake-stuck", "C:S:N", "wake hangs until retries escalate",
         fault_event(FaultKind::kWakeStuck), kNetwork},
        {"--fault-lose-wakes", "C:S:N:DUR", "swallow wake-ups for DUR cycles",
         fault_event(FaultKind::kLostWake), kNetwork},
        {"--fault-delay-wakes", "C:S:N:DUR:DELAY",
         "defer wake-ups by DELAY for DUR cycles",
         fault_event(FaultKind::kDelayedWake), kNetwork},
        {"--fault-rcs-glitch", "C:S:NODE",
         "flip NODE's region's latched RCS bit once",
         fault_event(FaultKind::kRcsGlitch), kNetwork},
        {"--fault-wake-loss-prob", "P", "per-wake loss probability",
         store_real(cfg.fault.wake_loss_prob, 0.0, 1.0), kNetwork},
        {"--fault-rcs-glitch-prob", "P", "per-region RCS glitch probability",
         store_real(cfg.fault.rcs_glitch_prob, 0.0, 1.0), kNetwork},
        {"--fault-seed", "N", "fault RNG stream seed",
         store_uint(cfg.fault.seed), kNetwork},
        {"--fault-wake-timeout", "N", "cycles before a wake is retried",
         store_uint(cfg.fault.tuning.t_wake_timeout, kMaxCycles), kNetwork},
        {"--fault-packet-timeout", "N", "end-to-end deadline per attempt",
         store_uint(cfg.fault.tuning.packet_timeout, kMaxCycles), kNetwork},
        {"--pattern", names_of(kPatterns), "traffic pattern (default uniform)",
         store_name(traffic.pattern, kPatterns), kSynthetic},
        {"--packet-bits", "N", "packet size (default 512)",
         store_int(traffic.packet_bits, 1, 1 << 20), kSynthetic},
        {"--load", "X", "packets/node/cycle (default 0.1)",
         [&](const std::string &flag, const std::string &v) {
             traffic.load = parse_load(flag, v);
         }, kSingleRun},
        {"--save-ckpt", "FILE",
         "checkpoint at the end of warm-up\n(DESIGN.md §13)",
         store_text(save_ckpt), kSingleRun},
        {"--load-ckpt", "FILE",
         "resume from FILE; every other flag must\nmatch the saving run",
         store_text(load_ckpt), kSingleRun},
        {"--ckpt-every", "N", "save every N cycles instead",
         store_uint(ckpt_every, kMaxCycles), kSingleRun, {"--save-ckpt"}},
        {"--trace-out", "FILE", "write Chrome trace-event JSON (Perfetto)",
         store_text(trace_out), kSingleRun},
        {"--trace-jsonl", "FILE", "write the raw event stream as JSONL",
         store_text(trace_jsonl), kSingleRun},
        {"--trace-events", "N",
         "event ring-buffer capacity\n(default 1048576; oldest dropped)",
         store_int(trace_capacity, 1, 1ll << 32), kSingleRun,
         {"--trace-out", "--trace-jsonl"}},
        {"--snapshot-every", "N", "epoch snapshot interval, cycles",
         store_uint(snapshot_every, kMaxCycles), kSingleRun},
        {"--snapshot-out", "FILE", "snapshot CSV (default snapshots.csv)",
         store_text(snapshot_out), kSingleRun, {"--snapshot-every"}},
        {"--workload", names_of(kWorkloads), "Table 3 mix (default light)",
         store_name(workload, kWorkloads), kAppRun},
        {"--worker-spec", "FILE", "run the one point sealed in FILE",
         store_text(worker_spec), kWorkerRun, {"--worker-out"}},
        {"--worker-out", "FILE", "write its sealed result to FILE",
         store_text(worker_out), kWorkerRun, {"--worker-spec"}},
        {"--loads", "A,B,C",
         "sweep offered loads instead of one --load\npoint (DESIGN.md §12)",
         [&](const std::string &flag, const std::string &v) {
             loads = parse_loads(flag, v);
         }, kLoadSweep},
        csv_flag(csv_out, kLoadSweep),
    };
    for (Flag &f : sweep_flags(sweep, kAllSweepFlags, kLoadSweep))
        flags.push_back(std::move(f));
    parse_command_line(
        argc, argv,
        {"catnap_sim -- drive one Catnap Multi-NoC experiment\n"
         "exit: 0 ok, 1 runtime error, 2 usage, 3 bad value, 4 quarantine",
         flags,
         {"single run", "--loads sweep", "--mode app run",
          "worker run (internal; DESIGN.md §15)"},
         [&]() -> std::size_t {
             if (!worker_spec.empty() || !worker_out.empty())
                 return kWorker;
             if (app)
                 return kApp;
             return loads.empty() ? kSingle : kSweep;
         }});

    // Worker mode: the spec file is the whole configuration.
    if (!worker_spec.empty() || !worker_out.empty())
        return run_worker(worker_spec, worker_out);

    // Cross-field checks the per-flag parsers cannot see.
    if (rp.measure == 0)
        die_value("--measure", "0",
                  "measurement phase must be at least 1 cycle");
    if (cfg.total_link_bits % cfg.num_subnets != 0) {
        die_value("--width", std::to_string(cfg.total_link_bits),
                  "the aggregate datapath does not split evenly across " +
                      std::to_string(cfg.num_subnets) + " subnets");
    }
    const int num_nodes = cfg.mesh_width * cfg.mesh_height;
    for (std::size_t e = 0; e < fault_specs.size(); ++e) {
        const FaultEvent &ev = cfg.fault.events[e];
        const auto &[flag, spec] = fault_specs[e];
        if (ev.subnet >= cfg.num_subnets)
            die_value(flag.c_str(), spec,
                      "targets subnet " + std::to_string(ev.subnet) +
                          " of a " + std::to_string(cfg.num_subnets) +
                          "-subnet network");
        if (ev.node >= num_nodes)
            die_value(flag.c_str(), spec,
                      "targets node " + std::to_string(ev.node) + " of a " +
                          std::to_string(num_nodes) + "-node network");
    }
    if (cfg.gating == GatingKind::kFinePort && !cfg.fault.empty()) {
        die_value("--gating", "fineport",
                  "fault injection (--fault-*) needs router-level gating "
                  "(off, idle or catnap); per-port gating has no fault "
                  "model");
    }
    cfg.congestion.threshold =
        threshold >= 0.0
            ? threshold
            : CongestionConfig::default_threshold(cfg.congestion.metric);

    if (app) {
        const int cores =
            cfg.mesh_width * cfg.mesh_height * cfg.concentration;
        if (cores % kMixApps != 0) {
            die_value("--mesh", std::to_string(cfg.mesh_width),
                      "its " + std::to_string(cores) +
                          " cores do not split evenly across a mix's " +
                          std::to_string(kMixApps) + " applications");
        }
        const WorkloadMix mix = workload(cores);
        const AppRunResult r = run_app_workload(cfg, mix, ap);
        std::printf("config       : %s, workload %s (avg MPKI %.1f)\n",
                    r.config_label.c_str(), mix.name.c_str(),
                    mix.average_mpki());
        std::printf("IPC/core     : %.3f\n", r.ipc);
        std::printf("pkt latency  : %.1f cycles\n", r.avg_latency);
        std::printf("CSC          : %.1f %%\n", r.csc_percent);
        std::printf("voltage      : %.3f V\n", r.vdd);
        print_power(r.power, r.power_static);
    } else if (!loads.empty()) {
        // Load sweep: one point per load on the backend the sweep flags
        // select; results arrive in load order, bit-identical across
        // backends and --jobs values (the status line goes to stderr).
        std::vector<RunItem> items;
        items.reserve(loads.size());
        for (const double load : loads) {
            RunItem item{cfg, traffic, rp};
            item.traffic.load = load;
            items.push_back(std::move(item));
        }
        const std::vector<SyntheticResult> rows = sweep_or_exit(items, sweep);
        std::printf("config       : %s (%dx%d mesh, %s selector, %s)\n",
                    rows.front().config_label.c_str(), cfg.mesh_width,
                    cfg.mesh_height, selector_kind_name(cfg.selector),
                    gating_kind_name(cfg.gating));
        std::printf("%-8s %10s %10s %10s %8s %10s\n", "load", "accepted",
                    "lat(cy)", "p99(cy)", "CSC(%)", "power(W)");
        for (const SyntheticResult &r : rows) {
            std::printf("%-8.3f %10.3f %10.1f %10.1f %8.1f %10.2f\n",
                        r.offered_load, r.accepted_rate, r.avg_latency,
                        r.p99_latency, r.csc_percent, r.power.total());
        }
        if (!csv_out.empty()) {
            save_csv(csv_out, rows);
            std::printf("csv          : wrote %zu rows to %s\n",
                        rows.size(), csv_out.c_str());
        }
    } else {
        std::unique_ptr<EventTrace> trace;
        if (!trace_out.empty() || !trace_jsonl.empty())
            trace = std::make_unique<EventTrace>(trace_capacity);
        std::unique_ptr<SnapshotRecorder> snaps;
        if (snapshot_every > 0)
            snaps = std::make_unique<SnapshotRecorder>(snapshot_every);

        std::unique_ptr<SyntheticRun> run;
        try {
            if (!load_ckpt.empty()) {
                run = SyntheticRun::restore_checkpoint(cfg, traffic, rp,
                                                       load_ckpt);
                std::printf("checkpoint   : resumed %s at cycle %llu\n",
                            load_ckpt.c_str(),
                            static_cast<unsigned long long>(run->now()));
            } else {
                run = std::make_unique<SyntheticRun>(cfg, traffic, rp);
            }
            run->set_event_sink(trace.get());
            run->set_snapshots(snaps.get());
            if (ckpt_every > 0)
                run->set_autosave(save_ckpt, ckpt_every);
            run->run_warmup();
            if (!save_ckpt.empty() && ckpt_every == 0) {
                run->save_checkpoint(save_ckpt);
                std::printf(
                    "checkpoint   : wrote %s at end of warm-up "
                    "(cycle %llu)\n",
                    save_ckpt.c_str(),
                    static_cast<unsigned long long>(run->now()));
            }
        } catch (const ckpt::CkptError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        const SyntheticResult r = run->finish();
        std::printf("config       : %s (%dx%d mesh, %s selector, %s)\n",
                    r.config_label.c_str(), cfg.mesh_width, cfg.mesh_height,
                    selector_kind_name(cfg.selector),
                    gating_kind_name(cfg.gating));
        std::printf("traffic      : %s @ %.3f pkts/node/cycle\n",
                    pattern_kind_name(traffic.pattern), traffic.load);
        std::printf("accepted     : %.3f pkts/node/cycle\n",
                    r.accepted_rate);
        std::printf("latency      : %.1f cycles (network %.1f)\n",
                    r.avg_latency, r.avg_net_latency);
        std::printf("CSC          : %.1f %%\n", r.csc_percent);
        std::printf("voltage      : %.3f V\n", r.vdd);
        print_power(r.power, r.power_static);
        if (!cfg.fault.empty()) {
            std::printf("faults       : %llu fired, %llu subnet "
                        "failure(s)\n",
                        static_cast<unsigned long long>(r.faults_fired),
                        static_cast<unsigned long long>(
                            r.subnet_failures));
            std::printf("resilience   : %llu retransmit(s), %llu "
                        "dropped packet(s), drained=%s\n",
                        static_cast<unsigned long long>(r.retransmits),
                        static_cast<unsigned long long>(
                            r.dropped_packets),
                        r.drained ? "yes" : "no");
        }

        if (trace) {
            std::printf("trace        : %llu events recorded, %llu "
                        "dropped\n",
                        static_cast<unsigned long long>(trace->recorded()),
                        static_cast<unsigned long long>(trace->dropped()));
            TraceExportMeta meta;
            meta.num_subnets = cfg.num_subnets;
            meta.num_nodes = cfg.mesh_width * cfg.mesh_height;
            meta.counter_window = 50;
            if (!trace_out.empty()) {
                save_chrome_trace(trace_out, *trace, meta);
                std::printf("trace        : wrote %s (open in Perfetto)\n",
                            trace_out.c_str());
            }
            if (!trace_jsonl.empty()) {
                save_jsonl(trace_jsonl, *trace);
                std::printf("trace        : wrote %s\n",
                            trace_jsonl.c_str());
            }
        }
        if (snaps) {
            save_snapshot_csv(snapshot_out, *snaps);
            std::printf("snapshots    : wrote %zu rows to %s\n",
                        snaps->rows().size(), snapshot_out.c_str());
        }
    }
    return 0;
}
