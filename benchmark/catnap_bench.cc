/**
 * @file
 * catnap_bench: end-to-end and per-layer benchmark of the Catnap
 * simulator (see README.md beside this file).
 *
 *   catnap_bench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *                [--scale F] [--trace-out FILE] [--record FILE]
 *   catnap_bench --self-test
 *
 * --trace 0 measures the end-to-end metrics; --trace 1 measures the
 * per-layer metrics and writes the spans as a Chrome trace. Either way the
 * run checks its outputs, prints every metric with its unit, then one JSON
 * record, and last one line {"correct","attempted","failed","metrics"}.
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.h"

using namespace catnap;
using namespace catnap::benchmark;

namespace {

constexpr const char *kUsage =
    "usage: catnap_bench --workload W [--seed N] [--seconds S] "
    "[--trace 0|1]\n"
    "                    [--scale F] [--trace-out FILE] [--record FILE]\n"
    "       catnap_bench --self-test\n"
    "workloads: lowload_catnap highload_4nt cmp_medium_light fig10_sweep\n";

/** Set-up is timed this many times before each untraced repeat; the
 * median over the run is reported. */
constexpr int kSetupSamples = 5;

/** Fork-replay samples per traced repeat at --scale 1. */
constexpr double kReplaySamples = 1000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 15;
    bool trace = false;
    double scale = 1.0;
    std::string trace_out;
    std::string record;
    bool self_test = false;
};

[[noreturn]] void
usage_error(const std::string &msg)
{
    std::fprintf(stderr, "catnap_bench: %s\n%s", msg.c_str(), kUsage);
    std::exit(2);
}

double
parse_number(const std::string &flag, const std::string &text)
{
    std::size_t pos = 0;
    double v = 0;
    try {
        v = std::stod(text, &pos);
    } catch (const std::exception &) {
        pos = 0;
    }
    if (pos == 0 || pos != text.size() || !std::isfinite(v) || v < 0)
        usage_error(flag + " needs a non-negative number, got '" + text + "'");
    return v;
}

Options
parse_options(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            o.self_test = true;
            continue;
        }
        if (a == "--help" || a == "-h") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        }
        if (i + 1 >= argc)
            usage_error("unknown option or missing value: " + a);
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            if (v.empty() ||
                v.find_first_not_of("0123456789") != std::string::npos ||
                v.size() > 19)
                usage_error("--seed needs an unsigned integer, got '" + v + "'");
            o.seed = std::stoull(v);
        } else if (a == "--seconds") {
            o.seconds = parse_number(a, v);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage_error("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (a == "--scale") {
            o.scale = parse_number(a, v);
            if (o.scale <= 0)
                usage_error("--scale must be positive");
        } else if (a == "--trace-out") {
            o.trace_out = v;
        } else if (a == "--record") {
            o.record = v;
        } else {
            usage_error("unknown option: " + a);
        }
    }
    if (!o.self_test && o.workload.empty())
        usage_error("--workload is required");
    return o;
}

// -- Host metadata ----------------------------------------------------------

std::string
cpu_model()
{
#if defined(__x86_64__) || defined(__i386__)
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        unsigned int regs[12] = {};
        for (unsigned int i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof regs + 1] = {};
        std::memcpy(brand, regs, sizeof regs);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        const auto last = s.find_last_not_of(' ');
        if (first != std::string::npos)
            return s.substr(first, last - first + 1);
    }
#endif
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

// -- Output -------------------------------------------------------------------

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
json_number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    bool listed; ///< named in BENCHMARK.json, so in the last line
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        bool listed = true)
    {
        metrics_.push_back(Metric{name, value, unit, listed});
    }

    std::string
    metrics_json(bool listed_only) const
    {
        std::string out = "{";
        for (const Metric &m : metrics_) {
            if (listed_only && !m.listed)
                continue;
            if (out.size() > 1)
                out += ", ";
            out += json_string(m.name) + ": {\"value\": " +
                   json_number(m.value) + ", \"unit\": " +
                   json_string(m.unit) + "}";
        }
        return out + "}";
    }

    void
    print() const
    {
        for (const Metric &m : metrics_)
            std::printf("%-36s %20.10g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
    }

  private:
    std::vector<Metric> metrics_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
cpu_seconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return tv(u.ru_utime) + tv(u.ru_stime);
}

double
peak_rss_mb()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/**
 * Calls @p fn(i) for i = 0, 1, ... at least @p min_n times, then while
 * one more call, at the median so far, still ends within @p budget_s of
 * the first. @p fn returns the host seconds of the part it times; the
 * result holds one entry per call.
 */
template <typename Fn>
Samples
timed_repeats(double budget_s, std::size_t min_n, Fn &&fn)
{
    Samples walls;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0;; ++i) {
        if (i >= min_n) {
            const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
            if (elapsed + walls.quantile(0.5) > budget_s)
                break;
        }
        walls.add(fn(i));
    }
    return walls;
}

/** Host seconds @p fn takes. */
template <typename Fn>
double
seconds_of(Fn &&fn)
{
    const std::int64_t t0 = now_ns();
    fn();
    return static_cast<double>(now_ns() - t0) / 1e9;
}

struct Run
{
    Options opt;
    Workload w;
    Report report;
    CheckCount checks;
    std::uint64_t digest = 0;
    std::size_t repeats = 0;
    std::size_t traced_repeats = 0;
    Samples repeat_s; ///< host seconds of each untraced repeat
};

/** Untraced: set-up, then timed repeats through the library's own paths. */
void
measure_end_to_end(Run &run)
{
    // Set-up samples are spread over the whole run, so their median sees
    // the same host conditions as the repeats.
    Samples setup, cpu;
    RepeatResult first;
    const Samples walls = timed_repeats(run.opt.seconds, 3, [&](std::size_t i) {
        for (int k = 0; k < kSetupSamples; ++k)
            setup.add(setup_seconds(run.w));
        RepeatResult r;
        const double cpu0 = cpu_seconds();
        const double wall = seconds_of([&] { r = run_repeat(run.w); });
        cpu.add(cpu_seconds() - cpu0);
        check_repeat(run.w, r, i == 0 ? 0 : first.digest, run.checks);
        if (i == 0)
            first = std::move(r);
        return wall;
    });
    // Every repeat does the same deterministic work, so time above the
    // fastest repeat is host interference: the fastest is reported.
    const double wall = walls.quantile(0);
    run.digest = first.digest;
    run.repeats = walls.size();
    run.repeat_s = walls;

    Report &m = run.report;
    m.add("setup_s", setup.quantile(0.5), "s");
    m.add("wall_s", wall, "s");
    m.add("cpu_s", cpu.quantile(0), "s");
    m.add("sim_cycles_per_s", ratio(static_cast<double>(first.cycles), wall),
          "cycles/s");
    m.add("router_cycles_per_s",
          ratio(static_cast<double>(first.router_cycles), wall),
          "router-cycles/s");
    m.add("packets_per_s", ratio(static_cast<double>(first.packets), wall),
          "packets/s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
    if (!run.w.app.empty())
        m.add("instr_per_s",
              ratio(static_cast<double>(first.instructions), wall),
              "instr/s", false);
}

/** Writes @p spans as Chrome-trace JSON, times relative to @p origin_us. */
void
write_chrome_trace(const std::string &path, const std::vector<Span> &spans,
                   double origin_us)
{
    const std::filesystem::path p(path);
    std::error_code ec;
    if (p.has_parent_path())
        std::filesystem::create_directories(p.parent_path(), ec);
    std::ofstream os(path);
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "") << "{\"name\": " << json_string(s.name)
           << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
           << ", \"ts\": " << json_number(s.start_us - origin_us)
           << ", \"dur\": " << json_number(s.dur_us)
           << ", \"args\": {\"repeat\": " << s.repeat
           << ", \"point\": " << s.point << "}}";
    }
    os << "\n]}\n";
    if (!os)
        std::fprintf(stderr, "catnap_bench: cannot write trace %s\n",
                     path.c_str());
}

/**
 * Traced: half the budget on untraced repeats (the reference digest and
 * wall time), half on traced repeats, whose digest must match.
 */
void
measure_layers(Run &run, const std::string &trace_path)
{
    const Workload &w = run.w;
    std::vector<Span> spans;
    const std::int64_t t_run = now_ns();

    // Records repeat @p i, begun at @p t0, as a span; returns its seconds.
    const auto repeat_span = [&spans](const char *name, std::size_t i,
                                      std::int64_t t0) {
        const double dur_us = static_cast<double>(now_ns() - t0) / 1e3;
        spans.push_back(Span{name, 0, static_cast<int>(i), -1,
                             static_cast<double>(t0) / 1e3, dur_us});
        return dur_us / 1e6;
    };

    std::uint64_t ref = 0;
    const Samples plain = timed_repeats(run.opt.seconds / 2, 2, [&](std::size_t i) {
        const std::int64_t t0 = now_ns();
        const RepeatResult r = run_repeat(w);
        const double seconds = repeat_span("repeat.untraced", i, t0);
        check_repeat(w, r, ref, run.checks);
        if (i == 0)
            ref = r.digest;
        return seconds;
    });

    Cycle cycles = 0;
    for (const RunItem &item : w.synthetic)
        cycles += item.params.warmup + item.params.measure;
    for (const AppPoint &p : w.app)
        cycles += p.params.warmup + p.params.measure;
    const double samples =
        std::min(kReplaySamples, std::max(20.0, kReplaySamples * run.opt.scale));
    const auto every = static_cast<Cycle>(
        std::ceil(static_cast<double>(cycles) / samples));

    Profile prof;
    std::vector<PointTiming> timing;
    const Samples traced = timed_repeats(run.opt.seconds / 2, 1, [&](std::size_t i) {
        const std::int64_t t0 = now_ns();
        const RepeatResult r =
            run_traced_repeat(w, every, static_cast<int>(i), prof, timing);
        const double seconds = repeat_span("repeat", i, t0);
        check_repeat(w, r, ref, run.checks);
        return seconds;
    });
    run.digest = ref;
    run.repeats = plain.size();
    run.repeat_s = plain;
    run.traced_repeats = traced.size();

    const auto per_repeat = [&](std::uint64_t count) {
        return static_cast<double>(count) / static_cast<double>(traced.size());
    };
    const Samples &tick = prof.tick_ns.size() ? prof.tick_ns : prof.replay_tick_ns;
    const double tick_p50 = tick.quantile(0.5);
    double replay_sum = 0;
    for (const Samples &s : prof.phase_ns)
        replay_sum += s.quantile(0.5);

    Samples point_s, wait_s;
    for (const PointTiming &t : timing) {
        point_s.add(t.point_s);
        wait_s.add(t.queue_wait_s);
    }

    Report &m = run.report;
    m.add("sim.cycle_us_p50", prof.cycle_ns.quantile(0.5) / 1e3, "us");
    m.add("sim.cycle_us_p99", prof.cycle_ns.quantile(0.99) / 1e3, "us");
    m.add("noc.tick_us_p50", tick_p50 / 1e3, "us");
    m.add("noc.tick_us_p99", tick.quantile(0.99) / 1e3, "us");
    static const char *const kPhaseNames[kNumPhases] = {
        "noc.router_evaluate_us_p50", "noc.ni_evaluate_us_p50",
        "noc.router_commit_us_p50", "noc.ni_commit_us_p50",
        "catnap.congestion_update_us_p50"};
    for (std::size_t p = 0; p < kNumPhases; ++p)
        m.add(kPhaseNames[p], prof.phase_ns[p].quantile(0.5) / 1e3, "us");
    m.add("noc.replay_over_tick", ratio(replay_sum, tick_p50), "ratio");
    m.add("noc.ns_per_router_cycle",
          ratio(prof.tick_total_ns, static_cast<double>(prof.router_cycles)),
          "ns");
    m.add("noc.ns_per_active_router_cycle",
          ratio(prof.tick_total_ns,
                static_cast<double>(prof.active_router_cycles)),
          "ns");
    m.add("noc.ns_per_flit_hop",
          ratio(prof.tick_total_ns, static_cast<double>(prof.flit_hops)), "ns");
    m.add("noc.finalize_accounting_us", prof.finalize_us.quantile(0.5), "us");
    m.add("power.report_us", prof.report_us.quantile(0.5), "us");
    m.add("sim.warmup_s", prof.warmup_s / static_cast<double>(traced.size()),
          "s");
    m.add("sim.measure_s", prof.measure_s / static_cast<double>(traced.size()),
          "s");
    m.add("exec.point_s_p50", point_s.quantile(0.5), "s");
    m.add("exec.point_s_p90", point_s.quantile(0.9), "s");
    m.add("exec.point_s_max", point_s.max(), "s");
    m.add("exec.queue_wait_s_p50", wait_s.quantile(0.5), "s");
    m.add("exec.queue_wait_s_max", wait_s.max(), "s");
    m.add("exec.points", static_cast<double>(w.points()), "count");
    m.add("exec.busy_frac",
          ratio(point_s.sum(), static_cast<double>(w.jobs) * traced.sum()),
          "ratio");
    m.add("trace.overhead_frac",
          ratio(traced.quantile(0), plain.quantile(0)) - 1.0, "ratio");
    m.add("traffic.packets", per_repeat(prof.packets), "count");
    m.add("noc.router_cycles", per_repeat(prof.router_cycles), "count");
    m.add("noc.router_active_frac",
          ratio(static_cast<double>(prof.active_router_cycles),
                static_cast<double>(prof.router_cycles)),
          "ratio");
    m.add("noc.flit_hops", per_repeat(prof.flit_hops), "count");
    m.add("noc.buffer_writes", per_repeat(prof.buffer_writes), "count");
    m.add("noc.sleep_transitions", per_repeat(prof.sleep_transitions), "count");
    for (std::size_t s = 0; s < prof.subnet_sleep.size(); ++s)
        m.add("noc.subnet_sleep_frac.s" + std::to_string(s),
              ratio(static_cast<double>(prof.subnet_sleep[s]),
                    static_cast<double>(prof.subnet_cycles[s])),
              "ratio");
    m.add("noc.drain_cycles", per_repeat(prof.drain_cycles), "count");
    m.add("app.retired_instr", per_repeat(prof.retired), "count");
    m.add("app.misses_completed", per_repeat(prof.misses), "count");

    // Layers only some workloads have: in the record, not the last line.
    if (prof.step_ns.size()) {
        m.add("traffic.step_us_p50", prof.step_ns.quantile(0.5) / 1e3, "us",
              false);
        m.add("traffic.step_us_p99", prof.step_ns.quantile(0.99) / 1e3, "us",
              false);
        m.add("sim.drain_s", prof.drain_s / static_cast<double>(traced.size()),
              "s", false);
    }
    if (!w.app.empty()) {
        m.add("app.tick_us_p50", prof.cycle_ns.quantile(0.5) / 1e3, "us", false);
        m.add("app.tick_us_p99", prof.cycle_ns.quantile(0.99) / 1e3, "us",
              false);
    }
    m.add("noc.replay_samples",
          static_cast<double>(prof.phase_ns[0].size()), "count", false);

    const double origin_us = static_cast<double>(t_run) / 1e3;
    spans.push_back(Span{"workload", 0, -1, -1, origin_us,
                         static_cast<double>(now_ns() - t_run) / 1e3});
    spans.insert(spans.end(), prof.spans.begin(), prof.spans.end());
    write_chrome_trace(trace_path, spans, origin_us);
}

std::string
record_json(const Run &run)
{
    const Options &o = run.opt;
    const char *rev = std::getenv("CATNAP_BENCH_GIT_REV");
    char digest_hex[24];
    std::snprintf(digest_hex, sizeof digest_hex, "0x%016llx",
                  static_cast<unsigned long long>(run.digest));
    std::string out = "{\"schema\": \"catnap-bench-v1\"";
    out += ", \"workload\": " + json_string(o.workload);
    out += ", \"seed\": " + std::to_string(o.seed);
    out += ", \"scale\": " + json_number(o.scale);
    out += ", \"seconds\": " + json_number(o.seconds);
    out += ", \"trace\": " + std::string(o.trace ? "1" : "0");
    out += ", \"repeats\": " + std::to_string(run.repeats);
    out += ", \"traced_repeats\": " + std::to_string(run.traced_repeats);
    out += ", \"repeat_s\": [";
    for (std::size_t i = 0; i < run.repeat_s.size(); ++i)
        out += (i ? ", " : "") + json_number(run.repeat_s.values()[i]);
    out += "]";
    out += ", \"host\": {\"nproc\": " +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ", \"cpu\": " + json_string(cpu_model()) +
           ", \"compiler\": " + json_string(compiler()) +
           ", \"build_type\": " + json_string(CATNAP_BENCH_BUILD_TYPE) +
           ", \"git_rev\": " + json_string(rev && *rev ? rev : "unknown") +
           "}";
    out += ", \"sim_digest\": " + json_string(digest_hex);
    out += ", \"attempted\": " + std::to_string(run.checks.attempted);
    out += ", \"failed\": " + std::to_string(run.checks.failed);
    out += ", \"failed_frac\": " +
           json_number(ratio(static_cast<double>(run.checks.failed),
                             static_cast<double>(run.checks.attempted)));
    out += ", \"metrics\": " + run.report.metrics_json(false) + "}";
    return out;
}

// -- Self-test ------------------------------------------------------------------

/**
 * Feeds hand-made bad results to the checks and asserts each is counted,
 * then pins the benchmark's own run loops to the library's run paths.
 */
int
self_test()
{
    int checks = 0, failures = 0;
    const auto expect = [&](bool ok, const char *what) {
        ++checks;
        failures += ok ? 0 : 1;
        std::printf("%s %s\n", ok ? "ok    " : "FAILED", what);
    };

    const Workload low = make_workload("lowload_catnap", 7, 0.05);
    const RunItem &item = low.synthetic[0];
    SyntheticResult good;
    good.offered_load = item.traffic.load;
    good.accepted_rate = item.traffic.load;
    SyntheticResult undrained = good;
    undrained.drained = false;
    SyntheticResult dropped = good;
    dropped.dropped_packets = 1;
    RunItem at_010 = item;
    at_010.traffic.load = 0.10;
    SyntheticResult off_load = good;
    off_load.offered_load = 0.10;
    off_load.accepted_rate = 0.01;
    RunItem at_040 = item;
    at_040.traffic.load = 0.40;
    SyntheticResult saturated = good;
    saturated.offered_load = 0.40;
    saturated.accepted_rate = 0.37;
    expect(check_point(good, item) == 0, "a drained point at its load passes");
    expect(check_point(undrained, item) == 1, "an undrained point is counted");
    expect(check_point(dropped, item) == 1, "dropped packets are counted");
    expect(check_point(off_load, at_010) == 1,
           "accepting 0.01 of an offered 0.10 is counted");
    expect(check_point(saturated, at_040) == 0,
           "a saturated point above 0.30 is not load-checked");

    AppRunResult app;
    app.ipc = 0.9;
    expect(check_point(app, 2) == 0, "an IPC within the issue width passes");
    app.ipc = 0.0;
    expect(check_point(app, 2) == 1, "a zero IPC is counted");
    app.ipc = 2.5;
    expect(check_point(app, 2) == 1, "an IPC above the issue width is counted");

    RepeatResult hand;
    hand.synthetic = {good};
    hand.digest = 42;
    CheckCount c;
    check_repeat(low, hand, 43, c);
    expect(c.attempted == 2 && c.failed == 1, "a digest mismatch is counted");
    c = {};
    check_repeat(low, hand, 42, c);
    expect(c.attempted == 2 && c.failed == 0, "a matching digest passes");

    // The benchmark's run loops against the library's own entry points.
    const Workload sweep = [] {
        Workload s = make_workload("fig10_sweep", 7, 0.05);
        s.synthetic = {s.synthetic.front(), s.synthetic.back()};
        s.jobs = 2;
        return s;
    }();
    const Workload cmp = make_workload("cmp_medium_light", 7, 0.05);
    for (const Workload *w : {&low, &cmp, &sweep}) {
        RepeatResult lib;
        for (const RunItem &i : w->synthetic)
            lib.synthetic.push_back(run_synthetic(i.cfg, i.traffic, i.params));
        for (const AppPoint &p : w->app)
            lib.app.push_back(run_app_workload(p.cfg, p.mix, p.params));
        const RepeatResult plain = run_repeat(*w);
        Profile prof;
        std::vector<PointTiming> timing;
        const RepeatResult traced = run_traced_repeat(*w, 97, 0, prof, timing);
        const std::string what = w->name + ": untraced and traced digests "
                                           "equal the library's run";
        expect(digest(lib) == plain.digest && plain.digest == traced.digest,
               what.c_str());
        CheckCount ok;
        check_repeat(*w, plain, 0, ok);
        expect(ok.failed == 0, (w->name + ": outputs pass their checks").c_str());
    }

    std::printf("self-test: %d checks, %d failed\n", checks, failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse_options(argc, argv);
    if (opt.self_test)
        return self_test();

    Run run;
    run.opt = opt;
    try {
        run.w = make_workload(opt.workload, opt.seed, opt.scale);
    } catch (const std::invalid_argument &e) {
        usage_error(e.what());
    }

    try {
        if (opt.trace) {
            std::string path = opt.trace_out;
            if (path.empty()) {
                const std::filesystem::path exe(argv[0]);
                path = (exe.parent_path() / "traces" /
                        (opt.workload + ".json"))
                           .string();
            }
            measure_layers(run, path);
        } else {
            measure_end_to_end(run);
        }
    } catch (const std::exception &e) {
        // A simulation that throws has no result to report.
        std::fprintf(stderr, "catnap_bench: %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }

    std::printf("workload %s  seed %llu  scale %g  repeats %zu  "
                "checks %llu/%llu failed\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.scale, run.repeats + run.traced_repeats,
                static_cast<unsigned long long>(run.checks.failed),
                static_cast<unsigned long long>(run.checks.attempted));
    run.report.print();
    const std::string record = record_json(run);
    std::printf("%s\n", record.c_str());
    if (!opt.record.empty()) {
        std::ofstream os(opt.record, std::ios::app);
        os << record << '\n';
        if (!os) {
            std::fprintf(stderr, "catnap_bench: cannot append to %s\n",
                         opt.record.c_str());
            return 1;
        }
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                run.checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(run.checks.attempted),
                static_cast<unsigned long long>(run.checks.failed),
                run.report.metrics_json(true).c_str());
    return 0;
}
