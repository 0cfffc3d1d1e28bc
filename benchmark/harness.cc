#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ckpt/checkpoint.h"
#include "sim/report.h"

namespace catnap::benchmark {

std::int64_t
now_ns()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
ns_since(std::int64_t t0)
{
    return static_cast<double>(now_ns() - t0);
}

Cycle
scaled(Cycle cycles, double scale)
{
    return std::max<Cycle>(
        1, static_cast<Cycle>(std::llround(static_cast<double>(cycles) * scale)));
}

RunItem
synthetic_point(const MultiNocConfig &cfg, double load, Cycle measure,
                std::uint64_t seed)
{
    RunItem item;
    item.cfg = cfg;
    item.traffic.load = load; // uniform random, 512-bit packets
    item.params.warmup = 1500;
    item.params.measure = measure;
    item.params.drain_max = 6000;
    item.params.seed = seed;
    return item;
}

} // namespace

// Window sizes give one repeat of about 1.1-1.4 s (3 s for the sweep on
// four threads) on a 4-CPU x86 host, so a 15 s run takes at least four
// repeats of every workload.
Workload
make_workload(const std::string &name, std::uint64_t seed, double scale)
{
    Workload w;
    w.name = name;
    if (name == "lowload_catnap") {
        // Fig. 10's low-load regime: 3 of 4 subnets asleep.
        w.synthetic.push_back(
            synthetic_point(multi_noc_config(4, GatingKind::kCatnap), 0.02,
                            scaled(30000, scale), seed));
    } else if (name == "highload_4nt") {
        // Every router busy: per-flit work dominates, nothing sleeps.
        w.synthetic.push_back(synthetic_point(
            multi_noc_config(4, GatingKind::kAlwaysOn,
                             SelectorKind::kRoundRobin),
            0.30, scaled(3000, scale), seed));
    } else if (name == "cmp_medium_light") {
        // Closed loop, 4 message classes, frequent sleep/wake churn.
        AppPoint p;
        p.cfg = multi_noc_config(4, GatingKind::kCatnap);
        p.mix = medium_light_mix();
        p.params.warmup = 5000;
        p.params.measure = scaled(12000, scale);
        p.params.seed = seed;
        w.app.push_back(std::move(p));
    } else if (name == "fig10_sweep") {
        // The fig10 grid through the exec layer; measure shortened from
        // the figure's 5000 cycles so several repeats fit in one run.
        const std::vector<MultiNocConfig> configs = {
            single_noc_config(512),
            multi_noc_config(4, GatingKind::kAlwaysOn,
                             SelectorKind::kRoundRobin),
            single_noc_config(512, GatingKind::kIdle),
            multi_noc_config(4, GatingKind::kCatnap),
        };
        const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10, 0.15,
                                           0.20, 0.25, 0.30, 0.40};
        for (const MultiNocConfig &cfg : configs)
            for (double load : loads)
                w.synthetic.push_back(
                    synthetic_point(cfg, load, scaled(1000, scale), seed));
        w.jobs = std::min(4, ThreadPool::default_jobs());
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

// -- Samples and profile ----------------------------------------------------

double
Samples::sum() const
{
    double s = 0;
    for (double x : v_)
        s += x;
    return s;
}

double
Samples::mean() const
{
    return v_.empty() ? 0.0 : sum() / static_cast<double>(v_.size());
}

double
Samples::quantile(double q) const
{
    if (v_.empty())
        return 0.0;
    std::vector<double> sorted = v_;
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    const std::size_t k = std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0);
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<std::ptrdiff_t>(k),
                     sorted.end());
    return sorted[k];
}

void
Profile::merge(const Profile &o)
{
    cycle_ns.append(o.cycle_ns);
    step_ns.append(o.step_ns);
    tick_ns.append(o.tick_ns);
    replay_tick_ns.append(o.replay_tick_ns);
    for (std::size_t p = 0; p < phase_ns.size(); ++p)
        phase_ns[p].append(o.phase_ns[p]);
    finalize_us.append(o.finalize_us);
    report_us.append(o.report_us);
    warmup_s += o.warmup_s;
    measure_s += o.measure_s;
    drain_s += o.drain_s;
    tick_total_ns += o.tick_total_ns;
    router_cycles += o.router_cycles;
    active_router_cycles += o.active_router_cycles;
    flit_hops += o.flit_hops;
    buffer_writes += o.buffer_writes;
    sleep_transitions += o.sleep_transitions;
    drain_cycles += o.drain_cycles;
    packets += o.packets;
    retired += o.retired;
    misses += o.misses;
    for (std::size_t s = 0; s < subnet_sleep.size(); ++s) {
        subnet_sleep[s] += o.subnet_sleep[s];
        subnet_cycles[s] += o.subnet_cycles[s];
    }
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
}

// -- Digest and checks ------------------------------------------------------

std::uint64_t
digest(const RepeatResult &r)
{
    std::ostringstream os;
    os.precision(17);
    if (!r.synthetic.empty())
        write_csv(os, r.synthetic);
    if (!r.app.empty())
        write_csv(os, r.app);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : os.str()) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

int
check_point(const SyntheticResult &r, const RunItem &item)
{
    int failed = 0;
    if (!r.drained)
        ++failed;
    if (r.dropped_packets != 0)
        ++failed;
    // Below saturation the network must deliver what was offered. The
    // tolerance is 5% plus four binomial standard deviations of the
    // window's packet count, so short windows do not fail on noise.
    const double offered = item.traffic.load;
    if (offered <= 0.30) {
        const double node_cycles =
            static_cast<double>(item.cfg.mesh_width * item.cfg.mesh_height) *
            static_cast<double>(item.params.measure);
        const double tol =
            0.05 * offered + 4.0 * std::sqrt(offered / node_cycles);
        if (!(std::fabs(r.accepted_rate - offered) <= tol))
            ++failed;
    }
    return failed;
}

int
check_point(const AppRunResult &r, int issue_width)
{
    return r.ipc > 0.0 && r.ipc <= static_cast<double>(issue_width) ? 0 : 1;
}

void
check_repeat(const Workload &w, const RepeatResult &r, std::uint64_t ref,
             CheckCount &c)
{
    for (std::size_t i = 0; i < r.synthetic.size(); ++i)
        c.add(check_point(r.synthetic[i], w.synthetic[i]));
    for (const AppRunResult &a : r.app)
        c.add(check_point(a, SystemParams().issue_width));
    if (ref != 0)
        c.add(r.digest != ref ? 1 : 0);
}

// -- Run loops ----------------------------------------------------------------

namespace {

/** Where a traced point records its samples and spans. */
struct Tracer
{
    Profile &prof;
    Cycle replay_every;
    int tid;
    int repeat;
    int point;

    void
    span(const char *name, std::int64_t t0)
    {
        prof.spans.push_back(Span{name, tid, repeat, point,
                                  static_cast<double>(t0) / 1e3,
                                  ns_since(t0) / 1e3});
    }
};

/**
 * Forks the live network and times each tick phase on the fork, in
 * tick order. With @p full_tick, a second fork times a whole
 * MultiNoc::tick. The live network is only read.
 */
void
replay(const MultiNoc &net, bool full_tick, Tracer &tr)
{
    const std::int64_t t_span = now_ns();
    {
        const std::unique_ptr<MultiNoc> f = ckpt::Fork(net);
        const Cycle now = f->now();
        const int subnets = f->num_subnets();
        const int nodes = f->num_nodes();
        std::array<std::int64_t, kNumPhases + 1> t{};
        t[0] = now_ns();
        for (SubnetId s = 0; s < subnets; ++s)
            for (NodeId n = 0; n < nodes; ++n)
                f->router(s, n).evaluate(now);
        t[1] = now_ns();
        for (NodeId n = 0; n < nodes; ++n)
            f->ni(n).evaluate(now);
        t[2] = now_ns();
        for (SubnetId s = 0; s < subnets; ++s)
            for (NodeId n = 0; n < nodes; ++n)
                f->router(s, n).commit(now);
        t[3] = now_ns();
        for (NodeId n = 0; n < nodes; ++n)
            f->ni(n).commit(now);
        t[4] = now_ns();
        f->congestion().update(now);
        t[5] = now_ns();
        for (std::size_t p = 0; p < kNumPhases; ++p)
            tr.prof.phase_ns[p].add(static_cast<double>(t[p + 1] - t[p]));
    }
    if (full_tick) {
        const std::unique_ptr<MultiNoc> f = ckpt::Fork(net);
        const std::int64_t t0 = now_ns();
        f->tick();
        tr.prof.replay_tick_ns.add(ns_since(t0));
    }
    tr.span("replay", t_span);
}

/** Adds the network's activity counters over its whole run. */
void
count_network(const MultiNoc &net, Cycle drain_cycles, Profile &prof)
{
    const auto subnets = static_cast<std::uint64_t>(net.num_subnets());
    const auto nodes = static_cast<std::uint64_t>(net.num_nodes());
    const ActivityCounters a = net.total_activity();
    prof.router_cycles += net.now() * subnets * nodes;
    prof.active_router_cycles += a.active_cycles;
    prof.flit_hops += a.xbar_traversals;
    prof.buffer_writes += a.buffer_writes;
    prof.sleep_transitions += a.sleep_transitions;
    prof.drain_cycles += drain_cycles;
    prof.packets += net.metrics().offered_packets();
    for (SubnetId s = 0;
         s < net.num_subnets() && s < static_cast<int>(prof.subnet_sleep.size());
         ++s) {
        const ActivityCounters sa = net.subnet_activity(s);
        prof.subnet_sleep[static_cast<std::size_t>(s)] += sa.sleep_cycles;
        prof.subnet_cycles[static_cast<std::size_t>(s)] +=
            sa.active_cycles + sa.sleep_cycles;
    }
}

/** Adds @p cycles of @p item, and its delivered packets, to @p out. */
void
count_synthetic(const RunItem &item, Cycle cycles, RepeatResult &out)
{
    out.cycles += cycles;
    out.router_cycles +=
        cycles * static_cast<std::uint64_t>(item.cfg.num_subnets) *
        static_cast<std::uint64_t>(item.cfg.mesh_width * item.cfg.mesh_height);
    out.packets += out.synthetic.back().measured_packets;
}

/**
 * One synthetic point driven cycle by cycle from public calls: the same
 * statements, in the same order, as SyntheticRun (warm-up, measure,
 * finalize, report, drain), with every layer timed.
 */
SyntheticResult
traced_synthetic(const RunItem &item, Tracer &tr)
{
    Profile &prof = tr.prof;
    MultiNocConfig cfg = item.cfg;
    cfg.seed = item.params.seed;
    const RunParams &rp = item.params;

    MultiNoc net(cfg);
    SyntheticTraffic gen(&net, item.traffic, rp.seed ^ 0xabcdef12345ULL);
    net.metrics().set_measurement_window(rp.warmup, rp.warmup + rp.measure);
    const double vdd = config_vdd(cfg, rp);
    PowerMeter meter(net, vdd);

    const auto cycle = [&](bool generate) {
        const Cycle now = net.now();
        const std::int64_t t0 = now_ns();
        if (generate)
            gen.step(now);
        const std::int64_t t1 = now_ns();
        if (now % tr.replay_every == 0)
            replay(net, false, tr);
        const std::int64_t t2 = now_ns();
        net.tick();
        const auto tick = static_cast<double>(now_ns() - t2);
        const auto step = static_cast<double>(t1 - t0);
        if (generate)
            prof.step_ns.add(step);
        prof.tick_ns.add(tick);
        prof.cycle_ns.add(step + tick);
    };

    std::int64_t t = now_ns();
    while (net.now() < rp.warmup)
        cycle(true);
    prof.warmup_s += ns_since(t) / 1e9;
    tr.span("warmup", t);

    const Cycle m_end = rp.warmup + rp.measure;
    meter.begin();
    const std::uint64_t offered0 = net.metrics().offered_packets();
    const std::uint64_t ejected0 = net.metrics().ejected_packets();
    t = now_ns();
    while (net.now() < m_end)
        cycle(true);
    prof.measure_s += ns_since(t) / 1e9;
    tr.span("measure", t);

    t = now_ns();
    net.finalize_accounting();
    prof.finalize_us.add(ns_since(t) / 1e3);
    const std::uint64_t offered1 = net.metrics().offered_packets();
    const std::uint64_t ejected1 = net.metrics().ejected_packets();

    SyntheticResult res;
    res.config_label = cfg.label();
    res.offered_load = item.traffic.load;
    res.vdd = vdd;
    t = now_ns();
    res.power = meter.report();
    res.power_static = meter.report_static();
    res.csc_percent = meter.csc_percent();
    prof.report_us.add(ns_since(t) / 1e3);

    const double node_cycles = static_cast<double>(rp.measure) *
                               static_cast<double>(net.num_nodes());
    res.offered_rate = static_cast<double>(offered1 - offered0) / node_cycles;
    res.accepted_rate =
        static_cast<double>(ejected1 - ejected0) / node_cycles;

    t = now_ns();
    const Cycle drain_start = net.now();
    const Cycle drain_end = drain_start + rp.drain_max;
    while (net.now() < drain_end && !net.quiescent())
        cycle(false);
    res.drained = net.quiescent();
    prof.drain_s += ns_since(t) / 1e9;
    tr.span("drain", t);

    res.retransmits = net.metrics().retransmits();
    res.dropped_packets = net.metrics().dropped_packets();
    res.avg_latency = net.metrics().total_latency().mean();
    res.avg_net_latency = net.metrics().network_latency().mean();
    res.p50_latency = net.metrics().latency_histogram().quantile(0.50);
    res.p99_latency = net.metrics().latency_histogram().quantile(0.99);
    res.measured_packets = net.metrics().total_latency().count();

    prof.tick_total_ns += prof.tick_ns.sum();
    count_network(net, net.now() - drain_start, prof);
    return res;
}

/** The CMP of @p p, seeded the way run_app_workload() seeds it. */
std::unique_ptr<CmpSystem>
make_system(const AppPoint &p)
{
    MultiNocConfig cfg = p.cfg;
    cfg.seed = p.params.seed;
    SystemParams sp;
    sp.seed = p.params.seed;
    return std::make_unique<CmpSystem>(cfg, p.mix, sp);
}

/**
 * One closed-loop CMP point: the statements of run_app_workload(), with
 * the simulation advanced by CmpSystem::run, or tick by tick and timed
 * when @p tr is non-null. Appends the result and its counts to @p out.
 */
void
app_point(const AppPoint &p, Tracer *tr, RepeatResult &out)
{
    const std::unique_ptr<CmpSystem> sys = make_system(p);
    CmpSystem &system = *sys;
    const MultiNocConfig &cfg = system.net().config();

    RunParams rp;
    rp.voltage_scaling = p.params.voltage_scaling;
    const double vdd = config_vdd(cfg, rp);
    system.net().metrics().set_measurement_window(
        p.params.warmup, p.params.warmup + p.params.measure);

    const auto advance = [&](Cycle cycles, const char *phase,
                             double &phase_s) {
        if (tr == nullptr) {
            system.run(cycles);
            return;
        }
        const std::int64_t t = now_ns();
        for (Cycle i = 0; i < cycles; ++i) {
            if (system.net().now() % tr->replay_every == 0)
                replay(system.net(), true, *tr);
            const std::int64_t t0 = now_ns();
            system.tick();
            tr->prof.cycle_ns.add(ns_since(t0));
        }
        phase_s += ns_since(t) / 1e9;
        tr->span(phase, t);
    };

    double unused_s = 0;
    Profile *prof = tr ? &tr->prof : nullptr;
    advance(p.params.warmup, "warmup", prof ? prof->warmup_s : unused_s);
    PowerMeter meter(system.net(), vdd);
    meter.begin();
    const std::uint64_t retired0 = system.total_retired();
    advance(p.params.measure, "measure", prof ? prof->measure_s : unused_s);

    std::int64_t t = now_ns();
    system.net().finalize_accounting();
    if (prof)
        prof->finalize_us.add(ns_since(t) / 1e3);

    AppRunResult res;
    res.config_label = cfg.label();
    res.workload = p.mix.name;
    res.ipc = static_cast<double>(system.total_retired() - retired0) /
              static_cast<double>(p.params.measure) /
              static_cast<double>(system.net().mesh().num_cores());
    res.avg_latency = system.net().metrics().total_latency().mean();
    res.vdd = vdd;
    t = now_ns();
    res.csc_percent = meter.csc_percent();
    res.power = meter.report();
    res.power_static = meter.report_static();
    if (prof)
        prof->report_us.add(ns_since(t) / 1e3);

    const MultiNoc &net = system.net();
    out.cycles += net.now();
    out.router_cycles += net.now() *
                         static_cast<std::uint64_t>(net.num_subnets()) *
                         static_cast<std::uint64_t>(net.num_nodes());
    out.packets += net.metrics().total_latency().count();
    out.instructions += system.total_retired() - retired0;
    if (prof) {
        prof->tick_total_ns +=
            prof->replay_tick_ns.mean() * static_cast<double>(net.now());
        prof->retired += system.total_retired();
        prof->misses += system.misses_completed();
        count_network(net, 0, *prof);
    }
    out.app.push_back(std::move(res));
}

} // namespace

double
setup_seconds(const Workload &w)
{
    // Objects are built one at a time and destroyed outside the timed
    // span, so measuring set-up never raises the peak footprint.
    double ns = 0;
    for (const RunItem &item : w.synthetic) {
        const std::int64_t t0 = now_ns();
        auto run = std::make_unique<SyntheticRun>(item.cfg, item.traffic,
                                                  item.params);
        ns += ns_since(t0);
    }
    for (const AppPoint &p : w.app) {
        const std::int64_t t0 = now_ns();
        const std::unique_ptr<CmpSystem> sys = make_system(p);
        ns += ns_since(t0);
    }
    if (w.synthetic.size() > 1) {
        const std::int64_t t0 = now_ns();
        ThreadPool pool(w.jobs);
        ns += ns_since(t0);
    }
    return ns / 1e9;
}

RepeatResult
run_repeat(const Workload &w)
{
    RepeatResult out;
    for (const AppPoint &p : w.app)
        app_point(p, nullptr, out);
    if (w.synthetic.size() == 1) {
        const RunItem &item = w.synthetic[0];
        SyntheticRun run(item.cfg, item.traffic, item.params);
        run.run_warmup();
        out.synthetic.push_back(run.finish());
        count_synthetic(item, run.now(), out); // drain included
    } else if (!w.synthetic.empty()) {
        // run_batch hides drain length: a sweep counts warm-up + measure.
        ExecOptions eo;
        eo.jobs = w.jobs;
        const std::vector<SyntheticResult> results = run_batch(w.synthetic, eo);
        for (std::size_t i = 0; i < results.size(); ++i) {
            const RunItem &item = w.synthetic[i];
            out.synthetic.push_back(results[i]);
            count_synthetic(item, item.params.warmup + item.params.measure, out);
        }
    }
    out.digest = digest(out);
    return out;
}

RepeatResult
run_traced_repeat(const Workload &w, Cycle replay_every, int repeat,
                  Profile &prof, std::vector<PointTiming> &timing)
{
    struct PointOut
    {
        RepeatResult part;
        Profile prof;
        PointTiming timing;
    };

    ExecOptions eo;
    eo.jobs = w.jobs;
    SweepRunner runner(eo);
    const std::int64_t t_map = now_ns();
    std::vector<PointOut> outs = runner.map<PointOut>(
        w.points(), [&](std::size_t i) {
            PointOut o;
            const std::int64_t t0 = now_ns();
            Tracer tr{o.prof, replay_every, ThreadPool::current_worker() + 1,
                      repeat, static_cast<int>(i)};
            if (i < w.app.size())
                app_point(w.app[i], &tr, o.part);
            else
                o.part.synthetic.push_back(
                    traced_synthetic(w.synthetic[i - w.app.size()], tr));
            o.timing.queue_wait_s = static_cast<double>(t0 - t_map) / 1e9;
            o.timing.point_s = ns_since(t0) / 1e9;
            tr.span("point", t0);
            return o;
        });

    RepeatResult out;
    for (PointOut &o : outs) {
        out.app.insert(out.app.end(), o.part.app.begin(), o.part.app.end());
        out.synthetic.insert(out.synthetic.end(), o.part.synthetic.begin(),
                             o.part.synthetic.end());
        prof.merge(o.prof);
        timing.push_back(o.timing);
    }
    out.digest = digest(out);
    return out;
}

} // namespace catnap::benchmark
