/**
 * @file
 * Workloads, simulation run loops, output checks and the per-layer profile
 * of the simulator benchmark.
 *
 * Everything here calls the catnap library only through its public entry
 * points (SyntheticRun, run_batch, SweepRunner, CmpSystem, MultiNoc,
 * SyntheticTraffic, PowerMeter, ckpt::Fork), so the library's internals
 * can change without touching the benchmark. Simulated time is counted in
 * cycles; every duration is host time from std::chrono::steady_clock.
 */
#ifndef CATNAP_BENCHMARK_HARNESS_H
#define CATNAP_BENCHMARK_HARNESS_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "app/system.h"
#include "exec/sweep_runner.h"

namespace catnap::benchmark {

/** Host nanoseconds on the monotonic clock. */
std::int64_t now_ns();

/** One closed-loop CMP point. */
struct AppPoint
{
    MultiNocConfig cfg;
    WorkloadMix mix;
    AppRunParams params;
};

/** A named set of simulation points run together as one repeat. */
struct Workload
{
    std::string name;
    std::vector<RunItem> synthetic; ///< open-loop points (or empty)
    std::vector<AppPoint> app;      ///< closed-loop points (or empty)
    int jobs = 1;                   ///< worker threads for the points

    std::size_t points() const { return synthetic.size() + app.size(); }
};

/**
 * Builds workload @p name with every simulation seed taken from @p seed
 * and every measurement window multiplied by @p scale. Throws
 * std::invalid_argument for an unknown name.
 */
Workload make_workload(const std::string &name, std::uint64_t seed,
                       double scale);

/** Order statistics over a sample set. */
class Samples
{
  public:
    void add(double x) { v_.push_back(x); }
    void append(const Samples &o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
    std::size_t size() const { return v_.size(); }
    double sum() const;
    double mean() const;
    /** Nearest-rank quantile, 0 for an empty set. */
    double quantile(double q) const;
    double max() const { return quantile(1.0); }
    const std::vector<double> &values() const { return v_; }

  private:
    std::vector<double> v_;
};

/** A host-time interval for the Chrome trace, in steady-clock
 * microseconds. */
struct Span
{
    const char *name;
    int tid;   ///< 0 = benchmark thread, w + 1 = pool worker w
    int repeat;
    int point; ///< -1 when the span is not inside one point
    double start_us;
    double dur_us;
};

/** The tick phases timed by fork replay, in tick order. */
enum Phase { kRouterEvaluate, kNiEvaluate, kRouterCommit, kNiCommit,
             kCongestionUpdate, kNumPhases };

/** Per-layer measurements of traced points; merge() pools them. */
struct Profile
{
    // Live host time per simulated cycle, nanoseconds.
    Samples cycle_ns; ///< whole model: traffic step + network tick
    Samples step_ns;  ///< SyntheticTraffic::step (open-loop points)
    Samples tick_ns;  ///< MultiNoc::tick, live (open-loop points)
    /** MultiNoc::tick replayed on a fork (closed-loop points, whose
     * network tick runs inside CmpSystem::tick). */
    Samples replay_tick_ns;
    std::array<Samples, kNumPhases> phase_ns;
    Samples finalize_us; ///< MultiNoc::finalize_accounting per point
    Samples report_us;   ///< report + report_static + csc_percent
    double warmup_s = 0, measure_s = 0, drain_s = 0;
    /** Estimated total MultiNoc::tick time: the live sum, or the mean
     * replayed tick times the tick count. */
    double tick_total_ns = 0;

    // Deterministic counts over whole points (warm-up to drain).
    std::uint64_t router_cycles = 0, active_router_cycles = 0;
    std::uint64_t flit_hops = 0, buffer_writes = 0, sleep_transitions = 0;
    std::uint64_t drain_cycles = 0, packets = 0, retired = 0, misses = 0;
    std::array<std::uint64_t, 4> subnet_sleep{}, subnet_cycles{};

    std::vector<Span> spans;

    void merge(const Profile &o);
};

/** What one repeat of a workload produced. The counts are filled by
 * run_repeat() only. */
struct RepeatResult
{
    std::vector<SyntheticResult> synthetic;
    std::vector<AppRunResult> app;
    std::uint64_t digest = 0;        ///< see digest()
    std::uint64_t cycles = 0;        ///< simulated cycles executed
    std::uint64_t router_cycles = 0; ///< cycles x subnets x routers
    std::uint64_t packets = 0;       ///< measurement-window packets delivered
    std::uint64_t instructions = 0;  ///< retired in the measurement window
};

/** Runs one repeat, untraced, through the library's own paths. */
RepeatResult run_repeat(const Workload &w);

/** Per-point host times of a traced repeat. */
struct PointTiming
{
    double queue_wait_s = 0; ///< map() call to point start
    double point_s = 0;
};

/**
 * Runs one repeat with every layer timed: points go through
 * SweepRunner::map with the workload's jobs, each driven cycle by cycle
 * from public calls, with the network forked and its tick phases replayed
 * every @p replay_every cycles. Samples and spans are added to @p prof,
 * per-point times to @p timing. The digest equals run_repeat()'s.
 */
RepeatResult run_traced_repeat(const Workload &w, Cycle replay_every,
                               int repeat, Profile &prof,
                               std::vector<PointTiming> &timing);

/** Host seconds run_repeat() spends constructing nets, generators,
 * meters and the pool before the first simulated cycle. */
double setup_seconds(const Workload &w);

/** FNV-1a 64 of the results' write_csv bytes at 17 significant digits,
 * so any change to a simulated statistic changes it. */
std::uint64_t digest(const RepeatResult &r);

/**
 * Output checks; each returns the number of failed checks. An open-loop
 * point must drain, drop nothing and, at offered loads up to 0.30,
 * accept what @p item offered. A CMP point needs 0 < IPC <= issue width.
 */
int check_point(const SyntheticResult &r, const RunItem &item);
int check_point(const AppRunResult &r, int issue_width);

/** Checks of one repeat: every point, plus the digest against @p ref
 * when @p ref is non-zero. */
struct CheckCount
{
    std::uint64_t attempted = 0, failed = 0;
    void add(int failures) { ++attempted; failed += failures > 0 ? 1u : 0u; }
};
void check_repeat(const Workload &w, const RepeatResult &r,
                  std::uint64_t ref, CheckCount &c);

} // namespace catnap::benchmark

#endif // CATNAP_BENCHMARK_HARNESS_H
