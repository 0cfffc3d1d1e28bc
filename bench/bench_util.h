/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: aligned
 * table printing, the standard phase lengths used across benches, and
 * the common command line plus the two grid runners over the src/exec/
 * execution engine.
 *
  * Every harness accepts --jobs N. Harnesses whose points are RunItems
 * also take the sweep backend flags of exec/sweep.h (--isolate,
 * --journal, ...) and run their grid as one run_sweep() call;
 * app-workload harnesses map their mix x config grid through
 * run_app_grid(). --csv FILE is accepted only by a harness that saves
 * its main sweep, one row per (config, point). Each harness's flag
 * table is built from the shared entries, so --help lists exactly the
 * flags it accepts and any other option is a usage error.
 *
 * Results are bit-identical for every --jobs value and backend: points
 * run on private state and result i lands in slot i regardless of which
 * worker computed it (see exec/sweep_runner.h and DESIGN.md §12). The
 * guarantee covers stdout (tables, CSV). Diagnostic log lines (stderr,
 * e.g. drain-budget warnings) are emitted by whichever worker hits
 * them, so their *order* follows host scheduling — the set of warnings
 * is still identical.
 */
#ifndef CATNAP_BENCH_BENCH_UTIL_H
#define CATNAP_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "app/system.h"
#include "exec/sweep.h"
#include "sim/report.h"
#include "sim/simulator.h"

namespace catnap::bench {

/**
 * Warm-up length shared by every synthetic sweep harness. One constant,
 * not per-harness literals: the value flows into RunParams::warmup and
 * from there into the run-level checkpoint config hash (DESIGN.md §13),
 * so a warm state saved under one warm-up length can never be reused
 * under another.
 */
inline constexpr Cycle kSweepWarmup = 1500;

/** Standard phases for synthetic sweeps (kept short; shapes converge). */
inline RunParams
sweep_params()
{
    RunParams rp;
    rp.warmup = kSweepWarmup;
    rp.measure = 5000;
    rp.drain_max = 6000;
    return rp;
}

/** Offered-load grid used by the latency-vs-load figures. */
inline std::vector<double>
load_grid()
{
    return {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45};
}

/** Prints a section header. */
inline void
header(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/** Prints a "shape check" note comparing against the paper's value. */
inline void
paper_note(const std::string &what, double measured, double paper)
{
    std::printf("  [paper] %-46s measured %8.2f vs paper %8.2f\n",
                what.c_str(), measured, paper);
}

/** The command-line options every harness shares. */
struct BenchOptions : SweepOptions
{
    /** When non-empty, the harness saves its main sweep here. */
    std::string csv;
};

/** parse_options() flag group beyond the SweepFlags groups: --csv FILE,
 * for a harness that saves its main sweep (maybe_save_csv()). */
inline constexpr unsigned kCsvFlag = 1u << 31;

/** Parses the shared harness command line: the sweep_flags() groups
 * and kCsvFlag set in @p accept. Unknown options exit 2, so typos in
 * reproduce.sh never pass silently; bad values exit 3. */
inline BenchOptions
parse_options(int argc, char **argv, unsigned accept)
{
    BenchOptions opts;
    CommandLine cli{std::string("usage: ") + argv[0] + " [options]",
                    sweep_flags(opts, accept)};
    if ((accept & kCsvFlag) != 0)
        cli.flags.push_back(csv_flag(opts.csv));
    parse_command_line(argc, argv, cli);
    return opts;
}

/** A display name plus the network configuration it labels. */
using NamedConfig = std::pair<const char *, MultiNocConfig>;

/** Builds one sweep point: @p traffic with its load replaced. */
inline RunItem
point(const MultiNocConfig &cfg, SyntheticConfig traffic,
      const RunParams &rp, double load)
{
    traffic.load = load;
    return RunItem{cfg, traffic, rp};
}

/** Cuts @p flat into consecutive rows of @p width results each. */
template <typename Result>
std::vector<std::vector<Result>>
to_grid(const std::vector<Result> &flat, std::size_t width)
{
    std::vector<std::vector<Result>> grid(width == 0 ? 0
                                                     : flat.size() / width);
    for (std::size_t r = 0; r < grid.size(); ++r) {
        const auto first =
            flat.begin() + static_cast<std::ptrdiff_t>(r * width);
        grid[r].assign(first, first + static_cast<std::ptrdiff_t>(width));
    }
    return grid;
}

/**
 * Runs the full |configs| x |loads| cross product through run_sweep()
 * and returns it config-major (grid[c][l]), bit-identical to the nested
 * serial loops this replaces.
 */
inline std::vector<std::vector<SyntheticResult>>
run_load_grid(const std::vector<MultiNocConfig> &configs,
              const std::vector<double> &loads,
              const SyntheticConfig &traffic, const RunParams &rp,
              const BenchOptions &opts)
{
    std::vector<RunItem> items;
    items.reserve(configs.size() * loads.size());
    for (const auto &cfg : configs)
        for (double load : loads)
            items.push_back(point(cfg, traffic, rp, load));

    return to_grid(sweep_or_exit(items, opts), loads.size());
}

/** run_load_grid() over named configurations. */
inline std::vector<std::vector<SyntheticResult>>
run_load_grid(const std::vector<NamedConfig> &configs,
              const std::vector<double> &loads,
              const SyntheticConfig &traffic, const RunParams &rp,
              const BenchOptions &opts)
{
    std::vector<MultiNocConfig> cfgs;
    cfgs.reserve(configs.size());
    for (const auto &c : configs)
        cfgs.push_back(c.second);
    return run_load_grid(cfgs, loads, traffic, rp, opts);
}

/**
 * Prints one metric sub-table: one row per load, one column per
 * configuration, values extracted by @p metric.
 */
inline void
print_metric_table(
    const std::string &title, const std::vector<std::string> &names,
    const std::vector<double> &loads,
    const std::vector<std::vector<SyntheticResult>> &grid,
    const std::function<double(const SyntheticResult &)> &metric,
    int col_width = 12, int precision = 2)
{
    std::printf("\n-- %s --\n%-8s", title.c_str(), "load");
    for (const auto &name : names)
        std::printf(" %*s", col_width, name.c_str());
    std::printf("\n");
    for (std::size_t l = 0; l < loads.size(); ++l) {
        std::printf("%-8.2f", loads[l]);
        for (std::size_t c = 0; c < names.size(); ++c)
            std::printf(" %*.*f", col_width, precision,
                        metric(grid[c][l]));
        std::printf("\n");
    }
}

/** Column names for print_metric_table() from a NamedConfig list. */
inline std::vector<std::string>
config_names(const std::vector<NamedConfig> &configs)
{
    std::vector<std::string> names;
    names.reserve(configs.size());
    for (const auto &c : configs)
        names.emplace_back(c.first);
    return names;
}

/**
 * Saves a grid (flattened back to item order, grid[0] first) when the
 * harness was invoked with --csv; no-op otherwise.
 */
template <typename Result>
void
maybe_save_csv(const BenchOptions &opts,
               const std::vector<std::vector<Result>> &grid)
{
    if (opts.csv.empty())
        return;
    std::vector<Result> rows;
    for (const auto &row : grid)
        rows.insert(rows.end(), row.begin(), row.end());
    save_csv(opts.csv, rows);
    std::printf("\n[csv] wrote %zu rows to %s\n", rows.size(),
                opts.csv.c_str());
}

/**
 * Runs every |mixes| x |configs| closed-loop point through
 * run_app_workload() on one SweepRunner of opts.jobs workers and
 * returns the grid mix-major (grid[m][c]), bit-identical to the nested
 * serial loops. With --csv the grid is saved in that order.
 */
inline std::vector<std::vector<AppRunResult>>
run_app_grid(const std::vector<NamedConfig> &configs,
             const std::vector<WorkloadMix> &mixes, const AppRunParams &ap,
             const BenchOptions &opts)
{
    SweepRunner runner(ExecOptions{opts.jobs});
    auto grid = to_grid(
        runner.map<AppRunResult>(
            mixes.size() * configs.size(),
            [&](std::size_t i) {
                return run_app_workload(configs[i % configs.size()].second,
                                        mixes[i / configs.size()], ap);
            }),
        configs.size());
    maybe_save_csv(opts, grid);
    return grid;
}

} // namespace catnap::bench

#endif // CATNAP_BENCH_BENCH_UTIL_H
