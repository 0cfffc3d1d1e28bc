/**
 * @file
 * Figure 10: uniform-random sweep of (a) network power, (b) compensated
 * sleep cycles, (c) accepted throughput, and (d) packet latency vs
 * offered load, for 1NT-512b and 4NT-128b with and without power gating.
 *
 * Paper shape: at 0.03 packets/node/cycle the Multi-NoC exposes ~74%
 * CSC vs ~10% for Single-NoC, giving 7.8 W vs 24.1 W; throughput is
 * unaffected by gating; Single-NoC's latency suffers badly at low load.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags | bench::kCsvFlag);
    bench::header("Figure 10: uniform random, power/CSC/throughput/latency"
                  " vs offered load");

    const RunParams rp = bench::sweep_params();
    const SyntheticConfig traffic;

    const std::vector<bench::NamedConfig> configs = {
        {"1NT-512b", single_noc_config(512)},
        {"4NT-128b", multi_noc_config(4, GatingKind::kAlwaysOn,
                                      SelectorKind::kRoundRobin)},
        {"1NT-512b-PG", single_noc_config(512, GatingKind::kIdle)},
        {"4NT-128b-PG", multi_noc_config(4, GatingKind::kCatnap)},
    };

    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10, 0.15,
                                       0.20, 0.25, 0.30, 0.40};

    // Collect everything once (all points in parallel), print four
    // sub-tables.
    const auto res = bench::run_load_grid(configs, loads, traffic, rp,
                                          opts);
    const auto names = bench::config_names(configs);

    bench::print_metric_table(
        "(a) network power (W)", names, loads, res,
        [](const SyntheticResult &r) { return r.power.total(); });
    bench::print_metric_table(
        "(b) compensated sleep cycles (%)", names, loads, res,
        [](const SyntheticResult &r) { return r.csc_percent; });
    bench::print_metric_table(
        "(c) accepted throughput (pkts/node/cycle)", names, loads, res,
        [](const SyntheticResult &r) { return r.accepted_rate; });
    bench::print_metric_table(
        "(d) avg packet latency (cycles)", names, loads, res,
        [](const SyntheticResult &r) { return r.avg_latency; });
    bench::maybe_save_csv(opts, res);

    // Paper checks at load 0.03 (index 1).
    bench::paper_note("CSC @0.03, 4NT-128b-PG (%)", res[3][1].csc_percent,
                      74.0);
    bench::paper_note("CSC @0.03, 1NT-512b-PG (%)", res[2][1].csc_percent,
                      10.0);
    bench::paper_note("power @0.03, 4NT-128b-PG (W)",
                      res[3][1].power.total(), 7.8);
    bench::paper_note("power @0.03, 1NT-512b-PG (W)",
                      res[2][1].power.total(), 24.1);
    return 0;
}
