/**
 * @file
 * Figure 6: throughput and latency of Single-NoC vs Multi-NoC designs
 * with 1/2/4/8 subnets over a constant 512-bit aggregate datapath,
 * uniform-random 512-bit packets, round-robin subnet selection, no
 * power gating (the Section 5.1 characterization).
 *
 * Paper shape: four subnets match Single-NoC throughput; eight lose
 * some; low-load latency rises a few cycles per doubling of subnets
 * (serialization latency).
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags | bench::kCsvFlag);
    bench::header("Figure 6a: saturation throughput vs subnet count");

    const RunParams rp = bench::sweep_params();
    const SyntheticConfig traffic; // uniform random, 512-bit packets

    std::vector<MultiNocConfig> cfgs;
    for (int subnets : {1, 2, 4, 8}) {
        cfgs.push_back(multi_noc_config(subnets, GatingKind::kAlwaysOn,
                                        SelectorKind::kRoundRobin));
    }

    // One batch covers both sub-figures: the saturation point (0.45,
    // beyond saturation for every design) plus the load grid.
    std::vector<double> loads = {0.45};
    const auto grid_loads = bench::load_grid();
    loads.insert(loads.end(), grid_loads.begin(), grid_loads.end());
    const auto res = bench::run_load_grid(cfgs, loads, traffic, rp, opts);

    std::printf("%-10s %26s\n", "design",
                "saturation throughput (pkts/node/cycle)");
    double thr1 = 0.0, thr4 = 0.0;
    for (std::size_t c = 0; c < cfgs.size(); ++c) {
        const auto &r = res[c][0];
        std::printf("%-10s %26.3f\n", cfgs[c].label().c_str(),
                    r.accepted_rate);
        if (cfgs[c].num_subnets == 1)
            thr1 = r.accepted_rate;
        if (cfgs[c].num_subnets == 4)
            thr4 = r.accepted_rate;
    }
    bench::paper_note("4NT/1NT saturation throughput ratio", thr4 / thr1,
                      1.0);

    bench::header("Figure 6b: average packet latency vs offered load");
    std::printf("%-8s", "load");
    for (const auto &cfg : cfgs)
        std::printf(" %10s", cfg.label().c_str());
    std::printf("\n");
    for (std::size_t l = 0; l < grid_loads.size(); ++l) {
        std::printf("%-8.2f", grid_loads[l]);
        for (std::size_t c = 0; c < cfgs.size(); ++c)
            std::printf(" %10.1f", res[c][l + 1].avg_latency);
        std::printf("\n");
    }
    bench::maybe_save_csv(opts, res);
    return 0;
}
