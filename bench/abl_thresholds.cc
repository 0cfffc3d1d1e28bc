/**
 * @file
 * Ablation: sensitivity of Catnap to the BFM congestion threshold. The
 * paper tunes BFM to 9 flits (of a 16-flit port) and notes performance
 * loss "could be reduced, if necessary, by reducing the aggressiveness
 * of Catnap's power-gating optimization by adjusting the threshold used
 * for regional congestion detection" (Section 6.2). This bench maps
 * that latency/CSC/power trade-off.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags);
    bench::header("Ablation: BFM threshold trade-off (4NT-128b-PG, "
                  "uniform random)");

    const RunParams rp = bench::sweep_params();

    const std::vector<double> thresholds = {3.0, 6.0, 9.0, 12.0, 15.0};
    std::vector<MultiNocConfig> configs;
    for (double threshold : thresholds) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.congestion.threshold = threshold;
        configs.push_back(cfg);
    }
    const auto res = bench::run_load_grid(configs, {0.05, 0.20},
                                          SyntheticConfig{}, rp, opts);

    std::printf("%-10s %8s | %9s %8s %9s | %9s %8s %9s\n", "threshold",
                "", "lat@0.05", "csc@0.05", "P@0.05", "lat@0.20",
                "csc@0.20", "P@0.20");
    for (std::size_t c = 0; c < thresholds.size(); ++c) {
        const auto &lo = res[c][0];
        const auto &hi = res[c][1];
        std::printf("%-10.0f %8s | %9.1f %8.1f %9.1f | %9.1f %8.1f %9.1f"
                    "%s\n",
                    thresholds[c], "", lo.avg_latency, lo.csc_percent,
                    lo.power.total(), hi.avg_latency, hi.csc_percent,
                    hi.power.total(),
                    thresholds[c] == 9.0 ? "   <== paper" : "");
    }
    std::printf("\nLower thresholds divert early (better latency, less"
                " gating); higher thresholds gate more but risk latency"
                " spikes near saturation.\n");
    return 0;
}
