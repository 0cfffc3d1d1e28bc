/**
 * @file
 * Figure 11: comparison of local congestion metrics for Catnap's subnet
 * selection + power gating on 4NT-128b-PG — RR (baseline), BFA, Delay,
 * BFM, BFM-local (no OR network), and IQOcc-local — for uniform random,
 * transpose, and bit-complement traffic, plus compensated sleep cycles
 * for RR vs BFM.
 *
 * Paper shape: RR suffers high latency with gating; BFA and IQOcc react
 * too slowly and lose throughput; Delay and BFM perform best; BFM with
 * the regional OR network beats BFM-local on non-uniform traffic.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

namespace {

MultiNocConfig
metric_config(CongestionMetric metric, bool use_rcs)
{
    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap,
                                          SelectorKind::kCatnap);
    cfg.congestion.metric = metric;
    cfg.congestion.threshold = CongestionConfig::default_threshold(metric);
    cfg.congestion.use_rcs = use_rcs;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags);
    bench::header("Figure 11: congestion metrics for subnet selection "
                  "and gating (4NT-128b-PG)");

    RunParams rp = bench::sweep_params();
    rp.measure = 4000;

    const std::vector<bench::NamedConfig> configs = {
        {"RR", multi_noc_config(4, GatingKind::kIdle,
                                SelectorKind::kRoundRobin)},
        {"BFA", metric_config(CongestionMetric::kBufferAvg, true)},
        {"Delay", metric_config(CongestionMetric::kBlockingDelay, true)},
        {"BFM", metric_config(CongestionMetric::kBufferMax, true)},
        {"BFM-local", metric_config(CongestionMetric::kBufferMax, false)},
        {"IQOcc-Local", metric_config(CongestionMetric::kInjQueueOcc,
                                      false)},
    };

    const std::vector<double> loads = {0.02, 0.05, 0.10, 0.15, 0.20,
                                       0.30, 0.40};
    const PatternKind patterns[] = {PatternKind::kUniformRandom,
                                    PatternKind::kTranspose,
                                    PatternKind::kBitComplement};

    // One sweep covers all three patterns: res[pattern][config][load].
    std::vector<RunItem> items;
    for (const PatternKind pattern : patterns) {
        SyntheticConfig traffic;
        traffic.pattern = pattern;
        for (const auto &config : configs)
            for (const double load : loads)
                items.push_back(
                    bench::point(config.second, traffic, rp, load));
    }
    const auto res = bench::to_grid(
        bench::to_grid(sweep_or_exit(items, opts), loads.size()),
        configs.size());

    const auto names = bench::config_names(configs);
    for (std::size_t p = 0; p < 3; ++p) {
        bench::print_metric_table(
            std::string("avg packet latency (cycles), ") +
                pattern_kind_name(patterns[p]),
            names, loads, res[p],
            [](const SyntheticResult &r) { return r.avg_latency; }, 12,
            1);
    }

    // Rightmost subplot: CSC for RR (naive) vs BFM (best), uniform --
    // the points are already in the uniform-random grid (res[0]).
    std::printf("\n-- compensated sleep cycles (%%), uniform random --\n");
    std::printf("%-8s %12s %12s\n", "load", "RR", "BFM");
    double rr_csc_low = 0.0, bfm_csc_low = 0.0;
    for (std::size_t l = 0; l < 5; ++l) {
        const auto &rr = res[0][0][l];
        const auto &bfm = res[0][3][l];
        std::printf("%-8.2f %12.1f %12.1f\n", loads[l], rr.csc_percent,
                    bfm.csc_percent);
        if (loads[l] == 0.02) {
            rr_csc_low = rr.csc_percent;
            bfm_csc_low = bfm.csc_percent;
        }
    }
    bench::paper_note("CSC @0.02: BFM - RR (pp)", bfm_csc_low - rr_csc_low,
                      50.0);
    return 0;
}
