/**
 * @file
 * Figure 13: the injection-rate (IR) congestion policy with thresholds
 * 0.04 .. 0.24 packets/node/cycle, for uniform random and transpose
 * traffic (no power gating; Section 6.4).
 *
 * Paper shape: for uniform random a threshold as high as 0.20 works,
 * but transpose saturates much earlier, so it needs <= 0.08 — there is
 * no single IR threshold that both preserves performance and exposes
 * gating opportunity, which is why BFM wins.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags);
    bench::header("Figure 13: IR subnet-selection policy threshold sweep "
                  "(4NT-128b, no PG)");

    RunParams rp = bench::sweep_params();
    rp.measure = 4000;

    const std::vector<double> thresholds = {0.04, 0.08, 0.12,
                                            0.16, 0.20, 0.24};
    const std::vector<double> loads = {0.05, 0.10, 0.15, 0.20, 0.25,
                                       0.30, 0.40, 0.50};

    std::vector<MultiNocConfig> configs;
    for (double t : thresholds) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kAlwaysOn,
                                              SelectorKind::kCatnap);
        cfg.congestion.metric = CongestionMetric::kInjectionRate;
        cfg.congestion.threshold = t;
        configs.push_back(cfg);
    }

    // One sweep covers both patterns: res[pattern][config][load].
    const PatternKind patterns[] = {PatternKind::kUniformRandom,
                                    PatternKind::kTranspose};
    std::vector<RunItem> items;
    for (const PatternKind pattern : patterns) {
        SyntheticConfig traffic;
        traffic.pattern = pattern;
        for (const MultiNocConfig &cfg : configs)
            for (const double load : loads)
                items.push_back(bench::point(cfg, traffic, rp, load));
    }
    const auto res = bench::to_grid(
        bench::to_grid(sweep_or_exit(items, opts), loads.size()),
        configs.size());

    for (std::size_t p = 0; p < 2; ++p) {
        std::printf("\n-- avg packet latency (cycles), %s --\n%-8s",
                    pattern_kind_name(patterns[p]), "load");
        for (double t : thresholds)
            std::printf("   IR-%4.2f", t);
        std::printf("\n");
        for (std::size_t l = 0; l < loads.size(); ++l) {
            std::printf("%-8.2f", loads[l]);
            for (std::size_t c = 0; c < configs.size(); ++c)
                std::printf(" %9.1f", res[p][c][l].avg_latency);
            std::printf("\n");
        }
    }
    std::printf("\nNote: low IR thresholds divert packets to higher-order"
                " subnets early (hurting gating opportunity); high ones"
                " overload lower subnets on adversarial patterns.\n");
    return 0;
}
