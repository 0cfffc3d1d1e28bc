/**
 * @file
 * Extension study: fine-grained per-port power gating (Matsutani et al.
 * [20]) as a stronger Single-NoC baseline. Section 7.1 positions such
 * techniques as complementary: they improve Single-NoC, but a single
 * network's crossbar/clock/control can never gate while any flow is
 * alive, so whole-subnet gating (Catnap) remains far ahead.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags | bench::kCsvFlag);
    bench::header("Extension: per-port gating (1NT-512b-PPG) vs "
                  "router-idle PG vs Catnap");

    const RunParams rp = bench::sweep_params();

    const std::vector<bench::NamedConfig> configs = {
        {"1NT-512b-PG", single_noc_config(512, GatingKind::kIdle)},
        {"1NT-512b-PPG", single_noc_config(512, GatingKind::kFinePort)},
        {"4NT-128b-PG", multi_noc_config(4, GatingKind::kCatnap)},
    };

    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10, 0.20};
    const auto res = bench::run_load_grid(configs, loads,
                                          SyntheticConfig{}, rp, opts);

    std::printf("%-8s", "load");
    for (const auto &c : configs)
        std::printf(" | %12s: %7s %7s", c.first, "P(W)", "lat");
    std::printf("\n");

    double p_idle = 0, p_fine = 0, p_catnap = 0;
    for (std::size_t l = 0; l < loads.size(); ++l) {
        std::printf("%-8.2f", loads[l]);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &r = res[c][l];
            std::printf(" | %12s  %7.1f %7.1f", "", r.power.total(),
                        r.avg_latency);
            if (loads[l] == 0.03) {
                if (configs[c].second.gating == GatingKind::kIdle)
                    p_idle = r.power.total();
                else if (configs[c].second.gating == GatingKind::kFinePort)
                    p_fine = r.power.total();
                else
                    p_catnap = r.power.total();
            }
        }
        std::printf("\n");
    }
    bench::maybe_save_csv(opts, res);

    bench::paper_note("PPG saving over router-idle PG @0.03 (W)",
                      p_idle - p_fine, 5.0);
    bench::paper_note("Catnap still below PPG @0.03 (ratio)",
                      p_catnap / p_fine, 0.5);
    std::printf("\nPer-port gating recovers part of the buffer/link"
                " leakage on a Single-NoC at a latency premium (every"
                " hop's input port must wake), but the shared crossbar,"
                " clock, and control stay powered -- only the Multi-NoC"
                " organization lets whole routers disappear.\n");
    return 0;
}
