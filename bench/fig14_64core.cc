/**
 * @file
 * Figure 14: the 64-core configuration (4x4 concentrated mesh, Section
 * 6.6): a 256-bit Single-NoC vs a two-subnet 128-bit Multi-NoC, both
 * power gated, under uniform random traffic — compensated sleep cycles
 * and packet latency vs offered load.
 *
 * Paper shape: at 0.03 packets/node/cycle the 2-subnet Multi-NoC shows
 * ~50% CSC vs ~17% for Single-NoC (vs ~74% for the 256-core 4-subnet
 * design — benefits grow with core count).
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

namespace {

MultiNocConfig
small_mesh(MultiNocConfig cfg)
{
    cfg.mesh_width = 4;
    cfg.mesh_height = 4;
    cfg.region_width = 2;
    cfg.total_link_bits = 256; // sustains 8 GB/s per core for 64 cores
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags | bench::kCsvFlag);
    bench::header("Figure 14: 64-core processor (4x4 cmesh, 256-bit "
                  "aggregate)");

    const RunParams rp = bench::sweep_params();

    const std::vector<bench::NamedConfig> configs = {
        {"1NT-256b-PG",
         small_mesh(single_noc_config(256, GatingKind::kIdle))},
        {"2NT-128b-PG",
         small_mesh(multi_noc_config(2, GatingKind::kCatnap))},
    };

    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10,
                                       0.15, 0.20, 0.30};
    const auto res = bench::run_load_grid(configs, loads,
                                          SyntheticConfig{}, rp, opts);

    std::printf("%-8s %14s %14s %14s %14s\n", "load", "CSC 1NT (%)",
                "CSC 2NT (%)", "lat 1NT (cy)", "lat 2NT (cy)");
    double csc1_low = 0.0, csc2_low = 0.0;
    for (std::size_t l = 0; l < loads.size(); ++l) {
        const auto &r1 = res[0][l];
        const auto &r2 = res[1][l];
        std::printf("%-8.2f %14.1f %14.1f %14.1f %14.1f\n", loads[l],
                    r1.csc_percent, r2.csc_percent, r1.avg_latency,
                    r2.avg_latency);
        if (loads[l] == 0.03) {
            csc1_low = r1.csc_percent;
            csc2_low = r2.csc_percent;
        }
    }
    bench::maybe_save_csv(opts, res);
    bench::paper_note("CSC @0.03, 2NT-128b-PG (%)", csc2_low, 50.0);
    bench::paper_note("CSC @0.03, 1NT-256b-PG (%)", csc1_low, 17.0);
    return 0;
}
