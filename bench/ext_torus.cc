/**
 * @file
 * Extension study: Catnap on a concentrated torus. The paper's
 * conclusion notes that "further study is required to demonstrate
 * similar benefits for other topologies"; this harness runs the core
 * comparison (power, CSC, latency vs load) on a wrap-around version of
 * the 8x8 concentrated mesh, with dateline VCs providing deadlock
 * freedom.
 *
 * Expected shape: the torus's shorter average paths reduce latency and
 * per-packet energy; the Catnap gating benefit (large CSC at low load)
 * carries over unchanged because it depends only on the multi-subnet
 * organization, not on the topology.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags | bench::kCsvFlag);
    bench::header("Extension: Catnap on a concentrated torus (8x8, "
                  "4NT-128b-PG)");

    const RunParams rp = bench::sweep_params();

    MultiNocConfig mesh = multi_noc_config(4, GatingKind::kCatnap);
    MultiNocConfig torus = mesh;
    torus.torus = true;

    // Last load (0.45) feeds the saturation comparison below.
    const std::vector<double> loads = {0.01, 0.03, 0.05, 0.10,
                                       0.20, 0.30, 0.45};
    const auto res = bench::run_load_grid({mesh, torus}, loads,
                                          SyntheticConfig{}, rp, opts);

    std::printf("%-8s | %9s %9s %9s | %9s %9s %9s\n", "load",
                "mesh lat", "mesh csc", "mesh P", "torus lat",
                "torus csc", "torus P");
    double mesh_csc_low = 0, torus_csc_low = 0;
    for (std::size_t l = 0; l + 1 < loads.size(); ++l) {
        const auto &m = res[0][l];
        const auto &t = res[1][l];
        std::printf("%-8.2f | %9.1f %9.1f %9.1f | %9.1f %9.1f %9.1f\n",
                    loads[l], m.avg_latency, m.csc_percent,
                    m.power.total(), t.avg_latency, t.csc_percent,
                    t.power.total());
        if (loads[l] == 0.03) {
            mesh_csc_low = m.csc_percent;
            torus_csc_low = t.csc_percent;
        }
    }
    bench::paper_note("CSC @0.03: torus vs mesh (pp difference)",
                      torus_csc_low - mesh_csc_low, 0.0);

    // Saturation throughput comparison (wrap links double the bisection).
    bench::header("Saturation throughput (uniform random, offered 0.45)");
    const auto &m = res[0].back();
    const auto &t = res[1].back();
    std::printf("mesh  : %.3f pkts/node/cycle\ntorus : %.3f "
                "pkts/node/cycle (%.2fx)\n",
                m.accepted_rate, t.accepted_rate,
                t.accepted_rate / m.accepted_rate);
    bench::maybe_save_csv(opts, res);
    return 0;
}
