/**
 * @file
 * Ablation: RCS region size. The paper partitions the 8x8 mesh into
 * four 4x4 regions; Section 7.3 argues a *regional* detector reacts
 * faster than a global one (used by prior off-chip work) while staying
 * far cheaper than per-path congestion propagation (RCA). This bench
 * sweeps region widths 2 / 4 / 8 (8 == one global OR network) plus the
 * purely local variant, on the adversarial transpose pattern where
 * early detection matters most.
 */
#include <cstdio>

#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kAllSweepFlags);
    bench::header("Ablation: RCS region size (4NT-128b-PG, transpose)");

    const RunParams rp = bench::sweep_params();

    struct Variant
    {
        const char *name;
        int region_width;
        bool use_rcs;
    };
    const Variant variants[] = {
        {"local only", 4, false},
        {"2x2 regions", 2, true},
        {"4x4 regions (paper)", 4, true},
        {"8x8 region (global)", 8, true},
    };

    std::vector<MultiNocConfig> configs;
    for (const auto &v : variants) {
        MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
        cfg.region_width = v.region_width;
        cfg.congestion.use_rcs = v.use_rcs;
        configs.push_back(cfg);
    }
    SyntheticConfig traffic;
    traffic.pattern = PatternKind::kTranspose;
    const auto res =
        bench::run_load_grid(configs, {0.05, 0.15}, traffic, rp, opts);

    std::printf("%-22s %9s %9s %9s %9s\n", "detector", "lat@0.05",
                "lat@0.15", "csc@0.05", "P@0.05");
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto &lo = res[c][0];
        const auto &hi = res[c][1];
        std::printf("%-22s %9.1f %9.1f %9.1f %9.1f\n", variants[c].name,
                    lo.avg_latency, hi.avg_latency, lo.csc_percent,
                    lo.power.total());
    }
    std::printf("\nLocal-only detection reacts too late on non-uniform"
                " traffic (latency spikes); a global OR wakes every"
                " region's routers on any hotspot (less CSC). 4x4 is the"
                " balance the paper picked.\n");
    return 0;
}
