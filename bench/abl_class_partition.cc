/**
 * @file
 * Ablation: message-class-specialized subnets (CCNoC style, [29]) vs
 * Catnap. Section 7.2 argues that statically separating traffic into
 * subnets by message type "could lead to load imbalance across subnets"
 * and squanders both peak bandwidth and gating opportunity; Catnap
 * instead uses VCs for deadlock freedom and selects subnets by load.
 * This bench quantifies the claim on the application workloads, where
 * the four message classes (request / forward / data / writeback) have
 * very different volumes.
 */
#include <cstdint>
#include <cstdio>

#include "app/system.h"
#include "bench/bench_util.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kJobsFlag);
    bench::header("Ablation: class-partitioned subnets (CCNoC [29]) vs "
                  "Catnap");

    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 8000;

    const std::vector<bench::NamedConfig> configs = {
        {"4NT class-partitioned",
         multi_noc_config(4, GatingKind::kIdle,
                          SelectorKind::kClassPartition)},
        {"4NT round-robin + idle gate",
         multi_noc_config(4, GatingKind::kIdle,
                          SelectorKind::kRoundRobin)},
        {"4NT Catnap", multi_noc_config(4, GatingKind::kCatnap,
                                        SelectorKind::kCatnap)},
    };
    const std::vector<WorkloadMix> mixes = {medium_light_mix(),
                                            heavy_mix()};
    const auto grid = bench::run_app_grid(configs, mixes, ap, opts);

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::printf("\n-- %s --\n", mixes[m].name.c_str());
        std::printf("%-30s %8s %10s %8s %28s\n", "design", "IPC",
                    "power(W)", "CSC(%)", "subnet flit shares");
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const AppRunResult &r = grid[m][c];
            double total = 0;
            for (const std::uint64_t flits : r.injected_flits)
                total += static_cast<double>(flits);
            std::printf("%-30s %8.3f %10.1f %8.1f    ", configs[c].first,
                        r.ipc, r.power.total(), r.csc_percent);
            for (std::size_t s = 0; s < r.injected_flits.size(); ++s)
                std::printf("%s%.2f", s == 0 ? "" : "/",
                            static_cast<double>(r.injected_flits[s]) /
                                total);
            std::printf("\n");
        }
    }
    std::printf("\nClass partitioning leaves the data subnet saturated "
                "while control subnets idle (imbalance), and every "
                "subnet still carries some traffic, so gating saves "
                "little.\n");
    return 0;
}
