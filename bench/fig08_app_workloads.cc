/**
 * @file
 * Figure 8: network power (static + dynamic) and normalized system
 * performance for the six network configurations over the four Table 3
 * workloads: 1NT-128b, 1NT-512b, 4NT-128b (round-robin), and the same
 * three with power gating (the Multi-NoC PG design is Catnap).
 *
 * Paper shape: Catnap (4NT-128b-PG) averages ~20 W vs ~36 W for
 * 1NT-512b (-44%) at ~5% performance cost; Single-NoC power gating
 * saves almost no static power.
 */
#include <cstdio>

#include "app/system.h"
#include "bench/bench_util.h"

using namespace catnap;

namespace {

std::vector<bench::NamedConfig>
figure8_configs()
{
    return {
        {"1NT-128b", single_noc_config(128)},
        {"1NT-512b", single_noc_config(512)},
        {"4NT-128b", multi_noc_config(4, GatingKind::kAlwaysOn,
                                      SelectorKind::kRoundRobin)},
        {"1NT-128b-PG", single_noc_config(128, GatingKind::kIdle)},
        {"1NT-512b-PG", single_noc_config(512, GatingKind::kIdle)},
        {"4NT-128b-PG", multi_noc_config(4, GatingKind::kCatnap,
                                         SelectorKind::kCatnap)},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions opts =
        bench::parse_options(argc, argv, kJobsFlag | bench::kCsvFlag);
    bench::header("Figure 8: app workloads -- network power and "
                  "normalized performance");

    AppRunParams ap;
    ap.warmup = 2000;
    ap.measure = 8000;

    const auto configs = figure8_configs();
    const auto mixes = table3_mixes();

    const auto results = bench::run_app_grid(configs, mixes, ap, opts);

    // Power table (left plot).
    std::printf("\n-- Network power (W): static / dynamic / total --\n");
    std::printf("%-14s", "workload");
    for (const auto &c : configs)
        std::printf(" %21s", c.first);
    std::printf("\n");

    for (std::size_t m = 0; m < mixes.size(); ++m) {
        std::printf("%-14s", mixes[m].name.c_str());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto &r = results[m][c];
            std::printf("   %5.1f /%5.1f /%6.1f",
                        r.power_static.total(),
                        r.power.total() - r.power_static.total(),
                        r.power.total());
        }
        std::printf("\n");
    }
    std::printf("%-14s", "Average");
    std::vector<double> avg_power(configs.size(), 0.0);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        double stat = 0, tot = 0;
        for (std::size_t m = 0; m < mixes.size(); ++m) {
            stat += results[m][c].power_static.total();
            tot += results[m][c].power.total();
        }
        stat /= static_cast<double>(mixes.size());
        tot /= static_cast<double>(mixes.size());
        avg_power[c] = tot;
        std::printf("   %5.1f /%5.1f /%6.1f", stat, tot - stat, tot);
    }
    std::printf("\n");

    // Performance table (right plot), normalized to 1NT-512b (no PG).
    std::printf("\n-- Normalized system performance (vs 1NT-512b) --\n");
    std::printf("%-14s", "workload");
    for (const auto &c : configs)
        std::printf(" %12s", c.first);
    std::printf("\n");
    std::vector<double> avg_perf(configs.size(), 0.0);
    for (std::size_t m = 0; m < mixes.size(); ++m) {
        const double base = results[m][1].ipc; // 1NT-512b
        std::printf("%-14s", mixes[m].name.c_str());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const double norm = results[m][c].ipc / base;
            avg_perf[c] += norm / static_cast<double>(mixes.size());
            std::printf(" %12.3f", norm);
        }
        std::printf("\n");
    }
    std::printf("%-14s", "Average");
    for (std::size_t c = 0; c < configs.size(); ++c)
        std::printf(" %12.3f", avg_perf[c]);
    std::printf("\n");

    // Headline claims.
    bench::paper_note("avg power 1NT-512b (W)", avg_power[1], 36.0);
    bench::paper_note("avg power 4NT-128b-PG (W)", avg_power[5], 20.0);
    bench::paper_note("Catnap power saving vs 1NT-512b (%)",
                      100.0 * (1.0 - avg_power[5] / avg_power[1]), 44.0);
    bench::paper_note("Catnap avg normalized performance", avg_perf[5],
                      0.95);
    bench::paper_note("Light: 1NT-512b-PG power (W)",
                      results[0][4].power.total(), 28.0);
    bench::paper_note("Light: 4NT-128b-PG power (W)",
                      results[0][5].power.total(), 7.25);
    bench::paper_note("Heavy: 1NT-512b power (W)",
                      results[3][1].power.total(), 46.8);
    bench::paper_note("Heavy: 4NT-128b-PG power (W)",
                      results[3][5].power.total(), 34.5);
    return 0;
}
