/**
 * @file
 * Figure 12: ramp-up and decay behaviour of Catnap under bursty
 * traffic. The offered load steps 0.01 -> 0.30 at cycle 1000 (until
 * 1500) and 0.01 -> 0.10 at cycle 2000 (until 2500); throughput is
 * sampled every 50 cycles.
 *
 * Paper shape: accepted throughput catches the offered burst within
 * ~200 cycles; during the 0.30 burst all four subnets activate and
 * spread load; the 0.10 burst only needs subnets 0 and 1; utilization
 * collapses back to subnet 0 after each burst.
 */
#include <cstdio>

#include "bench/bench_util.h"
#include "noc/multinoc.h"
#include "traffic/synthetic.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    // One continuous run with a time-varying schedule -- nothing to fan
    // out; accepts the shared CLI so reproduce.sh can pass --jobs.
    bench::parse_options(argc, argv, kJobsFlag);
    bench::header("Figure 12: bursty traffic ramp-up/decay (4NT-128b-PG)");

    MultiNocConfig cfg = multi_noc_config(4, GatingKind::kCatnap);
    MultiNoc net(cfg);
    net.metrics().set_series_enabled(true);
    net.metrics().set_measurement_window(0, kNoCycle);

    SyntheticConfig traffic;
    traffic.load = 0.01;
    SyntheticTraffic gen(&net, traffic, 99);
    gen.set_schedule(figure12_burst_schedule());

    const Cycle horizon = 3200;
    while (net.now() < horizon) {
        gen.step(net.now());
        net.tick();
    }
    net.metrics().roll_series(horizon);

    const auto &offered = net.metrics().offered_series().samples();
    const auto &accepted = net.metrics().accepted_series().samples();

    std::printf("\n-- (a) offered vs accepted throughput "
                "(packets/node/cycle, 50-cycle windows) --\n");
    std::printf("%-8s %10s %10s\n", "cycle", "offered", "accepted");
    const double denom = 50.0 * net.num_nodes();
    for (std::size_t w = 0; w < offered.size(); ++w) {
        std::printf("%-8zu %10.3f %10.3f\n", (w + 1) * 50,
                    offered[w] / denom, accepted[w] / denom);
    }

    std::printf("\n-- (b) share of flits injected per subnet "
                "(50-cycle windows) --\n");
    std::printf("%-8s %9s %9s %9s %9s\n", "cycle", "subnet0", "subnet1",
                "subnet2", "subnet3");
    double burst1_spread = 0.0; // share of subnets 1-3 during burst 1
    double idle_share0 = 0.0;   // share of subnet 0 before the burst
    int idle_samples = 0, burst_samples = 0;
    for (std::size_t w = 0; w < offered.size(); ++w) {
        double per[4] = {0, 0, 0, 0};
        double total = 0;
        for (SubnetId s = 0; s < 4; ++s) {
            const auto &series = net.metrics().subnet_series(s).samples();
            per[s] = w < series.size() ? series[w] : 0.0;
            total += per[s];
        }
        std::printf("%-8zu", (w + 1) * 50);
        for (SubnetId s = 0; s < 4; ++s)
            std::printf(" %9.2f", total > 0 ? per[s] / total : 0.0);
        std::printf("\n");
        const Cycle mid = (w + 1) * 50 - 25;
        if (mid > 300 && mid < 1000 && total > 0) {
            idle_share0 += per[0] / total;
            ++idle_samples;
        }
        if (mid > 1100 && mid < 1500 && total > 0) {
            burst1_spread += (per[1] + per[2] + per[3]) / total;
            ++burst_samples;
        }
    }

    bench::paper_note("subnet-0 share before burst",
                      idle_samples ? idle_share0 / idle_samples : 0.0,
                      1.0);
    bench::paper_note("subnets 1-3 share during 0.30 burst",
                      burst_samples ? burst1_spread / burst_samples : 0.0,
                      0.75);
    return 0;
}
