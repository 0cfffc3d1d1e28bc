/**
 * @file
 * Figure 7: network power by component (NI / Link / Clock / Control /
 * Crossbar / Buffer) for 1NT-512b @ 0.750 V, 4NT-128b @ 0.750 V, and
 * 4NT-128b @ 0.625 V at a per-port load factor of 0.5 (the paper's
 * analytic Orion methodology, Section 5.2).
 *
 * Paper shape: at the same voltage the Multi-NoC's smaller crossbars
 * and clock offset its duplicated control and longer links; voltage
 * scaling then gives Multi-NoC a clear dynamic-power win.
 */
#include <cstdio>

#include "bench/bench_util.h"
#include "power/power_meter.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    // Analytic (no simulation runs); accepts the shared CLI so
    // reproduce.sh can pass --jobs uniformly.
    bench::parse_options(argc, argv, kJobsFlag);
    bench::header("Figure 7: network power by component, load factor 0.5");

    struct Bar
    {
        const char *name;
        int subnets;
        int width;
        double vdd;
    };
    const Bar bars[] = {
        {"1NT-512b 0.750V", 1, 512, 0.750},
        {"4NT-128b 0.750V", 4, 128, 0.750},
        {"4NT-128b 0.625V", 4, 128, 0.625},
    };

    std::printf("%-18s %8s %8s %8s %8s %8s %8s %9s\n", "design", "Buffer",
                "Xbar", "Control", "Clock", "Link", "NI", "Total(W)");
    double single = 0.0, multi_hi = 0.0, multi_lo = 0.0;
    for (const auto &bar : bars) {
        const PowerBreakdown p = analytic_network_power(
            64, bar.subnets, bar.width, bar.vdd, 4, 4, 0.5);
        std::printf("%-18s %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %9.1f\n",
                    bar.name, p.buffer, p.crossbar, p.control, p.clock,
                    p.link, p.ni, p.total());
        if (bar.subnets == 1)
            single = p.total();
        else if (bar.vdd > 0.7)
            multi_hi = p.total();
        else
            multi_lo = p.total();
    }

    bench::paper_note("1NT-512b total (W), paper bar ~70", single, 70.0);
    bench::paper_note("4NT @0.750V <= 1NT total (ratio)", multi_hi / single,
                      1.0);
    bench::paper_note("voltage scaling saving (4NT 0.625/0.750)",
                      multi_lo / multi_hi, 0.8);
    return 0;
}
