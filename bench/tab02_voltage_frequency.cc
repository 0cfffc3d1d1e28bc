/**
 * @file
 * Table 2: frequency and voltage of 512-bit and 128-bit routers. The
 * highlighted rows (512b @ 2 GHz @ 0.750 V; 128b @ 2 GHz @ 0.625 V) are
 * the operating points the evaluation uses.
 */
#include <cstdio>

#include "bench/bench_util.h"
#include "power/voltage.h"

using namespace catnap;

int
main(int argc, char **argv)
{
    // Analytic (no simulation runs); accepts the shared CLI so
    // reproduce.sh can pass --jobs uniformly.
    bench::parse_options(argc, argv, kJobsFlag);
    bench::header("Table 2: router width vs frequency vs voltage");

    std::printf("%-12s %14s %16s %12s\n", "design", "width (bits)",
                "frequency (GHz)", "voltage (V)");
    struct Row
    {
        const char *design;
        int width;
        double vdd;
        bool highlighted;
    };
    const Row rows[] = {
        {"Single-NoC", 512, 0.750, true},
        {"Single-NoC", 512, 0.625, false},
        {"Multi-NoC", 128, 0.750, false},
        {"Multi-NoC", 128, 0.625, true},
    };
    for (const auto &row : rows) {
        const double f = VoltageModel::max_frequency_ghz(row.width,
                                                         row.vdd);
        std::printf("%-12s %14d %16.2f %12.3f%s\n", row.design, row.width,
                    f, row.vdd, row.highlighted ? "  <== used" : "");
    }

    bench::paper_note("512b @ 0.750V (GHz)",
                      VoltageModel::max_frequency_ghz(512, 0.750), 2.0);
    bench::paper_note("512b @ 0.625V (GHz)",
                      VoltageModel::max_frequency_ghz(512, 0.625), 1.4);
    bench::paper_note("128b @ 0.750V (GHz)",
                      VoltageModel::max_frequency_ghz(128, 0.750), 2.9);
    bench::paper_note("128b @ 0.625V (GHz)",
                      VoltageModel::max_frequency_ghz(128, 0.625), 2.0);

    std::printf("\nVoltage needed for 2 GHz by router width:\n");
    for (int width : {64, 128, 256, 512}) {
        std::printf("  %4d bits: %.3f V\n", width,
                    VoltageModel::min_voltage_for(width, 2.0));
    }
    return 0;
}
