/**
 * @file
 * catnap_model -- bounded explicit-state model checker for the Catnap
 * gating/congestion/fault protocol (DESIGN.md §11).
 *
 * Explores every interleaving of environment events (packet announce,
 * lost/stuck wakes, RCS glitches, subnet death, plain ticks) over a
 * 2-subnet 2x2-mesh instance of the production Router /
 * CongestionState / CatnapGatingPolicy classes, and proves six
 * protocol properties (P1-P6, see tools/model/checker.h) on every
 * reachable state. Exit codes:
 *   0  fixpoint reached, all properties hold (or the violation named
 *      by --expect-violation was found)
 *   1  property violated (or an expected violation was not found)
 *   2  usage error
 *   3  invalid option value
 *   4  state/depth cap hit before the fixpoint, no violation found
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/sarif.h"
#include "exec/sweep.h"
#include "model/anchors.h"
#include "model/checker.h"

namespace {

using catnap_model::CheckerOptions;
using catnap_model::CheckResult;

/** The seeded protocol bugs --mutate can switch on. */
const catnap::Names<bool> kMutations = {{"sleep-occupied", true}};

struct Cli
{
    CheckerOptions opts;
    std::string expect_violation; ///< e.g. "P4"; empty = expect clean
    std::string sarif_path;
    std::string trace_path;
    bool quiet = false;
};

void
write_model_sarif(const std::string &path, const CheckResult &result)
{
    const std::vector<catnap_tools::SarifRule> rules = {
        {"P1", "NoDeadlock",
         "every reachable state drains to quiescence"},
        {"P2", "WakeLatencyBound",
         "pending wakes resolve within the retry budget"},
        {"P3", "NeverSleepSubnet",
         "the promoted subnet never sleeps"},
        {"P4", "NoSleepOccupied",
         "no router sleeps with occupied buffers"},
        {"P5", "SleepAccounting",
         "sleep residency credits exactly max(0, period - t_breakeven)"},
        {"P6", "FaultDrains",
         "every fault state drains or escalates to failed"},
    };
    std::vector<catnap_tools::SarifResult> results;
    for (const auto &v : result.violations) {
        catnap_tools::SarifResult r;
        r.rule_id = v.property;
        r.level = "error";
        r.message = v.property + " violated: " + v.message + " (" +
                    std::to_string(v.trace.size()) +
                    "-step counterexample)";
        const catnap_model::PropertyAnchor anchor =
            catnap_model::property_anchor(v.property);
        r.uri = anchor.uri;
        r.line = catnap_model::resolve_anchor_line(CATNAP_SOURCE_DIR, anchor);
        if (r.line == 0)
            std::cerr << "catnap_model: cannot find " << anchor.function
                      << " in " << anchor.uri << "; anchoring at line 1\n";
        results.push_back(r);
    }
    std::ofstream os(path);
    if (!os) {
        std::cerr << "catnap_model: cannot write " << path << "\n";
        std::exit(2);
    }
    catnap_tools::write_sarif(os, "catnap_model", "2.0.0", rules,
                              results);
}

} // namespace

int
main(int argc, char **argv)
{
    Cli cli;
    using namespace catnap;
    parse_command_line(
        argc, argv,
        {"usage: catnap_model [options]",
         {{"--max-states", "N", "state cap (default 400000)",
           store_int(cli.opts.max_states, 0, 1ll << 40)},
          {"--max-depth", "N", "environment events per path (default 48)",
           store_int(cli.opts.max_depth, 0, 1 << 20)},
          {"--probe-bound", "N", "P1/P6 drain probe length (default 48)",
           store_int(cli.opts.probe_bound, 0, 1 << 20)},
          {"--fault-budget", "N", "faults per explored trace (default 1)",
           store_int(cli.opts.config.fault_budget, 0, 1 << 20)},
          {"--mutate", names_of(kMutations),
           "seed the sleep-with-occupied-buffer bug\n(P4 self-test)",
           store_name(cli.opts.config.mutate_unsafe_sleep, kMutations)},
          {"--expect-violation", "P", "exit 0 iff property P is violated",
           store_text(cli.expect_violation)},
          {"--sarif", "PATH", "write results as SARIF 2.1.0",
           store_text(cli.sarif_path)},
          {"--trace-out", "PATH", "save counterexample Perfetto trace",
           store_text(cli.trace_path)},
          {"--quiet", "", "suppress the counterexample replay",
           store_bool(cli.quiet, true)}}});

    const CheckResult result = catnap_model::run_checker(cli.opts);

    std::cout << "catnap_model: explored " << result.states
              << " reachable states, " << result.transitions
              << " transitions, max depth " << result.max_depth_seen
              << (result.fixpoint
                      ? " -- fixpoint reached\n"
                      : (result.capped ? " -- CAPPED before fixpoint\n"
                                       : "\n"));
    if (!cli.sarif_path.empty())
        write_model_sarif(cli.sarif_path, result);

    if (result.violations.empty()) {
        if (!cli.expect_violation.empty()) {
            std::cerr << "catnap_model: expected a violation of "
                      << cli.expect_violation
                      << " but every property held\n";
            return 1;
        }
        if (result.capped) {
            std::cerr << "catnap_model: exploration capped; raise "
                         "--max-states/--max-depth for a proof\n";
            return 4;
        }
        std::cout << "properties P1 (no deadlock), P2 (wake latency "
                     "bound), P3 (never-sleep subnet), P4 (no sleep "
                     "with occupied buffers), P5 (sleep accounting), "
                     "P6 (fault drain): all hold\n";
        return 0;
    }

    const auto &v = result.violations.front();
    std::cout << "VIOLATION " << v.property << ": " << v.message << "\n";
    if (!cli.quiet)
        catnap_model::replay_counterexample(cli.opts, v, std::cout,
                                            cli.trace_path);
    else if (!cli.trace_path.empty())
        catnap_model::replay_counterexample(cli.opts, v, std::cout,
                                            cli.trace_path);

    if (!cli.expect_violation.empty()) {
        if (v.property == cli.expect_violation) {
            std::cout << "catnap_model: found the expected "
                      << cli.expect_violation << " violation\n";
            return 0;
        }
        std::cerr << "catnap_model: expected " << cli.expect_violation
                  << " but found " << v.property << "\n";
        return 1;
    }
    return 1;
}
