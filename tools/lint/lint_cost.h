/**
 * @file
 * Hot-path purity analysis for catnap_lint (DESIGN.md §16).
 *
 * The *hot set* is the transitive call-graph closure of the tick
 * phase: every definition reachable from a phase-annotated function or
 * an evaluate/commit entry point without crossing a CATNAP_COLD_PATH
 * declaration (common/phase.h). Rule L9 consumes it:
 *
 *  L9  hot-path purity — no dynamic allocation, lock acquisition,
 *      I/O, or exception throws anywhere in the hot set. These are
 *      exactly the operations whose latency is unbounded (allocator
 *      locks, kernel calls) or whose control flow escapes the cycle
 *      barrier (throws), so one occurrence caps the tick rate and
 *      breaks the sharded core's bounded-cycle guarantee. Slow paths
 *      that legitimately allocate/IO/throw (checkpoint serialisation,
 *      fault handling, invariant reporting) opt out with
 *      CATNAP_COLD_PATH at their entry declaration.
 *
 * Scope matches L6-L8: definitions in contract scope (files under
 * src/, or named explicitly on the command line). The hot path's speed
 * is measured by benchmark/, not estimated here.
 */
#ifndef CATNAP_LINT_COST_H
#define CATNAP_LINT_COST_H

#include <vector>

#include "lint_graph.h"
#include "lint_rules.h"
#include "lint_source.h"

namespace catnap_lint {

/**
 * Per-definition hot-set membership. Roots are phase-annotated
 * definitions and evaluate/commit methods; propagation follows
 * resolve_call edges and stops at (never enters) CATNAP_COLD_PATH
 * definitions. Requires resolved phase and cold_path flags on every
 * def.
 */
std::vector<char> compute_hot_set(const Program &prog);

/** L9: bans allocation, locks, I/O, and throws in hot definitions. */
void check_l9(const Program &prog, const std::vector<char> &hot,
              const std::vector<SourceFile> &sources,
              std::vector<Violation> &out);

} // namespace catnap_lint

#endif // CATNAP_LINT_COST_H
