/**
 * @file
 * catnap_lint v4 — driver. The analysis itself lives in the library
 * next to this file:
 *
 *   lint_source.{h,cc}    tokenization, suppressions, file walking
 *   lint_graph.{h,cc}     class scopes, members, defs, call sites
 *   lint_effects.{h,cc}   field-level effect inference (closure)
 *   lint_rules.{h,cc}     L1-L7 rule implementations
 *   lint_manifest.{h,cc}  L8 effects manifest (emit + baseline diff)
 *   lint_cost.{h,cc}      L9 hot-path purity
 *   lint_hazard.{h,cc}    L11 determinism hazards
 *
 * The driver parses flags, runs the pipeline (tokenize -> call graph
 * -> effects -> rules), reports violations, and optionally emits SARIF
 * and the effects manifest. Exit codes: 0 clean, 1 violations found,
 * 2 usage or IO error (including a rule id the catalog does not have
 * and a blown --budget-ms). `--expect RULE` inverts: exit 0 iff at
 * least one violation of RULE was found (fixture tests).
 * `--list-rules` and `--version` print and exit 0. L10 (a static
 * hot-path cost manifest) is retired and its id is never reused.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/sarif.h"
#include "lint_cost.h"
#include "lint_effects.h"
#include "lint_graph.h"
#include "lint_hazard.h"
#include "lint_manifest.h"
#include "lint_rules.h"
#include "lint_source.h"

namespace {

using namespace catnap_lint;

constexpr const char *kVersion = "4.0.0";

const std::vector<catnap_tools::SarifRule> &
rule_table()
{
    static const std::vector<catnap_tools::SarifRule> kRules = {
        {"L1", "Determinism",
         "no wall clocks, libc/std RNG, or unordered containers in"
         " simulator code"},
        {"L2", "TwoPhaseDirect",
         "read-phase functions never directly call write-phase"
         " functions; evaluate/commit carry phase annotations"},
        {"L3", "CounterSafety",
         "no narrowing casts of Cycle expressions or bare -1"
         " sentinels"},
        {"L4", "TwoPhaseInterprocedural",
         "read-phase functions never transitively reach write-phase"
         " functions through unannotated helpers"},
        {"L5", "PhaseCoverage",
         "member-state writers reachable from the tick path carry a"
         " phase annotation"},
        {"L6", "AnnotationDrift",
         "inferred transitive effects match the CATNAP_PHASE_*"
         " annotation: READ functions do not commit peer-visible"
         " state, WRITE functions are not effect-pure"},
        {"L7", "CrossComponentEffects",
         "tick-path functions do not mutate state of other component"
         " instances outside CATNAP_SHARD_SAFE crossings"},
        {"L8", "EffectsManifest",
         "the inferred per-class effect contract matches the"
         " checked-in effects manifest"},
        {"L9", "HotPathPurity",
         "no dynamic allocation, lock acquisition, I/O, or exception"
         " throws in the tick closure (CATNAP_COLD_PATH opts slow"
         " paths out)"},
        {"L11", "DeterminismHazard",
         "no unordered-container iteration, pointer-keyed/ordered"
         " pointers, address-dependent values, or order-dependent"
         " float folds in evaluate-phase code"},
    };
    return kRules;
}

/** True when @p id names a rule of rule_table(). */
bool
known_rule(const std::string &id)
{
    const auto &table = rule_table();
    return std::any_of(table.begin(), table.end(),
                       [&id](const catnap_tools::SarifRule &r) {
                           return r.id == id;
                       });
}

void
write_lint_sarif(const std::string &path,
                 const std::vector<Violation> &violations)
{
    std::vector<catnap_tools::SarifResult> results;
    for (const Violation &v : violations) {
        catnap_tools::SarifResult r;
        r.rule_id = v.rule;
        r.level = "error";
        r.message = v.message;
        r.uri = v.file;
        r.line = v.line;
        results.push_back(std::move(r));
    }
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "catnap_lint: cannot write %s\n",
                     path.c_str());
        std::exit(2);
    }
    catnap_tools::write_sarif(os, "catnap_lint", kVersion,
                              rule_table(), results);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: catnap_lint [--rules L1,...,L11] [--expect RULE]"
        " [--sarif PATH]\n"
        "                   [--effects-out PATH]"
        " [--effects-baseline PATH]\n"
        "                   [--timing] [--budget-ms N]"
        " [--list-rules] [--version]\n"
        "                   <files-or-dirs>...\n");
    return 2;
}

/** Milliseconds elapsed since @p t0, as a double for printing. */
double
ms_since(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    return std::chrono::duration<double, std::milli>(dt).count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::set<std::string> rules;
    for (const auto &r : rule_table())
        rules.insert(r.id);
    std::string expect;
    std::string sarif_path;
    std::string effects_out;
    std::string effects_baseline;
    bool timing = false;
    long budget_ms = 0;
    std::vector<std::string> files;
    std::set<std::string> explicit_files;

    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--rules" && a + 1 < argc) {
            rules.clear();
            std::istringstream rs(argv[++a]);
            std::string r;
            while (std::getline(rs, r, ','))
                rules.insert(r);
        } else if (arg == "--expect" && a + 1 < argc) {
            expect = argv[++a];
        } else if (arg == "--sarif" && a + 1 < argc) {
            sarif_path = argv[++a];
        } else if (arg == "--effects-out" && a + 1 < argc) {
            effects_out = argv[++a];
        } else if (arg == "--effects-baseline" && a + 1 < argc) {
            effects_baseline = argv[++a];
        } else if (arg == "--list-rules") {
            for (const auto &r : rule_table())
                std::printf("%-4s %-24s %s\n", r.id.c_str(),
                            r.name.c_str(), r.short_desc.c_str());
            return 0;
        } else if (arg == "--version") {
            std::printf("catnap_lint %s\n", kVersion);
            return 0;
        } else if (arg == "--timing") {
            timing = true;
        } else if (arg == "--budget-ms" && a + 1 < argc) {
            budget_ms = std::strtol(argv[++a], nullptr, 10);
            if (budget_ms <= 0)
                return usage();
        } else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage();
        } else {
            if (!std::filesystem::is_directory(arg))
                explicit_files.insert(arg);
            collect_files(arg, files);
        }
    }
    if (files.empty())
        return usage();
    std::vector<std::string> named(rules.begin(), rules.end());
    if (!expect.empty())
        named.push_back(expect);
    for (const std::string &id : named) {
        if (!known_rule(id)) {
            std::fprintf(stderr,
                         "catnap_lint: unknown rule '%s' (try"
                         " --list-rules)\n",
                         id.c_str());
            return 2;
        }
    }

    const auto t_start = std::chrono::steady_clock::now();

    std::vector<SourceFile> sources;
    sources.reserve(files.size());
    for (const auto &path : files) {
        SourceFile f;
        if (!load_file(path, f)) {
            std::fprintf(stderr, "catnap_lint: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        f.explicit_input = explicit_files.count(path) > 0;
        sources.push_back(std::move(f));
    }
    const double ms_tokenize = ms_since(t_start);

    const bool need_graph = rules.count("L4") || rules.count("L5") ||
                            rules.count("L6") || rules.count("L7") ||
                            rules.count("L8") || rules.count("L9") ||
                            rules.count("L11") ||
                            !effects_out.empty() ||
                            !effects_baseline.empty();
    const bool need_effects = rules.count("L6") || rules.count("L7") ||
                              rules.count("L8") ||
                              rules.count("L11") ||
                              !effects_out.empty() ||
                              !effects_baseline.empty();

    // The annotation table, class hierarchy, and call graph span all
    // inputs so .cc definitions see the markers and member tables
    // declared in headers.
    const auto t_graph = std::chrono::steady_clock::now();
    PhaseTable table;
    Program prog;
    std::vector<std::vector<ClassScope>> scopes;
    scopes.reserve(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i) {
        scopes.push_back(collect_class_scopes(sources[i].tokens));
        collect_phase_annotations(sources[i], scopes[i], prog, table);
        register_classes(scopes[i], prog);
    }
    if (need_graph) {
        finalize_class_hierarchy(prog);
        for (std::size_t i = 0; i < sources.size(); ++i) {
            // Host-side files are outside the tick-path call graph.
            if (is_host_side(sources[i].path))
                continue;
            collect_members(sources[i], scopes[i], prog);
        }
        for (std::size_t i = 0; i < sources.size(); ++i) {
            if (is_host_side(sources[i].path))
                continue;
            collect_defs(static_cast<int>(i), sources[i], scopes[i],
                         prog);
        }
        scan_defs(sources, prog);
        for (FunctionDef &d : prog.defs) {
            d.phase = resolve_phase(prog, d);
            d.shard_safe = resolve_shard_safe(prog, d);
            d.cold_path = resolve_cold_path(prog, d);
        }
    }
    const double ms_graph = ms_since(t_graph);

    const auto t_effects = std::chrono::steady_clock::now();
    Effects fx;
    if (need_effects)
        fx = infer_effects(prog, sources);
    const double ms_effects = ms_since(t_effects);

    const auto t_rules = std::chrono::steady_clock::now();
    std::vector<Violation> violations;
    for (const auto &f : sources) {
        if (rules.count("L1"))
            check_l1(f, violations);
        if (rules.count("L2"))
            check_l2(f, table, violations);
        if (rules.count("L3"))
            check_l3(f, violations);
    }
    if (rules.count("L4"))
        check_l4(prog, sources, violations);
    if (rules.count("L5"))
        check_l5(prog, sources, violations);
    if (rules.count("L6"))
        check_l6(prog, fx, sources, violations);
    if (rules.count("L7"))
        check_l7(prog, fx, sources, violations);

    if (rules.count("L9"))
        check_l9(prog, compute_hot_set(prog), sources, violations);
    if (rules.count("L11"))
        check_l11(prog, fx, sources, violations);

    std::string manifest;
    if (need_effects &&
        (!effects_out.empty() || !effects_baseline.empty()))
        manifest = build_effects_manifest(prog, fx, sources);
    if (!effects_out.empty() &&
        !write_effects_manifest(effects_out, manifest)) {
        std::fprintf(stderr,
                     "catnap_lint: FAILED to write effects manifest"
                     " %s\n",
                     effects_out.c_str());
        return 2;
    }
    if (!effects_baseline.empty() && rules.count("L8"))
        check_l8_baseline(effects_baseline, manifest, violations);

    finalize_violations(violations);
    const double ms_rules = ms_since(t_rules);

    for (const auto &v : violations) {
        std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                    v.rule.c_str(), v.message.c_str());
    }

    if (!sarif_path.empty())
        write_lint_sarif(sarif_path, violations);

    const double ms_total = ms_since(t_start);
    if (timing) {
        // stderr so stdout stays deterministic for the fixture tests.
        std::fprintf(stderr,
                     "catnap_lint: timing tokenize=%.1fms"
                     " call-graph=%.1fms effects=%.1fms rules=%.1fms"
                     " total=%.1fms (%zu files, %zu defs)\n",
                     ms_tokenize, ms_graph, ms_effects, ms_rules,
                     ms_total, sources.size(), prog.defs.size());
    }
    if (budget_ms > 0 && ms_total > static_cast<double>(budget_ms)) {
        std::fprintf(stderr,
                     "catnap_lint: budget exceeded: %.1fms >"
                     " %ldms\n",
                     ms_total, budget_ms);
        return 2;
    }

    if (!expect.empty()) {
        const bool hit =
            std::any_of(violations.begin(), violations.end(),
                        [&expect](const Violation &v) {
                            return v.rule == expect;
                        });
        std::printf("catnap_lint: expected %s violation %s\n",
                    expect.c_str(), hit ? "found" : "NOT found");
        return hit ? 0 : 1;
    }

    if (!violations.empty()) {
        std::printf("catnap_lint: %zu violation(s) in %zu file(s)\n",
                    violations.size(), files.size());
        return 1;
    }
    return 0;
}
