#include "lint_cost.h"

#include <set>

namespace catnap_lint {

namespace {

/** Identifiers whose presence in a hot body means dynamic allocation.
 * Container growth methods (push_back/resize/reserve) are deliberately
 * absent: amortised growth into pre-reserved storage is the sanctioned
 * hot-path idiom, and banning it would force suppressions everywhere
 * (see DESIGN.md §16 for the trade-off). */
const std::set<std::string> &
alloc_idents()
{
    static const std::set<std::string> s = {
        "new",      "delete",     "make_unique", "make_shared",
        "malloc",   "calloc",     "realloc",     "free",
        "strdup",   "aligned_alloc",
    };
    return s;
}

/** Lock/synchronisation types whose construction acquires a lock. */
const std::set<std::string> &
lock_idents()
{
    static const std::set<std::string> s = {
        "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        "condition_variable", "condition_variable_any",
    };
    return s;
}

/** Receiver methods that acquire or release a lock (`m.lock()`). */
const std::set<std::string> &
lock_methods()
{
    static const std::set<std::string> s = {
        "lock",          "unlock",          "try_lock",
        "try_lock_for",  "try_lock_until",  "lock_shared",
        "unlock_shared", "try_lock_shared", "wait",
        "notify_one",    "notify_all",
    };
    return s;
}

/** Identifiers that perform I/O (stream objects, stdio calls). */
const std::set<std::string> &
io_idents()
{
    static const std::set<std::string> s = {
        "printf", "fprintf", "vfprintf", "snprintf", "sprintf",
        "puts",   "fputs",   "putchar",  "fputc",    "fwrite",
        "fread",  "fopen",   "fclose",   "fflush",   "fgets",
        "fscanf", "scanf",   "ofstream", "ifstream", "fstream",
        "cout",   "cerr",    "clog",     "cin",      "getline",
        "system", "popen",   "remove",   "rename",
    };
    return s;
}

} // namespace

std::vector<char>
compute_hot_set(const Program &prog)
{
    std::vector<char> hot(prog.defs.size(), 0);
    std::vector<int> work;
    for (std::size_t i = 0; i < prog.defs.size(); ++i) {
        const FunctionDef &d = prog.defs[i];
        if (d.cold_path)
            continue;
        if (d.phase != 0 || d.name == "evaluate" || d.name == "commit") {
            hot[i] = 1;
            work.push_back(static_cast<int>(i));
        }
    }
    while (!work.empty()) {
        const auto di = static_cast<std::size_t>(work.back());
        work.pop_back();
        const FunctionDef &d = prog.defs[di];
        for (const CallSite &cs : d.calls) {
            for (const int t : resolve_call(prog, d, cs)) {
                const auto ti = static_cast<std::size_t>(t);
                if (hot[ti] || prog.defs[ti].cold_path)
                    continue;
                hot[ti] = 1;
                work.push_back(t);
            }
        }
    }
    return hot;
}

void
check_l9(const Program &prog, const std::vector<char> &hot,
         const std::vector<SourceFile> &sources,
         std::vector<Violation> &out)
{
    for (std::size_t i = 0; i < prog.defs.size(); ++i) {
        if (!hot[i])
            continue;
        const FunctionDef &d = prog.defs[i];
        const SourceFile &f =
            sources[static_cast<std::size_t>(d.file)];
        if (!in_contract_scope(f))
            continue;
        const std::string qual =
            d.cls.empty() ? d.name : d.cls + "::" + d.name;
        const auto &t = f.tokens;
        for (std::size_t k = d.body_open + 1;
             k < d.body_close && k < t.size(); ++k) {
            const std::string &s = t[k].text;
            std::string what;
            if (s == "throw") {
                what = "throws an exception";
            } else if (alloc_idents().count(s) > 0) {
                what = "performs dynamic allocation ('" + s + "')";
            } else if (lock_idents().count(s) > 0) {
                what = "acquires a lock ('" + s + "')";
            } else if (lock_methods().count(s) > 0 && k > 0 &&
                       (t[k - 1].text == "." ||
                        t[k - 1].text == "->") &&
                       k + 1 < t.size() && t[k + 1].text == "(") {
                what = "acquires/releases a lock ('." + s + "()')";
            } else if (io_idents().count(s) > 0) {
                what = "performs I/O ('" + s + "')";
            } else {
                continue;
            }
            add_violation(
                out, f, t[k].line, "L9",
                "hot-path purity: '" + qual +
                    "' is in the tick closure (reachable from a"
                    " phase-annotated entry point) but " +
                    what +
                    "; move the work off the per-cycle path or mark"
                    " the slow-path entry CATNAP_COLD_PATH"
                    " (common/phase.h)");
        }
    }
}

} // namespace catnap_lint
