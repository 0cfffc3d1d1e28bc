/**
 * @file
 * Source anchors for catnap_model's SARIF results. Each property P1-P6
 * names the production function whose logic it guards, by
 * repository-relative file and qualified name; the line is resolved
 * from the source tree when the SARIF is written, so an anchor follows
 * its function when the file changes instead of drifting silently.
 */
#ifndef CATNAP_TOOLS_MODEL_ANCHORS_H
#define CATNAP_TOOLS_MODEL_ANCHORS_H

#include <fstream>
#include <string>

namespace catnap_model {

/** Where a property's SARIF result points. */
struct PropertyAnchor
{
    const char *uri;      ///< repository-relative source file
    const char *function; ///< qualified name of the out-of-line definition
};

/** The anchor of property @p prop ("P1".."P6"). */
inline PropertyAnchor
property_anchor(const std::string &prop)
{
    if (prop == "P1") // forwarding progress
        return {"src/noc/router.cc", "Router::run_switch_allocation"};
    if (prop == "P2") // retry/escalation scan
        return {"src/catnap/gating.cc",
                "GatingPolicy::service_wake_retries"};
    if (prop == "P3") // never-sleep duty
        return {"src/catnap/gating.cc", "CatnapGatingPolicy::step"};
    if (prop == "P4") // occupancy conditions
        return {"src/noc/router.cc", "Router::can_sleep"};
    if (prop == "P5") // CSC crediting on the Sleep -> Wakeup edge
        return {"src/noc/router.cc", "Router::begin_wakeup"};
    return {"src/fault/fault.cc", "FaultController::escalate_wake_failure"};
}

/**
 * 1-based line of @p a's function definition under @p source_root: the
 * first line that starts (after indentation) with "Cls::name(". Returns
 * 0 when the file is unreadable or holds no such line.
 */
inline int
resolve_anchor_line(const std::string &source_root, const PropertyAnchor &a)
{
    std::ifstream in(source_root + "/" + a.uri);
    const std::string head = std::string(a.function) + "(";
    std::string text;
    for (int line = 1; std::getline(in, text); ++line) {
        const std::size_t start = text.find_first_not_of(" \t");
        if (start != std::string::npos &&
            text.compare(start, head.size(), head) == 0)
            return line;
    }
    return 0;
}

} // namespace catnap_model

#endif // CATNAP_TOOLS_MODEL_ANCHORS_H
