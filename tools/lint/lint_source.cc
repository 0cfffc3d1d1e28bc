#include "lint_source.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace catnap_lint {

bool
is_ident_char(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
is_ident_start(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
is_host_side(const std::string &path)
{
    if (path.find("src/exec/") != std::string::npos)
        return true;
    // Test drivers orchestrate simulations from the outside: host
    // timeouts and duration asserts legitimately read the host clock,
    // and their helper scaffolding is not tick-path code.
    if (path.find("tests/") != std::string::npos)
        return true;
    // The linter itself (--timing reads the host monotonic clock) —
    // but not its fixtures, which must flow through the full pipeline
    // to exercise the rules they seed.
    return path.find("tools/lint/") != std::string::npos &&
           path.find("fixtures") == std::string::npos;
}

namespace {

/**
 * Records `// catnap-lint: allow(L1,L3)` style suppressions found in
 * @p line_text (searched before comment stripping). A trailing allow
 * suppresses findings on its own line; an allow comment standing alone
 * on a line suppresses findings on the *next* line.
 */
void
collect_allows(const std::string &line_text, int line,
               std::map<int, std::set<std::string>> &allowed)
{
    const std::string marker = "catnap-lint: allow(";
    const auto pos = line_text.find(marker);
    if (pos == std::string::npos)
        return;
    const auto open = pos + marker.size();
    const auto close = line_text.find(')', open);
    if (close == std::string::npos)
        return;

    // Standalone comment line (only whitespace before the `//`)?
    const auto slashes = line_text.rfind("//", pos);
    bool standalone = false;
    if (slashes != std::string::npos) {
        standalone = true;
        for (std::size_t i = 0; i < slashes; ++i) {
            if (!std::isspace(static_cast<unsigned char>(line_text[i]))) {
                standalone = false;
                break;
            }
        }
    }
    const int target = standalone ? line + 1 : line;

    std::string rules = line_text.substr(open, close - open);
    std::string rule;
    std::istringstream rs(rules);
    while (std::getline(rs, rule, ',')) {
        rule.erase(std::remove_if(rule.begin(), rule.end(), ::isspace),
                   rule.end());
        if (!rule.empty())
            allowed[target].insert(rule);
    }
}

} // namespace

std::vector<Token>
tokenize(const std::string &text)
{
    std::string clean = text;
    enum class State { kCode, kLine, kBlock, kString, kChar };
    State st = State::kCode;
    for (std::size_t i = 0; i < clean.size(); ++i) {
        const char c = clean[i];
        const char n = i + 1 < clean.size() ? clean[i + 1] : '\0';
        switch (st) {
          case State::kCode:
            if (c == '/' && n == '/') {
                st = State::kLine;
                clean[i] = ' ';
            } else if (c == '/' && n == '*') {
                st = State::kBlock;
                clean[i] = ' ';
            } else if (c == '"') {
                st = State::kString;
            } else if (c == '\'') {
                st = State::kChar;
            }
            break;
          case State::kLine:
            if (c == '\n')
                st = State::kCode;
            else
                clean[i] = ' ';
            break;
          case State::kBlock:
            if (c == '*' && n == '/') {
                clean[i] = ' ';
                clean[i + 1] = ' ';
                ++i;
                st = State::kCode;
            } else if (c != '\n') {
                clean[i] = ' ';
            }
            break;
          case State::kString:
          case State::kChar: {
            const char quote = st == State::kString ? '"' : '\'';
            if (c == '\\') {
                clean[i] = ' ';
                if (n != '\n' && i + 1 < clean.size())
                    clean[i + 1] = ' ';
                ++i;
            } else if (c == quote) {
                st = State::kCode;
            } else if (c != '\n') {
                clean[i] = ' ';
            }
            break;
          }
        }
    }

    static const std::set<std::string> kTwoCharOps = {
        "::", "->", "==", "!=", "<=", ">=", "&&", "||", "<<",
        "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "++", "--",
    };

    std::vector<Token> tokens;
    int line = 1;
    for (std::size_t i = 0; i < clean.size();) {
        const char c = clean[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (is_ident_start(c)) {
            std::size_t j = i;
            while (j < clean.size() && is_ident_char(clean[j]))
                ++j;
            tokens.push_back({clean.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < clean.size() &&
                   (is_ident_char(clean[j]) || clean[j] == '.'))
                ++j;
            tokens.push_back({clean.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (i + 1 < clean.size() &&
            kTwoCharOps.count(clean.substr(i, 2)) > 0) {
            tokens.push_back({clean.substr(i, 2), line});
            i += 2;
            continue;
        }
        tokens.push_back({std::string(1, c), line});
        ++i;
    }
    return tokens;
}

bool
load_file(const std::string &path, SourceFile &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    out.path = path;
    std::istringstream ls(text);
    std::string line_text;
    int line = 1;
    while (std::getline(ls, line_text)) {
        collect_allows(line_text, line, out.allowed);
        ++line;
    }
    out.tokens = tokenize(text);
    return true;
}

bool
suppressed(const SourceFile &f, int line, const std::string &rule)
{
    const auto it = f.allowed.find(line);
    return it != f.allowed.end() && it->second.count(rule) > 0;
}

void
collect_files(const std::string &arg, std::vector<std::string> &files)
{
    namespace fs = std::filesystem;
    if (fs::is_directory(arg)) {
        std::vector<std::string> found;
        for (auto it = fs::recursive_directory_iterator(arg);
             it != fs::recursive_directory_iterator(); ++it) {
            // Fixture directories hold deliberately-broken inputs.
            if (it->is_directory() &&
                it->path().filename() == "fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file())
                continue;
            const std::string ext = it->path().extension().string();
            if (ext == ".h" || ext == ".hpp" || ext == ".cc" ||
                ext == ".cpp")
                found.push_back(it->path().string());
        }
        // Deterministic report order regardless of directory walk order.
        std::sort(found.begin(), found.end());
        files.insert(files.end(), found.begin(), found.end());
    } else {
        files.push_back(arg);
    }
}

} // namespace catnap_lint
