#include "lint_graph.h"

#include <algorithm>

namespace catnap_lint {

namespace {

constexpr auto npos = std::string::npos;

const std::set<std::string> &
assign_ops()
{
    static const std::set<std::string> ops = {
        "=",  "+=", "-=", "*=", "/=", "%=",
        "&=", "|=", "^=", "++", "--",
    };
    return ops;
}

const std::set<std::string> &
mut_methods()
{
    static const std::set<std::string> m = {
        "push_back", "pop_back",  "clear",        "resize",
        "assign",    "insert",    "erase",        "emplace_back",
        "emplace",   "reserve",   "fill",         "push",
        "pop",       "push_front", "pop_front",   "reset",
    };
    return m;
}

/** Idents that can appear in a type but never name a class we track. */
bool
is_type_noise(const std::string &s)
{
    static const std::set<std::string> noise = {
        "const", "volatile", "static", "inline", "constexpr", "virtual",
        "mutable", "typename", "struct", "class", "unsigned", "signed",
        "long", "short", "int", "char", "bool", "float", "double",
        "void", "auto", "std", "override", "final", "explicit",
        "friend", "noexcept", "public", "private", "protected",
    };
    return noise.count(s) > 0;
}

} // namespace

const std::set<std::string> &
non_call_keywords()
{
    static const std::set<std::string> kw = {
        "if",       "for",      "while",    "switch",     "catch",
        "return",   "sizeof",   "alignof",  "decltype",   "typeid",
        "noexcept", "new",      "delete",   "throw",      "operator",
        "constexpr", "alignas", "defined",  "static_assert",
        "assert",
    };
    return kw;
}

std::size_t
match_forward(const std::vector<Token> &t, std::size_t open,
              const std::string &opener, const std::string &closer)
{
    int depth = 0;
    for (std::size_t i = open; i < t.size(); ++i) {
        if (t[i].text == opener)
            ++depth;
        else if (t[i].text == closer && --depth == 0)
            return i;
    }
    return npos;
}

bool
is_member_ident(const std::string &s)
{
    return s.size() > 1 && s.back() == '_' && is_ident_start(s[0]);
}

std::vector<ClassScope>
collect_class_scopes(const std::vector<Token> &t)
{
    std::vector<ClassScope> scopes;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].text == "template" && i + 1 < t.size() &&
            t[i + 1].text == "<") {
            const std::size_t close = match_forward(t, i + 1, "<", ">");
            if (close != npos)
                i = close;
            continue;
        }
        if (t[i].text != "class" && t[i].text != "struct")
            continue;
        if (i > 0 &&
            (t[i - 1].text == "enum" || t[i - 1].text == "friend"))
            continue;
        if (i + 1 >= t.size() || !is_ident_start(t[i + 1].text[0]))
            continue;
        const std::string name = t[i + 1].text;
        // Walk the head (base list etc.) to the body `{`; a `;` is a
        // forward declaration, a `(` an elaborated type in a decl.
        // Identifiers after the `:` are the direct bases.
        std::size_t k = i + 2;
        bool in_bases = false;
        std::vector<std::string> bases;
        while (k < t.size() && t[k].text != "{" && t[k].text != ";" &&
               t[k].text != "(") {
            if (t[k].text == ":")
                in_bases = true;
            else if (in_bases && is_ident_start(t[k].text[0]) &&
                     !is_type_noise(t[k].text) &&
                     !(k + 1 < t.size() && t[k + 1].text == "::"))
                bases.push_back(t[k].text);
            ++k;
        }
        if (k >= t.size() || t[k].text != "{")
            continue;
        const std::size_t close = match_forward(t, k, "{", "}");
        if (close == npos)
            continue;
        scopes.push_back({k, close, name, std::move(bases)});
    }
    return scopes;
}

std::string
enclosing_class(const std::vector<ClassScope> &scopes, std::size_t idx)
{
    std::string best;
    std::size_t best_span = npos;
    for (const ClassScope &s : scopes) {
        if (idx > s.open && idx < s.close &&
            s.close - s.open < best_span) {
            best = s.name;
            best_span = s.close - s.open;
        }
    }
    return best;
}

std::pair<std::size_t, std::size_t>
find_body(const std::vector<Token> &t, std::size_t name_idx)
{
    if (name_idx + 1 >= t.size() || t[name_idx + 1].text != "(")
        return {npos, npos};
    const std::size_t params_end =
        match_forward(t, name_idx + 1, "(", ")");
    if (params_end == npos)
        return {npos, npos};

    std::size_t k = params_end + 1;
    while (k < t.size()) {
        const std::string &s = t[k].text;
        if (s == "const" || s == "override" || s == "final" ||
            s == "&" || s == "&&") {
            ++k;
            continue;
        }
        if (s == "noexcept") {
            ++k;
            if (k < t.size() && t[k].text == "(") {
                const std::size_t c = match_forward(t, k, "(", ")");
                if (c == npos)
                    return {npos, npos};
                k = c + 1;
            }
            continue;
        }
        if (s == "->") { // trailing return type
            ++k;
            while (k < t.size() && t[k].text != "{" &&
                   t[k].text != ";" && t[k].text != "=")
                ++k;
            continue;
        }
        break;
    }
    if (k >= t.size())
        return {npos, npos};

    if (t[k].text == ":") { // constructor initializer list
        ++k;
        while (k < t.size()) {
            while (k < t.size() && (is_ident_start(t[k].text[0]) ||
                                    t[k].text == "::"))
                ++k;
            if (k < t.size() && t[k].text == "<") {
                const std::size_t c = match_forward(t, k, "<", ">");
                if (c == npos)
                    return {npos, npos};
                k = c + 1;
            }
            if (k >= t.size())
                return {npos, npos};
            if (t[k].text == "(") {
                const std::size_t c = match_forward(t, k, "(", ")");
                if (c == npos)
                    return {npos, npos};
                k = c + 1;
            } else if (t[k].text == "{") {
                const std::size_t c = match_forward(t, k, "{", "}");
                if (c == npos)
                    return {npos, npos};
                k = c + 1;
            } else {
                return {npos, npos};
            }
            if (k < t.size() && t[k].text == ",") {
                ++k;
                continue;
            }
            break;
        }
    }

    if (k >= t.size() || t[k].text != "{")
        return {npos, npos};
    const std::size_t body_end = match_forward(t, k, "{", "}");
    if (body_end == npos)
        return {npos, npos};
    return {k, body_end};
}

void
register_classes(const std::vector<ClassScope> &scopes, Program &prog)
{
    for (const ClassScope &s : scopes) {
        prog.class_names.insert(s.name);
        auto &bases = prog.class_bases[s.name];
        for (const std::string &b : s.bases)
            if (std::find(bases.begin(), bases.end(), b) == bases.end())
                bases.push_back(b);
    }
}

void
finalize_class_hierarchy(Program &prog)
{
    // Transitive closure over the (small) direct-base lists.
    for (const auto &[cls, bases] : prog.class_bases) {
        std::vector<std::string> stack(bases.begin(), bases.end());
        auto &anc = prog.ancestors_of[cls];
        while (!stack.empty()) {
            const std::string b = stack.back();
            stack.pop_back();
            if (!anc.insert(b).second)
                continue;
            const auto it = prog.class_bases.find(b);
            if (it != prog.class_bases.end())
                stack.insert(stack.end(), it->second.begin(),
                             it->second.end());
        }
        for (const std::string &b : anc)
            prog.derived_of[b].insert(cls);
    }
}

void
collect_phase_annotations(const SourceFile &f,
                          const std::vector<ClassScope> &scopes,
                          Program &prog, PhaseTable &table)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        const bool is_read = t[i].text == "CATNAP_PHASE_READ";
        const bool is_write = t[i].text == "CATNAP_PHASE_WRITE";
        const bool is_shard = t[i].text == "CATNAP_SHARD_SAFE";
        const bool is_cold = t[i].text == "CATNAP_COLD_PATH";
        if (!is_read && !is_write && !is_shard && !is_cold)
            continue;
        for (std::size_t j = i + 1; j + 1 < t.size() && j < i + 16; ++j) {
            if (t[j + 1].text == "(" && is_ident_start(t[j].text[0]) &&
                non_call_keywords().count(t[j].text) == 0 &&
                t[j].text != "CATNAP_PHASE_READ" &&
                t[j].text != "CATNAP_PHASE_WRITE" &&
                t[j].text != "CATNAP_SHARD_SAFE" &&
                t[j].text != "CATNAP_COLD_PATH") {
                std::string cls;
                if (j >= 2 && t[j - 1].text == "::" &&
                    is_ident_start(t[j - 2].text[0]))
                    cls = t[j - 2].text;
                else
                    cls = enclosing_class(scopes, j);
                if (is_cold) {
                    prog.cold_annots.push_back({t[j].text, cls});
                } else if (is_shard) {
                    prog.shard_annots.push_back({t[j].text, cls});
                } else {
                    (is_read ? table.read_fns : table.write_fns)
                        .insert(t[j].text);
                    prog.annots.push_back(
                        {t[j].text, cls, is_read ? 1 : 2});
                }
                break;
            }
        }
    }
}

void
collect_members(const SourceFile &f,
                const std::vector<ClassScope> &scopes, Program &prog)
{
    const auto &t = f.tokens;
    for (const ClassScope &s : scopes) {
        for (std::size_t i = s.open + 1; i < s.close; ++i) {
            if (!is_member_ident(t[i].text))
                continue;
            // A declaration looks like `<type tokens> foo_ ;` (or with
            // `= init`, `{init}`, or `[N]` after the name) where the
            // token before the name belongs to a type.
            const std::string &nxt = t[i + 1].text;
            if (nxt != ";" && nxt != "=" && nxt != "{" && nxt != "[")
                continue;
            const std::string &prv = t[i - 1].text;
            if (!(is_ident_start(prv[0]) || prv == ">" || prv == "*" ||
                  prv == "&"))
                continue;
            // Back-scan the type tokens to the start of the statement.
            // Reject spans that contain expression tokens — they mean
            // this is a use inside a method body, not a declaration.
            bool has_ptr = false, has_ref = false, owned_ptr = false;
            bool unordered = false, float_typed = false;
            bool reject = false;
            std::string cls;
            for (std::size_t k = i; k-- > s.open + 1;) {
                const std::string &s2 = t[k].text;
                if (s2 == ";" || s2 == "{" || s2 == "}" || s2 == ":" ||
                    s2 == "public" || s2 == "private" ||
                    s2 == "protected")
                    break;
                if (s2 == "(" || s2 == ")" || s2 == "." ||
                    s2 == "->" || s2 == "return" ||
                    assign_ops().count(s2) > 0) {
                    reject = true;
                    break;
                }
                if (s2 == "*")
                    has_ptr = true;
                else if (s2 == "&")
                    has_ref = true;
                else if (s2 == "unique_ptr" || s2 == "shared_ptr")
                    owned_ptr = true;
                else if (s2 == "unordered_map" ||
                         s2 == "unordered_set" ||
                         s2 == "unordered_multimap" ||
                         s2 == "unordered_multiset")
                    unordered = true;
                else if (s2 == "float" || s2 == "double")
                    float_typed = true;
                else if (cls.empty() && is_ident_start(s2[0]) &&
                         prog.class_names.count(s2) > 0)
                    cls = s2; // last class ident wins (innermost type)
            }
            if (reject)
                continue;
            // Only record the *innermost* declaration: nested class
            // scopes are walked too, so skip names whose innermost
            // enclosing class is not this scope.
            if (enclosing_class(scopes, i) != s.name)
                continue;
            MemberDecl d;
            if (owned_ptr)
                d.kind = MemberKind::kOwnedPtr;
            else if (has_ptr || has_ref)
                d.kind = MemberKind::kPeerPtr;
            else
                d.kind = MemberKind::kValue;
            d.cls = cls;
            d.unordered = unordered;
            d.float_typed = float_typed;
            prog.members.emplace(std::make_pair(s.name, t[i].text), d);
        }
    }
}

namespace {

/** What a local name stands for inside one function body. */
struct Alias
{
    enum class Kind : std::uint8_t {
        kMemberRef, ///< `auto &x = foo_[...]`: reference into a member
        kPeer,      ///< `Router *x = ...`: an explicitly-typed peer
        kParamRef,  ///< `auto &x = param...`: reference via a parameter
    };
    Kind kind = Kind::kPeer;
    std::string field; ///< member field key (kMemberRef)
    std::string cls;   ///< peer class (kPeer)
    int param = -1;    ///< parameter index (kParamRef)
    /** An iterator local (`auto it = c.find(...)`). ++/--/reassign
     * move the cursor (a read of the container); only a deref
     * reaches the element. */
    bool iter = false;
};

/** Context a field/call chain currently runs in. */
struct ChainCtx
{
    enum class Kind : std::uint8_t {
        kOwn,        ///< fields of the enclosing class
        kOwnedField, ///< inside an owned member object (collapse key)
        kPeer,       ///< a peer instance
        kParam,      ///< a reference/pointer parameter
        kResult,     ///< result of a call (peer-origin tracks class)
        kDead,       ///< untrackable; record nothing
    };
    Kind kind = Kind::kDead;
    std::string key;  ///< field key so far (kOwn/kOwnedField/kPeer)
    std::string cls;  ///< current object's class, when known
    /** Instance class the chain crossed into (kPeer). Unlike `cls`,
     * this is latched at the crossing and survives descent into the
     * peer's value members, so the recorded edge names the peer
     * instance rather than a sub-object's element class. */
    std::string peer_cls;
    int param = -1;   ///< parameter index (kParam)
    bool peer_origin = false; ///< kResult: producing call was on a peer
    int prev_call = -1;       ///< kResult: producing call index
};

ChainCtx classify_base(const Program &prog, const FunctionDef &d,
                       const std::map<std::string, Alias> &aliases,
                       const std::string &id);

/** Re-encodes a raw argument base identifier into the form the effect
 * pass binds on: "" unknown, "this", "#<idx>" parameter, "@<Cls>"
 * peer instance, or an own/owned member field key. */
std::string
encode_arg_base(const Program &prog, const FunctionDef &d,
                const std::map<std::string, Alias> &aliases,
                const std::string &base)
{
    if (base.empty() || base == "this")
        return base;
    const ChainCtx c = classify_base(prog, d, aliases, base);
    switch (c.kind) {
      case ChainCtx::Kind::kOwn:
      case ChainCtx::Kind::kOwnedField:
        return c.key;
      case ChainCtx::Kind::kPeer:
        return c.cls.empty() ? std::string() : "@" + c.cls;
      case ChainCtx::Kind::kParam:
        return "#" + std::to_string(c.param);
      default:
        return std::string();
    }
}

/// No-such-parameter result of param_index (distinct from any index).
constexpr int kNoParam = -1;

int
param_index(const FunctionDef &d, const std::string &name)
{
    for (std::size_t p = 0; p < d.params.size(); ++p)
        if (d.params[p].name == name)
            return static_cast<int>(p);
    return kNoParam;
}

/** Parses the top-level argument base identifiers of a call whose `(`
 * is at @p open (matching close at @p close). `&x`/`*x` unwrap to x,
 * `std::move(x)` and similar single-arg wrappers look inside, `this`
 * stays "this", anything else (literals, call results, expressions
 * with operators before the base) becomes "". */
std::vector<std::string>
parse_arg_bases(const std::vector<Token> &t, std::size_t open,
                std::size_t close)
{
    std::vector<std::string> bases;
    if (open + 1 >= close)
        return bases; // no arguments
    std::size_t i = open + 1;
    while (i < close) {
        // Find this argument's base.
        std::string base;
        std::size_t j = i;
        while (j < close && (t[j].text == "&" || t[j].text == "*"))
            ++j;
        for (int hops = 0; j < close && hops < 4; ++hops) {
            const std::string &s = t[j].text;
            if (s == "this") {
                base = "this";
                break;
            }
            if (!is_ident_start(s[0]))
                break;
            if (j + 1 < close && t[j + 1].text == "::") {
                j += 2; // qualified name: keep walking
                continue;
            }
            if (j + 1 < close && t[j + 1].text == "(") {
                // Wrapper call: look inside std::move/forward-style
                // single wrappers, otherwise the base is a call result.
                if (s == "move" || s == "forward") {
                    ++j;
                    while (j + 1 < close &&
                           (t[j + 1].text == "&" || t[j + 1].text == "*"))
                        ++j;
                    ++j;
                    continue;
                }
                break;
            }
            base = s;
            break;
        }
        bases.push_back(base);
        // Advance to the next top-level comma.
        int pd = 0, bd = 0, cd = 0, ad = 0;
        while (i < close) {
            const std::string &s = t[i].text;
            if (s == "(")
                ++pd;
            else if (s == ")")
                --pd;
            else if (s == "[")
                ++bd;
            else if (s == "]")
                --bd;
            else if (s == "{")
                ++cd;
            else if (s == "}")
                --cd;
            else if (s == "<")
                ++ad;
            else if (s == ">" && ad > 0)
                --ad;
            else if (s == "," && pd == 0 && bd == 0 && cd == 0 &&
                     ad == 0)
                break;
            ++i;
        }
        if (i >= close)
            break;
        ++i; // past the comma
    }
    return bases;
}

/** Parses the parameter list between @p open and @p close into
 * @p out. Default arguments are stripped; the parameter name is the
 * last identifier of each (truncated) declarator. */
void
parse_params(const std::vector<Token> &t, std::size_t open,
             std::size_t close, const Program &prog,
             std::vector<Param> &out)
{
    std::size_t i = open + 1;
    if (i >= close)
        return;
    if (close == i + 1 && t[i].text == "void")
        return;
    while (i < close) {
        Param p;
        std::string last_ident;
        int pd = 0, bd = 0, cd = 0, ad = 0;
        bool in_default = false;
        while (i < close) {
            const std::string &s = t[i].text;
            if (s == "(")
                ++pd;
            else if (s == ")")
                --pd;
            else if (s == "[")
                ++bd;
            else if (s == "]")
                --bd;
            else if (s == "{")
                ++cd;
            else if (s == "}")
                --cd;
            else if (s == "<")
                ++ad;
            else if (s == ">" && ad > 0)
                --ad;
            else if (s == "," && pd == 0 && bd == 0 && cd == 0 &&
                     ad == 0)
                break;
            if (!in_default) {
                if (s == "=" && pd == 0 && bd == 0 && cd == 0 &&
                    ad == 0) {
                    in_default = true;
                } else if (s == "&" || s == "*") {
                    if (ad == 0)
                        p.by_ref = true;
                } else if (s == "const") {
                    p.is_const = true;
                } else if (is_ident_start(s[0]) && !is_type_noise(s)) {
                    if (!last_ident.empty() &&
                        prog.class_names.count(last_ident) > 0)
                        p.cls = last_ident;
                    last_ident = s;
                }
            }
            ++i;
        }
        if (!last_ident.empty()) {
            if (prog.class_names.count(last_ident) > 0 && p.cls.empty())
                p.cls = last_ident; // unnamed param of class type
            else
                p.name = last_ident;
        }
        out.push_back(std::move(p));
        if (i >= close)
            break;
        ++i; // past the comma
    }
}

/** Classifies the base identifier of a chain in @p d's body. */
ChainCtx
classify_base(const Program &prog, const FunctionDef &d,
              const std::map<std::string, Alias> &aliases,
              const std::string &id)
{
    ChainCtx c;
    if (id == "this") {
        c.kind = ChainCtx::Kind::kOwn;
        c.cls = d.cls;
        return c;
    }
    const auto ai = aliases.find(id);
    if (ai != aliases.end()) {
        const Alias &a = ai->second;
        switch (a.kind) {
          case Alias::Kind::kMemberRef:
            c.kind = ChainCtx::Kind::kOwn;
            c.key = a.field;
            c.cls = a.cls;
            break;
          case Alias::Kind::kPeer:
            c.kind = ChainCtx::Kind::kPeer;
            c.cls = a.cls;
            c.peer_cls = a.cls;
            break;
          case Alias::Kind::kParamRef:
            c.kind = ChainCtx::Kind::kParam;
            c.param = a.param;
            c.cls = a.cls;
            break;
        }
        return c;
    }
    const int pi = param_index(d, id);
    if (pi >= 0) {
        c.kind = ChainCtx::Kind::kParam;
        c.param = pi;
        c.cls = d.params[static_cast<std::size_t>(pi)].cls;
        return c;
    }
    if (is_member_ident(id)) {
        const auto mi = prog.members.find({d.cls, id});
        if (mi != prog.members.end() &&
            mi->second.kind == MemberKind::kPeerPtr) {
            c.kind = ChainCtx::Kind::kPeer;
            c.key = id; // remembered so the deref reads the field
            c.cls = mi->second.cls;
            c.peer_cls = mi->second.cls;
            return c;
        }
        c.kind = mi != prog.members.end() && !mi->second.cls.empty()
                     ? ChainCtx::Kind::kOwnedField
                     : ChainCtx::Kind::kOwn;
        c.key = id;
        if (mi != prog.members.end())
            c.cls = mi->second.cls;
        return c;
    }
    c.kind = ChainCtx::Kind::kDead;
    return c;
}

/**
 * Fills @p a with what a reference bound to @p base stands for (the
 * `auto &name = base` rule): a member, a peer or a parameter. False
 * when @p base reaches no storage a chain can name.
 */
bool
reference_alias(const ChainCtx &base, Alias &a)
{
    switch (base.kind) {
      case ChainCtx::Kind::kOwn:
      case ChainCtx::Kind::kOwnedField:
        if (base.key.empty())
            return false;
        a.kind = Alias::Kind::kMemberRef;
        a.field = base.key;
        a.cls = base.cls;
        return true;
      case ChainCtx::Kind::kPeer:
        a.kind = Alias::Kind::kPeer;
        a.cls = base.cls;
        return true;
      case ChainCtx::Kind::kParam:
        a.kind = Alias::Kind::kParamRef;
        a.param = base.param;
        a.cls = base.cls;
        return true;
      default:
        return false;
    }
}

/** Records one resolved access on the current chain context. */
void
record_access(FunctionDef &d, const ChainCtx &c, bool write, int line)
{
    switch (c.kind) {
      case ChainCtx::Kind::kOwn:
      case ChainCtx::Kind::kOwnedField:
        if (!c.key.empty()) {
            d.accesses.push_back({c.key, write, line});
            if (write)
                d.writes_members = true;
        }
        break;
      case ChainCtx::Kind::kPeer: {
        const std::string &pcls =
            c.peer_cls.empty() ? c.cls : c.peer_cls;
        if (!pcls.empty() && !c.key.empty()) {
            d.peer_accesses.push_back({pcls, c.key, write, line});
            if (write)
                d.writes_members = true;
        }
        break;
      }
      case ChainCtx::Kind::kParam:
        if (c.param >= 0)
            d.param_accesses.push_back({c.param, write, line});
        break;
      case ChainCtx::Kind::kResult:
      case ChainCtx::Kind::kDead:
        break;
    }
}

/** Extends @p c by a plain (non-call) data-member selector @p field:
 * raw-pointer members of a known current class switch the chain into
 * peer context; everything else extends/keeps the collapse key. */
void
follow_field(const Program &prog, ChainCtx &c, const std::string &field)
{
    if (!c.cls.empty()) {
        const auto mi = prog.members.find({c.cls, field});
        if (mi != prog.members.end()) {
            if (mi->second.kind == MemberKind::kPeerPtr &&
                !mi->second.cls.empty()) {
                // Crossing a raw pointer: now on another instance.
                c.kind = ChainCtx::Kind::kPeer;
                c.cls = mi->second.cls;
                c.peer_cls = mi->second.cls;
                c.key.clear();
                return;
            }
            c.cls = mi->second.cls;
        } else {
            c.cls.clear();
        }
    }
    switch (c.kind) {
      case ChainCtx::Kind::kOwn:
      case ChainCtx::Kind::kOwnedField:
      case ChainCtx::Kind::kPeer:
        if (c.key.empty())
            c.key = field;
        else if (c.key.find('.') == npos)
            c.key += "." + field;
        break;
      default:
        break;
    }
}

/**
 * Scans a body range for field accesses and call sites (see the file
 * comment of lint_graph.h for the ownership model). Alias
 * declarations (`auto &x = foo_[...]`, `Router *nbr = ...`, range-for
 * over members) are tracked so writes through them land on the right
 * field or peer.
 */
void
scan_body(const Program &prog, const std::vector<Token> &t,
          std::size_t body_open, std::size_t body_close, FunctionDef &d)
{
    std::map<std::string, Alias> aliases;
    // Token positions that belong to recognised alias declarations:
    // the declared name (followed by `=`/`:`, which would otherwise
    // read as a write to the aliased member) and the RHS base (whose
    // bare-key access would poison the field-precise keys the alias's
    // use sites carry). Pass 2 skips chains starting there.
    std::set<std::size_t> decl_tokens;

    // Pass 1: alias declarations (declarations precede uses, but a
    // dedicated pass keeps the main scan simple).
    for (std::size_t i = body_open + 1; i < body_close; ++i) {
        const std::string &id = t[i].text;
        if (!is_ident_start(id[0]))
            continue;
        // `auto [const] &name = base...` / `for (auto &name : base...)`
        // and by-value iterator locals `auto it = base.find(...)`,
        // whose copies still refer into the container's storage.
        if (id == "auto") {
            std::size_t k = i + 1;
            if (k < body_close && t[k].text == "const")
                ++k;
            bool by_ref = false;
            if (k < body_close &&
                (t[k].text == "&" || t[k].text == "&&")) {
                by_ref = true;
                ++k;
            }
            if (k >= body_close || !is_ident_start(t[k].text[0]))
                continue;
            const std::string name = t[k].text;
            const std::size_t name_idx = k;
            ++k;
            if (k >= body_close ||
                (t[k].text != "=" && t[k].text != ":"))
                continue;
            ++k;
            if (k >= body_close)
                continue;
            bool is_iter = false;
            if (!by_ref) {
                // A plain copy is a snapshot, not an alias — except
                // an iterator, which stays a cursor into the
                // container (`it->second` reaches owned storage).
                static const std::set<std::string> kIterFns = {
                    "find",        "begin",       "end",
                    "rbegin",      "rend",        "cbegin",
                    "cend",        "lower_bound", "upper_bound",
                };
                if (k + 3 >= body_close ||
                    (t[k + 1].text != "." && t[k + 1].text != "->") ||
                    kIterFns.count(t[k + 2].text) == 0 ||
                    t[k + 3].text != "(")
                    continue;
                is_iter = true;
            }
            Alias a;
            a.iter = is_iter;
            if (!reference_alias(
                    classify_base(prog, d, aliases, t[k].text), a))
                continue;
            aliases[name] = a;
            decl_tokens.insert(name_idx);
            decl_tokens.insert(k);
            continue;
        }
        // `for (<T> [const] &name : base...)` for any element type T
        // (`int`, `Cycle`, `std::vector<int>`): bound like `auto &`.
        // The typed rules below run later over the same header and
        // refine a class or container-of-class element.
        if (id == "for" && i + 1 < body_close && t[i + 1].text == "(") {
            std::size_t k = i + 2;
            int depth = 0;
            for (; k < body_close; ++k) {
                const std::string &s2 = t[k].text;
                if (s2 == "(" || s2 == "[") {
                    ++depth;
                } else if (s2 == ")" || s2 == "]") {
                    if (depth-- == 0)
                        break;
                } else if (s2 == ";" || (s2 == ":" && depth == 0)) {
                    break;
                }
            }
            if (k + 1 >= body_close || t[k].text != ":" || k < i + 5 ||
                (t[k - 2].text != "&" && t[k - 2].text != "&&") ||
                !is_ident_start(t[k - 1].text[0]) ||
                !is_ident_start(t[k + 1].text[0]))
                continue;
            Alias a;
            if (!reference_alias(
                    classify_base(prog, d, aliases, t[k + 1].text), a))
                continue;
            aliases[t[k - 1].text] = a;
            decl_tokens.insert(k - 1);
            decl_tokens.insert(k + 1);
            continue;
        }
        // `std::<container><Cls> [const] & name =|: base` — a
        // reference to container storage; the element class rides
        // along so a nested range-for over it stays owned.
        if (id == "std" && i + 1 < body_close &&
            t[i + 1].text == "::" && i + 2 < body_close &&
            is_ident_start(t[i + 2].text[0]) && i + 3 < body_close &&
            t[i + 3].text == "<") {
            std::string elem;
            int depth = 0;
            std::size_t k = i + 3;
            for (; k < body_close; ++k) {
                const std::string &s2 = t[k].text;
                if (s2 == "<") {
                    ++depth;
                } else if (s2 == ">") {
                    if (--depth == 0)
                        break;
                } else if (s2 == ">>") {
                    depth -= 2;
                    if (depth <= 0)
                        break;
                } else if (s2 == ";" || s2 == "{") {
                    depth = -1;
                    break;
                } else if (is_ident_start(s2[0]) &&
                           prog.class_names.count(s2) > 0) {
                    elem = s2;
                }
            }
            if (depth != 0 || elem.empty() || k + 1 >= body_close)
                continue;
            ++k;
            if (k < body_close && t[k].text == "const")
                ++k;
            if (k >= body_close || t[k].text != "&")
                continue;
            ++k;
            if (k >= body_close || !is_ident_start(t[k].text[0]))
                continue;
            const std::string name = t[k].text;
            const std::size_t name_idx = k;
            ++k;
            if (k >= body_close ||
                (t[k].text != "=" && t[k].text != ":"))
                continue;
            ++k;
            if (k >= body_close || !is_ident_start(t[k].text[0]))
                continue;
            const ChainCtx base =
                classify_base(prog, d, aliases, t[k].text);
            Alias a;
            a.cls = elem;
            if ((base.kind == ChainCtx::Kind::kOwn ||
                 base.kind == ChainCtx::Kind::kOwnedField) &&
                !base.key.empty()) {
                a.kind = Alias::Kind::kMemberRef;
                a.field = base.key;
            } else if (base.kind == ChainCtx::Kind::kParam) {
                a.kind = Alias::Kind::kParamRef;
                a.param = base.param;
            } else {
                a.kind = Alias::Kind::kPeer;
            }
            aliases[name] = a;
            decl_tokens.insert(name_idx);
            decl_tokens.insert(k);
            continue;
        }
        // `Cls [const] *|& name =|:` — an explicitly-typed class
        // local. A reference into *owned* storage of the declared
        // type (range-for over a value container, a member element)
        // stays on this shard; everything else is a peer instance.
        if (prog.class_names.count(id) > 0) {
            std::size_t k = i + 1;
            if (k < body_close && t[k].text == "const")
                ++k;
            if (k >= body_close ||
                (t[k].text != "*" && t[k].text != "&"))
                continue;
            ++k;
            if (k >= body_close || !is_ident_start(t[k].text[0]))
                continue;
            const std::string name = t[k].text;
            const std::size_t name_idx = k;
            ++k;
            if (k >= body_close ||
                (t[k].text != "=" && t[k].text != ":"))
                continue;
            ++k;
            while (k < body_close &&
                   (t[k].text == "&" || t[k].text == "*"))
                ++k;
            Alias a;
            a.kind = Alias::Kind::kPeer;
            a.cls = id;
            if (k < body_close && is_ident_start(t[k].text[0])) {
                const ChainCtx base =
                    classify_base(prog, d, aliases, t[k].text);
                if ((base.kind == ChainCtx::Kind::kOwn ||
                     base.kind == ChainCtx::Kind::kOwnedField) &&
                    !base.key.empty() && base.cls == id) {
                    a.kind = Alias::Kind::kMemberRef;
                    a.field = base.key;
                }
                decl_tokens.insert(k);
            }
            aliases[name] = a;
            decl_tokens.insert(name_idx);
        }
    }

    // Pass 2: chains.
    bool prefix_write = false;
    for (std::size_t i = body_open + 1; i < body_close; ++i) {
        const std::string &id = t[i].text;

        if (id == "++" || id == "--") {
            prefix_write = true;
            continue;
        }
        if (!is_ident_start(id[0])) {
            prefix_write = false;
            continue;
        }
        const bool was_prefix = prefix_write;
        prefix_write = false;

        // Chain bases only: selectors are consumed by the chain walk.
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))
            continue;
        if (non_call_keywords().count(id) > 0)
            continue;
        // Alias declarations were consumed by pass 1: the name token
        // (followed by `=`) is not a write, and the RHS base's access
        // is carried field-precisely by the alias's use sites.
        if (decl_tokens.count(i) > 0)
            continue;
        // Iterator cursor moves (`++it`, `it = c.erase(it)`) and
        // comparisons read the container; only a deref (`it->...`)
        // reaches the element and continues as a normal chain.
        {
            const auto ia = aliases.find(id);
            if (ia != aliases.end() && ia->second.iter) {
                const std::string &nxt =
                    i + 1 < body_close ? t[i + 1].text : "";
                if (nxt != "." && nxt != "->" && nxt != "[") {
                    if (ia->second.kind == Alias::Kind::kMemberRef)
                        d.accesses.push_back(
                            {ia->second.field, false, t[i].line});
                    continue;
                }
            }
        }

        ChainCtx chain;
        std::size_t chain_start = i + 1;

        // Bare call base: `name(...)` (with optional `Cls::`).
        if (i + 1 < body_close && t[i + 1].text == "(" &&
            id != "this") {
            CallSite cs;
            cs.name = id;
            cs.line = t[i].line;
            if (i >= 2 && t[i - 1].text == "::" &&
                is_ident_start(t[i - 2].text[0]))
                cs.cls_hint = t[i - 2].text;
            const std::size_t close =
                match_forward(t, i + 1, "(", ")");
            if (close != npos && close < body_close)
                cs.arg_bases = parse_arg_bases(t, i + 1, close);
            // Known-mutating std algorithms: they write through their
            // arguments, which no summary would otherwise see (there
            // is no definition to close over). Without this, a WRITE
            // function whose whole effect is `std::sort(queue_...)`
            // looks effect-pure to L6.
            static const std::set<std::string> kMutFreeFns = {
                "sort",   "stable_sort", "fill",      "fill_n",
                "swap",   "iota",        "shuffle",   "transform",
                "memset", "memcpy",      "memmove",   "partial_sort",
            };
            // Destination-only writers: only the first argument is
            // mutated; the rest are reads (`memcpy(&bits, &v, n)` must
            // not mark `v` written, or every caller passing a member
            // inherits a phantom member write). `transform` writes its
            // output iterator (argument 3 in the unary form).
            static const std::set<std::string> kDstOnlyFns = {
                "memset", "memcpy", "memmove",
            };
            // Only a `std::` call or a name no project function bears:
            // a project `sort` has a body the effect pass closes over.
            const bool std_call =
                cs.cls_hint == "std" ||
                (cs.cls_hint.empty() && prog.defs_by_name.count(id) == 0);
            if (kMutFreeFns.count(id) > 0 && std_call) {
                for (std::size_t ai = 0; ai < cs.arg_bases.size();
                     ++ai) {
                    const std::string &b = cs.arg_bases[ai];
                    if (b.empty() || b == "this")
                        continue;
                    bool arg_written = true;
                    if (kDstOnlyFns.count(id) > 0)
                        arg_written = ai == 0;
                    else if (id == "transform")
                        arg_written = ai >= 2;
                    ChainCtx ac = classify_base(prog, d, aliases, b);
                    if (ac.kind != ChainCtx::Kind::kDead)
                        record_access(d, ac, arg_written, t[i].line);
                }
            }
            const int bare_idx = static_cast<int>(d.calls.size());
            d.calls.push_back(std::move(cs));
            // `helper(args).method(...)`: keep walking the chain on
            // the call's result so the trailing method call is seen
            // (otherwise `ni(src).offer_packet(p)` contributes no
            // effect and the caller looks effect-pure to L6). The
            // result of a bare (same-instance) call is treated as
            // own-side storage — the accessor idiom returns a
            // reference into owned state — so no peer edge is made.
            if (close == npos || close + 1 >= body_close ||
                (t[close + 1].text != "." && t[close + 1].text != "->"))
                continue;
            chain = ChainCtx{};
            chain.kind = ChainCtx::Kind::kResult;
            chain.prev_call = bare_idx;
            chain_start = close + 1;
        } else {
            // Field/receiver chain.
            chain = classify_base(prog, d, aliases, id);
            if (chain.kind == ChainCtx::Kind::kDead)
                continue;
            // A peer-pointer *member* base: only an actual deref
            // crosses to the peer (and reads the pointer field on the
            // way). A plain use or assignment of the pointer itself
            // is an access to the owner's own field.
            if (chain.kind == ChainCtx::Kind::kPeer &&
                !chain.key.empty()) {
                const bool deref =
                    i + 1 < body_close &&
                    (t[i + 1].text == "->" || t[i + 1].text == "." ||
                     t[i + 1].text == "[");
                if (deref) {
                    d.accesses.push_back({chain.key, false, t[i].line});
                    chain.key.clear();
                } else {
                    const std::string cls = chain.cls;
                    chain = ChainCtx{};
                    chain.kind = ChainCtx::Kind::kOwn;
                    chain.key = id;
                    chain.cls = cls;
                    // classify_base never returns kOwn for a peer
                    // member, so follow_field cannot re-enter here.
                }
            }
            chain_start = i + 1;
        }

        ChainCtx c = chain;
        std::size_t k = chain_start;
        bool chain_ended_in_call = false;
        while (k < body_close) {
            if (t[k].text == "[") {
                const std::size_t cb = match_forward(t, k, "[", "]");
                if (cb == npos || cb >= body_close)
                    break;
                k = cb + 1;
                continue;
            }
            if ((t[k].text != "." && t[k].text != "->") ||
                k + 1 >= body_close ||
                !is_ident_start(t[k + 1].text[0]))
                break;
            const std::string &sel = t[k + 1].text;
            const bool sel_is_call =
                k + 2 < body_close && t[k + 2].text == "(";
            if (!sel_is_call) {
                follow_field(prog, c, sel);
                k += 2;
                continue;
            }
            const std::size_t close =
                match_forward(t, k + 2, "(", ")");
            if (close == npos || close >= body_close)
                break;
            if (mut_methods().count(sel) > 0 &&
                !(c.kind == ChainCtx::Kind::kPeer &&
                  prog.class_names.count(c.cls) > 0)) {
                // Mutating container/smart-ptr method: a write on the
                // current context; the chain ends here. On a *peer of
                // a registered class* the same name (`push`, `clear`)
                // is a user-defined method: fall through and emit a
                // real call site, or the peer write vanishes (the
                // crossing cleared the field key, so record_access
                // would drop it).
                record_access(d, c, true, t[k + 1].line);
                chain_ended_in_call = true;
                break;
            }
            // Method call: emit a receiver-classified call site.
            CallSite cs;
            cs.name = sel;
            cs.via_receiver = true;
            cs.line = t[k + 1].line;
            cs.arg_bases = parse_arg_bases(t, k + 2, close);
            switch (c.kind) {
              case ChainCtx::Kind::kOwn:
                if (c.key.empty()) {
                    cs.recv = Recv::kThis;
                    cs.recv_cls = d.cls;
                } else {
                    cs.recv = Recv::kMemberOwned;
                    cs.recv_field = c.key;
                    cs.recv_cls = c.cls;
                    // Touching the member at all reads the field.
                    d.accesses.push_back({c.key, false, t[k + 1].line});
                }
                break;
              case ChainCtx::Kind::kOwnedField:
                cs.recv = Recv::kMemberOwned;
                cs.recv_field = c.key;
                cs.recv_cls = c.cls;
                d.accesses.push_back({c.key, false, t[k + 1].line});
                break;
              case ChainCtx::Kind::kPeer:
                cs.recv = c.cls.empty() ? Recv::kUnknown : Recv::kMemberPeer;
                cs.recv_cls = c.cls;
                break;
              case ChainCtx::Kind::kParam:
                cs.recv = Recv::kParam;
                cs.recv_param = c.param;
                cs.recv_cls = c.cls;
                break;
              case ChainCtx::Kind::kResult:
                cs.recv = c.peer_origin && c.prev_call >= 0
                              ? Recv::kResultPeer
                              : Recv::kUnknown;
                cs.prev_call = c.prev_call;
                break;
              case ChainCtx::Kind::kDead:
                cs.recv = Recv::kUnknown;
                break;
            }
            const int call_idx = static_cast<int>(d.calls.size());
            d.calls.push_back(std::move(cs));
            // Continue the chain on the call's result.
            ChainCtx rc;
            rc.kind = ChainCtx::Kind::kResult;
            rc.peer_origin = c.kind == ChainCtx::Kind::kPeer ||
                             (c.kind == ChainCtx::Kind::kResult &&
                              c.peer_origin);
            rc.prev_call = call_idx;
            c = rc;
            k = close + 1;
            chain_ended_in_call =
                !(k < body_close &&
                  (t[k].text == "." || t[k].text == "->"));
            if (chain_ended_in_call)
                break;
        }
        if (chain_ended_in_call)
            continue;
        const bool write =
            was_prefix ||
            (k < body_close && assign_ops().count(t[k].text) > 0);
        record_access(d, c, write, t[i].line);
    }

    // Re-encode argument bases now, while the alias map is in scope,
    // so the effect pass can bind callee parameter effects without
    // re-deriving local context.
    for (CallSite &cs : d.calls)
        for (std::string &b : cs.arg_bases)
            b = encode_arg_base(prog, d, aliases, b);
}

/** Extracts the return class, virtual-ness, and qualification span of
 * the definition whose name is at @p name_idx. */
void
parse_decl_head(const std::vector<Token> &t, std::size_t name_idx,
                const Program &prog, FunctionDef &d)
{
    std::size_t start = name_idx;
    if (name_idx >= 2 && t[name_idx - 1].text == "::")
        start = name_idx - 2;
    std::size_t scanned = 0;
    for (std::size_t k = start; k-- > 0 && scanned < 12; ++scanned) {
        const std::string &s = t[k].text;
        if (s == ";" || s == "{" || s == "}" || s == ":" ||
            s == "public" || s == "private" || s == "protected" ||
            s == ")")
            break;
        if (s == "virtual")
            d.is_virtual = true;
        else if (d.ret_cls.empty() && is_ident_start(s[0]) &&
                 !is_type_noise(s) && s != d.name && s != d.cls &&
                 prog.class_names.count(s) > 0)
            d.ret_cls = s;
    }
}

} // namespace

void
collect_defs(int file_idx, const SourceFile &f,
             const std::vector<ClassScope> &scopes, Program &prog)
{
    const auto &t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (!is_ident_start(t[i].text[0]))
            continue;
        if (i + 1 >= t.size() || t[i + 1].text != "(")
            continue;
        if (non_call_keywords().count(t[i].text) > 0)
            continue;
        // `obj.name(..)` / `ptr->name(..)` are always calls.
        if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->"))
            continue;
        const auto [body_open, body_close] = find_body(t, i);
        if (body_open == npos)
            continue;

        FunctionDef d;
        d.name = t[i].text;
        d.file = file_idx;
        d.line = t[i].line;
        d.body_open = body_open;
        d.body_close = body_close;
        if (i >= 2 && t[i - 1].text == "::" &&
            is_ident_start(t[i - 2].text[0]))
            d.cls = t[i - 2].text;
        else
            d.cls = enclosing_class(scopes, i);
        parse_decl_head(t, i, prog, d);
        const std::size_t params_end =
            match_forward(t, i + 1, "(", ")");
        if (params_end != npos)
            parse_params(t, i + 1, params_end, prog, d.params);
        // `override`/`final` after the parameter list also mean the
        // function participates in virtual dispatch.
        for (std::size_t k = params_end + 1;
             k < body_open && k < t.size(); ++k)
            if (t[k].text == "override" || t[k].text == "final")
                d.is_virtual = true;
        const auto id = static_cast<int>(prog.defs.size());
        prog.defs_by_name[d.name].push_back(id);
        prog.defs_by_cls[{d.cls, d.name}].push_back(id);
        prog.defs.push_back(std::move(d));
        i = body_open; // keep scanning inside for nested definitions
    }
}

void
scan_defs(const std::vector<SourceFile> &sources, Program &prog)
{
    for (FunctionDef &d : prog.defs)
        scan_body(prog, sources[static_cast<std::size_t>(d.file)].tokens,
                  d.body_open, d.body_close, d);
}

int
resolve_phase(const Program &prog, const FunctionDef &d)
{
    // Exact (class, name) match wins; an annotated base declaration
    // covers every override; a class-less annotation (free function,
    // or a declaration whose class the collector could not see) binds
    // by name alone. An annotation on an *unrelated* class's method of
    // the same name must not leak across — `InvariantChecker::report`
    // being WRITE says nothing about `PowerMeter::report`.
    const auto anc = prog.ancestors_of.find(d.cls);
    int name_phase = 0;
    bool name_mixed = false;
    for (const PhaseAnnot &a : prog.annots) {
        if (a.name != d.name)
            continue;
        if (a.cls == d.cls)
            return a.phase;
        if (!a.cls.empty() &&
            (anc == prog.ancestors_of.end() ||
             anc->second.count(a.cls) == 0))
            continue;
        if (name_phase == 0)
            name_phase = a.phase;
        else if (name_phase != a.phase)
            name_mixed = true;
    }
    return name_mixed ? 0 : name_phase;
}

bool
resolve_shard_safe(const Program &prog, const FunctionDef &d)
{
    const auto anc = prog.ancestors_of.find(d.cls);
    for (const ShardAnnot &a : prog.shard_annots) {
        if (a.name != d.name)
            continue;
        if (a.cls == d.cls || a.cls.empty())
            return true;
        // A shard-safe base declaration covers every override.
        if (anc != prog.ancestors_of.end() &&
            anc->second.count(a.cls) > 0)
            return true;
    }
    return false;
}

bool
annot_shard_safe_name(const Program &prog, const std::string &name)
{
    for (const ShardAnnot &a : prog.shard_annots)
        if (a.name == name)
            return true;
    return false;
}

bool
resolve_cold_path(const Program &prog, const FunctionDef &d)
{
    const auto anc = prog.ancestors_of.find(d.cls);
    for (const ShardAnnot &a : prog.cold_annots) {
        if (a.name != d.name)
            continue;
        if (a.cls == d.cls || a.cls.empty())
            return true;
        // A cold base declaration covers every override.
        if (anc != prog.ancestors_of.end() &&
            anc->second.count(a.cls) > 0)
            return true;
    }
    return false;
}

std::vector<int>
resolve_call(const Program &prog, const FunctionDef &caller,
             const CallSite &cs, const std::string &recv_cls)
{
    // Receiver-class-directed resolution: the receiver's class plus
    // its bases (inherited methods) and derived classes (virtual
    // dispatch through a base pointer).
    const std::string &rc =
        !recv_cls.empty() ? recv_cls : cs.recv_cls;
    if (!rc.empty() && prog.class_names.count(rc) > 0) {
        std::vector<int> ids;
        auto add_cls = [&](const std::string &c) {
            const auto it = prog.defs_by_cls.find({c, cs.name});
            if (it != prog.defs_by_cls.end())
                ids.insert(ids.end(), it->second.begin(),
                           it->second.end());
        };
        add_cls(rc);
        const auto anc = prog.ancestors_of.find(rc);
        if (anc != prog.ancestors_of.end())
            for (const std::string &c : anc->second)
                add_cls(c);
        const auto der = prog.derived_of.find(rc);
        if (der != prog.derived_of.end())
            for (const std::string &c : der->second)
                add_cls(c);
        return ids; // known receiver class: never fall back to names
    }
    if (!cs.cls_hint.empty()) {
        const auto it = prog.defs_by_cls.find({cs.cls_hint, cs.name});
        if (it != prog.defs_by_cls.end())
            return it->second;
        if (prog.class_names.count(cs.cls_hint) > 0)
            return {}; // known class, no such member in the input set
        // Namespace qualifier: fall through to name-level lookup.
    } else if (!cs.via_receiver && !caller.cls.empty()) {
        const auto it = prog.defs_by_cls.find({caller.cls, cs.name});
        if (it != prog.defs_by_cls.end())
            return it->second;
    }
    const auto it = prog.defs_by_name.find(cs.name);
    if (it == prog.defs_by_name.end())
        return {};
    if (!cs.via_receiver)
        return it->second;
    std::vector<int> members;
    for (const int id : it->second)
        if (!prog.defs[static_cast<std::size_t>(id)].cls.empty())
            members.push_back(id);
    return members;
}

int
annot_phase_of_name(const Program &prog, const std::string &name)
{
    int phase = 0;
    for (const PhaseAnnot &a : prog.annots) {
        if (a.name != name)
            continue;
        if (phase == 0)
            phase = a.phase;
        else if (phase != a.phase)
            return 0;
    }
    return phase;
}

} // namespace catnap_lint
