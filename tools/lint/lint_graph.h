/**
 * @file
 * Structural view of the input set for catnap_lint (DESIGN.md §11,
 * §14): class scopes with base lists, member-ownership tables,
 * function definitions with parsed parameter lists, receiver-classified
 * call sites, and field-level access records. L4/L5 consume the call
 * graph; the effect-inference pass (lint_effects.h) consumes the
 * access records and receiver classes; L1-L3 stay purely token-local.
 *
 * Ownership model (the shard-safety contract's foundation): a member
 * held by value or through std::unique_ptr/std::shared_ptr is *owned* —
 * it lives on the same shard as its owner, so effects on it collapse
 * into an effect on the owning field. A member held by raw pointer or
 * reference is a *peer* — another component instance that the future
 * sharded core may place on a different shard, so effects through it
 * are cross-component. Locals declared with an explicit class type
 * (`Router *nbr = ...`, including range-for) are peers too; receivers
 * of unknown type (auto locals, unresolved call results) are skipped
 * conservatively.
 */
#ifndef CATNAP_LINT_GRAPH_H
#define CATNAP_LINT_GRAPH_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint_source.h"

namespace catnap_lint {

/** One `class`/`struct` body brace range with its direct bases. */
struct ClassScope
{
    std::size_t open;  ///< index of the body `{`
    std::size_t close; ///< index of the matching `}`
    std::string name;
    std::vector<std::string> bases; ///< direct base-class names
};

/** Function names collected from CATNAP_PHASE_* annotations (L2's
 * name-level view; L4-L7 use the class-qualified PhaseAnnot list). */
struct PhaseTable
{
    std::set<std::string> read_fns;
    std::set<std::string> write_fns;
};

/** How a member field holds the object behind it (see file comment). */
enum class MemberKind : std::uint8_t {
    kValue,    ///< by value (or unique_ptr/shared_ptr): owned
    kOwnedPtr, ///< unique_ptr/shared_ptr: owned, deref stays on-shard
    kPeerPtr,  ///< raw pointer or reference: a peer instance
};

/** One parsed member-variable declaration. */
struct MemberDecl
{
    MemberKind kind = MemberKind::kValue;
    std::string cls; ///< pointee/element class when recognisable; ""
    bool unordered = false;   ///< unordered_{map,set,...} in the type
    bool float_typed = false; ///< `float`/`double` in the type (L11)
};

/** One parsed function parameter. */
struct Param
{
    std::string name;
    std::string cls;      ///< last input-set class named in the type
    bool by_ref = false;  ///< `&` or `*` at the top level of the type
    bool is_const = false;
};

/** Receiver classification of a call site (or of a field chain). */
enum class Recv : std::uint8_t {
    kNone,        ///< bare call: `name(...)` (self or free)
    kThis,        ///< `this->name(...)`
    kMemberOwned, ///< through an owned member (value/unique_ptr)
    kMemberPeer,  ///< through a raw-pointer/reference member
    kLocalPeer,   ///< through an explicitly-typed class local
    kParam,       ///< through a reference/pointer parameter
    kResultPeer,  ///< through the result of a peer-context call
    kUnknown,     ///< receiver type not derivable (skipped)
};

/** One call site inside a function body. */
struct CallSite
{
    std::string name;
    std::string cls_hint;      ///< explicit `Cls::` qualifier, if any
    bool via_receiver = false; ///< `obj.name(..)` / `ptr->name(..)`
    Recv recv = Recv::kNone;
    std::string recv_field; ///< owning member field (Member* receivers)
    std::string recv_cls;   ///< receiver's class, when known
    int recv_param = -1;    ///< parameter index (kParam receivers)
    int prev_call = -1;     ///< producing call index (kResultPeer)
    std::vector<std::string> arg_bases; ///< base ident per argument
    int line = 0;
};

/** One access to a field of the *enclosing* class. The key is either
 * a bare member name (`foo_`) or one sub-field deep (`foo_.state`);
 * deeper chains collapse to the first sub-field level. */
struct FieldAccess
{
    std::string key;
    bool write = false;
    int line = 0;
};

/** One access through a reference/pointer parameter. */
struct ParamAccess
{
    int param = -1;
    bool write = false;
    int line = 0;
};

/** One direct field access on a *peer* instance (cross-component). */
struct PeerFieldAccess
{
    std::string cls; ///< peer's class
    std::string key; ///< field key on the peer
    bool write = false;
    int line = 0;
};

/** One function definition (a name with a parsed body). */
struct FunctionDef
{
    std::string name;
    std::string cls; ///< enclosing/qualifying class; "" for free fns
    int file = -1;   ///< index into the sources vector
    int line = 0;
    int phase = 0; ///< 0 none, 1 READ, 2 WRITE (resolved from annots)
    bool shard_safe = false; ///< CATNAP_SHARD_SAFE (resolved)
    bool cold_path = false;  ///< CATNAP_COLD_PATH (resolved)
    bool is_virtual = false; ///< `virtual` seen or `override`/`final`
    std::size_t body_open = 0;  ///< body `{` token index (L9, L11)
    std::size_t body_close = 0; ///< matching `}` token index
    std::string ret_cls; ///< input-set class named in the return type
    bool writes_members = false; ///< direct own/peer field write (L5)
    std::vector<Param> params;
    std::vector<CallSite> calls;
    std::vector<FieldAccess> accesses;
    std::vector<ParamAccess> param_accesses;
    std::vector<PeerFieldAccess> peer_accesses;
};

/** One CATNAP_PHASE_* marker with its class context. */
struct PhaseAnnot
{
    std::string name;
    std::string cls;
    int phase; ///< 1 READ, 2 WRITE
};

/** One CATNAP_SHARD_SAFE or CATNAP_COLD_PATH marker with its class
 * context (the two markers share the {name, class} shape). */
struct ShardAnnot
{
    std::string name;
    std::string cls;
};

/** Whole-input call-graph and ownership data. */
struct Program
{
    std::vector<FunctionDef> defs;
    std::vector<PhaseAnnot> annots;
    std::vector<ShardAnnot> shard_annots;
    std::vector<ShardAnnot> cold_annots; ///< CATNAP_COLD_PATH markers
    std::map<std::string, std::vector<int>> defs_by_name;
    std::map<std::pair<std::string, std::string>, std::vector<int>>
        defs_by_cls; ///< (cls, name) -> def indices
    std::set<std::string> class_names;
    std::map<std::string, std::vector<std::string>> class_bases;
    std::map<std::string, std::set<std::string>>
        derived_of; ///< base -> all transitive derived classes
    std::map<std::string, std::set<std::string>>
        ancestors_of; ///< class -> all transitive bases
    std::map<std::pair<std::string, std::string>, MemberDecl>
        members; ///< (cls, field) -> ownership
};

/** Tokens that look like `name(` but are never calls or definitions. */
const std::set<std::string> &non_call_keywords();

/** Index of the matching closer for the opener at @p open, or npos. */
std::size_t match_forward(const std::vector<Token> &t, std::size_t open,
                          const std::string &opener,
                          const std::string &closer);

/** True for a member-variable-looking identifier (`foo_` style). */
bool is_member_ident(const std::string &s);

/** Collects the `class`/`struct` body brace ranges of @p t, with the
 * direct base-class names from each inheritance list. */
std::vector<ClassScope>
collect_class_scopes(const std::vector<Token> &t);

/** Name of the innermost class body containing token @p idx, or "". */
std::string enclosing_class(const std::vector<ClassScope> &scopes,
                            std::size_t idx);

/**
 * Finds the body of the function definition whose name token is at
 * @p name_idx; returns {body_open, body_close} brace indices or npos.
 * Handles cv/ref/noexcept/override/final qualifiers, trailing return
 * types, and constructor initializer lists (paren and brace form);
 * rejects declarations, `= default`, `= delete`, and pure virtuals.
 */
std::pair<std::size_t, std::size_t>
find_body(const std::vector<Token> &t, std::size_t name_idx);

/** Registers @p scopes' class names and base lists into @p prog. */
void register_classes(const std::vector<ClassScope> &scopes,
                      Program &prog);

/** Finalises derived_of/ancestors_of from the registered base lists. */
void finalize_class_hierarchy(Program &prog);

/**
 * Collects class-qualified CATNAP_PHASE_* and CATNAP_SHARD_SAFE
 * annotations: the identifier immediately preceding the next '(' after
 * the marker, with either its explicit `Cls::` qualifier or the
 * enclosing class scope. Also feeds L2's name-level PhaseTable.
 */
void collect_phase_annotations(const SourceFile &f,
                               const std::vector<ClassScope> &scopes,
                               Program &prog, PhaseTable &table);

/**
 * Parses member-variable declarations inside each class scope of @p f
 * into prog.members. Requires every input's classes to be registered
 * first (class names disambiguate pointee types).
 */
void collect_members(const SourceFile &f,
                     const std::vector<ClassScope> &scopes,
                     Program &prog);

/**
 * Collects every function definition (with body) in @p f: parameter
 * lists, return class and virtual-ness. Requires class registration
 * and collect_members over *all* inputs to have run first.
 */
void collect_defs(int file_idx, const SourceFile &f,
                  const std::vector<ClassScope> &scopes, Program &prog);

/** Scans every collected definition's body for field accesses and
 * call sites; runs after collect_defs over *all* inputs, so a call can
 * tell a project function from the std algorithm of the same name. */
void scan_defs(const std::vector<SourceFile> &sources, Program &prog);

/**
 * Resolves a definition's phase from the annotation list: an exact
 * (class, name) annotation wins; otherwise a name-level annotation
 * applies only when every annotation of that name agrees.
 */
int resolve_phase(const Program &prog, const FunctionDef &d);

/** True when @p d (or a declaration it overrides, via the class
 * hierarchy) carries CATNAP_SHARD_SAFE. */
bool resolve_shard_safe(const Program &prog, const FunctionDef &d);

/** True when any CATNAP_SHARD_SAFE annotation bears @p name (for
 * calls that resolve to no definition in the input set). */
bool annot_shard_safe_name(const Program &prog, const std::string &name);

/** True when @p d (or a declaration it overrides, via the class
 * hierarchy) carries CATNAP_COLD_PATH: pruned from the hot-path
 * closure that seeds rule L9 (see lint_cost.h). */
bool resolve_cold_path(const Program &prog, const FunctionDef &d);

/**
 * Resolves a call site to candidate definitions. Preference order:
 * the receiver's class (plus its transitive bases and derived classes,
 * so virtual dispatch through a base pointer finds the overrides) when
 * the scan classified one; explicit `Cls::` qualifier; the caller's
 * own class for bare calls; any member definition for receiver calls;
 * any definition by name otherwise. @p recv_cls overrides the call
 * site's receiver class (used for kResultPeer receivers whose class is
 * only known after resolving the producing call).
 */
std::vector<int> resolve_call(const Program &prog,
                              const FunctionDef &caller,
                              const CallSite &cs,
                              const std::string &recv_cls = "");

/** Phase of a call by name alone (annotation-level; for calls with no
 * definition in the input set). 0 when unknown or mixed. */
int annot_phase_of_name(const Program &prog, const std::string &name);

} // namespace catnap_lint

#endif // CATNAP_LINT_GRAPH_H
