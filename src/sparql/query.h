// A SPARQL SELECT subset: basic graph patterns over one dataset, simple
// FILTERs, DISTINCT, LIMIT and OFFSET.
//
// This is the query language the endpoint (endpoint/endpoint.h) accepts —
// i.e. everything SOFYA is allowed to ask a remote KB. The subset matches
// what the paper's samplers need; anything fancier (OPTIONAL, property
// paths, aggregates) is deliberately out of scope and would weaken the
// "works against any endpoint" claim.

#ifndef SOFYA_SPARQL_QUERY_H_
#define SOFYA_SPARQL_QUERY_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "util/status.h"

namespace sofya {

/// Index of a variable within a query (dense, starting at 0).
using VarId = int32_t;

/// One position of a triple pattern: either a constant term or a variable.
class NodeRef {
 public:
  NodeRef() : is_var_(false), term_(kNullTermId), var_(-1) {}

  /// A constant (dictionary-encoded) term.
  static NodeRef Constant(TermId term) {
    NodeRef n;
    n.is_var_ = false;
    n.term_ = term;
    return n;
  }

  /// A variable reference.
  static NodeRef Variable(VarId var) {
    NodeRef n;
    n.is_var_ = true;
    n.var_ = var;
    return n;
  }

  bool is_var() const { return is_var_; }
  TermId term() const { return term_; }
  VarId var() const { return var_; }

 private:
  bool is_var_;
  TermId term_;
  VarId var_;
};

/// A triple pattern with variables: one BGP clause.
struct PatternClause {
  NodeRef subject;
  NodeRef predicate;
  NodeRef object;
};

/// Simple FILTER expressions over bound variables.
///
/// This covers the paper's needs: UBS strategy B requires FILTER(?y1 != ?y2)
/// and object/constant comparisons; everything else is BGP shape.
struct FilterExpr {
  enum class Kind {
    kVarEqVar,    ///< FILTER(?a = ?b)
    kVarNeqVar,   ///< FILTER(?a != ?b)
    kVarEqTerm,   ///< FILTER(?a = <t>)
    kVarNeqTerm,  ///< FILTER(?a != <t>)
    kIsIri,       ///< FILTER(isIRI(?a))
    kIsLiteral,   ///< FILTER(isLiteral(?a))
  };

  Kind kind;
  VarId lhs = -1;
  VarId rhs_var = -1;
  TermId rhs_term = kNullTermId;

  static FilterExpr VarEqVar(VarId a, VarId b) {
    return {Kind::kVarEqVar, a, b, kNullTermId};
  }
  static FilterExpr VarNeqVar(VarId a, VarId b) {
    return {Kind::kVarNeqVar, a, b, kNullTermId};
  }
  static FilterExpr VarEqTerm(VarId a, TermId t) {
    return {Kind::kVarEqTerm, a, -1, t};
  }
  static FilterExpr VarNeqTerm(VarId a, TermId t) {
    return {Kind::kVarNeqTerm, a, -1, t};
  }
  static FilterExpr IsIri(VarId a) { return {Kind::kIsIri, a, -1, kNullTermId}; }
  static FilterExpr IsLiteral(VarId a) {
    return {Kind::kIsLiteral, a, -1, kNullTermId};
  }
};

/// No row limit.
inline constexpr uint64_t kNoLimit = std::numeric_limits<uint64_t>::max();

/// Which canonical rendering SelectQuery::RenderKey produces.
enum class QueryKeyMode {
  /// Plan-cache key: raw VarIds, no solution modifiers (PlanFingerprint).
  kPlan,
  /// Canonical VarIds, solution modifiers spelled out (Fingerprint).
  kSelect,
  /// kSelect with DISTINCT/LIMIT/OFFSET normalized away — existence does
  /// not depend on them — plus an "#ask" suffix, so an ASK key never
  /// collides with a SELECT key (AskFingerprint, cassette ASK keys).
  kAsk,
};

/// Spells constants into a canonical key in place of their dictionary ids:
/// the cassette's id-independent keys (endpoint/cassette.h) render each
/// constant's surface form, so the same logical query gets the same key in
/// any process.
class TermKeyRenderer {
 public:
  virtual ~TermKeyRenderer() = default;
  /// Appends the spelling of constant `id` (it follows a '#').
  virtual void Append(TermId id, std::string& out) const = 0;
};

/// A SELECT query. Build with the fluent helpers, then hand to an Endpoint.
class SelectQuery {
 public:
  SelectQuery() = default;

  /// Declares a new variable with a display name; returns its id.
  VarId NewVar(std::string name);

  /// Number of declared variables.
  size_t num_vars() const { return var_names_.size(); }

  /// Display name of `var` ("x" -> rendered as "?x").
  const std::string& var_name(VarId var) const { return var_names_[var]; }

  /// Appends a BGP clause.
  SelectQuery& Where(NodeRef s, NodeRef p, NodeRef o);

  /// Appends a FILTER.
  SelectQuery& Filter(FilterExpr filter);

  /// Sets the projection. Unset => SELECT *.
  SelectQuery& Select(std::vector<VarId> vars);

  SelectQuery& Distinct(bool distinct = true);
  SelectQuery& Limit(uint64_t limit);
  SelectQuery& Offset(uint64_t offset);

  const std::vector<PatternClause>& clauses() const { return clauses_; }
  const std::vector<FilterExpr>& filters() const { return filters_; }
  const std::vector<VarId>& projection() const { return projection_; }
  bool distinct() const { return distinct_; }
  uint64_t limit() const { return limit_; }
  uint64_t offset() const { return offset_; }

  /// Validates structural sanity (every var used is declared; projection
  /// non-empty after defaulting; at least one clause).
  Status Validate() const;

  /// Renders the query as SPARQL text for logs and for the HTTP wire
  /// (needs the dictionary to decode constant terms). The output is valid
  /// input for ParseSelectQuery: serialize -> parse round-trips to an
  /// equal Fingerprint (tests/sparql_roundtrip_test.cc holds this).
  std::string ToSparql(const Dictionary& dict) const;

  /// Renders the existence form: `ASK WHERE { ... }` with the same BGP and
  /// filters. Solution modifiers are dropped — existence does not depend on
  /// DISTINCT/LIMIT/OFFSET (same normalization as AskFingerprint). This is
  /// what HttpSparqlEndpoint::Ask sends over the SPARQL protocol.
  std::string ToSparqlAsk(const Dictionary& dict) const;

  /// The one canonical renderer behind every query key: declared variable
  /// names, clauses, filters and the resolved projection (SELECT * and an
  /// explicit all-variables list render alike), then the solution
  /// modifiers as `mode` asks. Canonical modes renumber variables by first
  /// use (projection, then clauses, then filters), so a key is invariant to
  /// declaration order — a query and its ToSparql -> ParseSelectQuery round
  /// trip collide — while variable *names* still participate (they name
  /// result columns). Constants render by id, or through `constants` when
  /// given (not used with kPlan).
  std::string RenderKey(QueryKeyMode mode,
                        const TermKeyRenderer* constants = nullptr) const;

  /// Normalized structural fingerprint: two queries with the same
  /// fingerprint return the same ResultSet against the same dataset. Used
  /// as the cache / batch-dedup key; no dictionary needed (constants are
  /// by id).
  std::string Fingerprint() const { return RenderKey(QueryKeyMode::kSelect); }

  /// The engine's plan-cache key: everything a compiled plan depends on
  /// (declared variables, clauses, filters, projection — all by *raw*
  /// VarId) with DISTINCT/LIMIT/OFFSET normalized away, so Ask(q),
  /// Select(q LIMIT n), and every page of one OFFSET walk share a plan.
  /// Unlike Fingerprint(), variable numbering is NOT canonicalized: a
  /// CompiledPlan stores raw VarIds, so two queries may share a plan only
  /// if their internal numbering agrees — alpha-renumbered twins get
  /// separate (cheap) plans instead of silently mislabeled columns.
  std::string PlanFingerprint() const { return RenderKey(QueryKeyMode::kPlan); }

 private:
  /// Shared WHERE-block renderer behind ToSparql / ToSparqlAsk.
  std::string RenderWhere(const Dictionary& dict) const;

  std::vector<std::string> var_names_;
  std::vector<PatternClause> clauses_;
  std::vector<FilterExpr> filters_;
  std::vector<VarId> projection_;  // Empty => all vars.
  bool distinct_ = false;
  uint64_t limit_ = kNoLimit;
  uint64_t offset_ = 0;
};

/// A solution sequence: projected variable names plus rows of term ids.
struct ResultSet {
  std::vector<std::string> var_names;
  std::vector<std::vector<TermId>> rows;

  size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  /// Index of a projected variable by name, or -1.
  int ColumnOf(const std::string& name) const {
    for (size_t i = 0; i < var_names.size(); ++i) {
      if (var_names[i] == name) return static_cast<int>(i);
    }
    return -1;
  }
};

}  // namespace sofya

#endif  // SOFYA_SPARQL_QUERY_H_
