// Join-order planning for the streaming BGP engine.
//
// A SelectQuery compiles into a CompiledPlan: an ordered pipeline of clauses
// whose three positions are classified once (constant / bound variable /
// first binding / repeat check), with each FILTER attached to the earliest
// stage where all of its variables are bound. The clause *order* is the
// planner's whole job — the engine scans the store's best index range per
// stage, so putting a 50-row clause ahead of a 150k-row clause changes the
// probe count by orders of magnitude on SOFYA's probe-shaped queries.
//
// One planner orders the clauses: a Selinger-style dynamic program over
// clause subsets minimizing *cumulative* cost — the sum of estimated
// intermediate cardinalities propagated through the join chain — fed by
// exact range-width probes (TripleStore::CountMatches: two binary searches
// per shard) for constant-prefix clauses and skew-aware equi-depth per-term
// histograms (TripleStore::HistogramFor) for join fan-outs. Above
// kDpMaxClauses clauses, or when a variable id does not fit the DP's 64-bit
// variable masks, a greedy min-cost pass orders them instead: one clause at
// a time using TripleStore::StatsFor (facts, distinct subjects/objects) for
// clauses with a constant predicate and TripleStore::GlobalStats for
// variable predicates, preferring clauses connected to the already-bound
// variable set so cross products are a last resort.
//
// Determinism: a plan is a pure function of (query PlanFingerprint, store
// mutation_epoch). Estimates come from memoized store statistics, ties
// break on the clause's position in the original query, and solution
// modifiers are not consulted — so every page of a LIMIT/OFFSET walk runs
// the same plan and pagination stays disjoint and exhaustive (the invariant
// documented in docs/QUERY_ENGINE.md).

#ifndef SOFYA_SPARQL_PLANNER_H_
#define SOFYA_SPARQL_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/query.h"

namespace sofya {

/// Clause count beyond which DP (O(2^n · n) states) falls back to the
/// greedy pass. 12 clauses = 4096 states, well under a millisecond.
inline constexpr size_t kDpMaxClauses = 12;

/// Classification of one clause position, fixed at compile time so the
/// engine's inner loop does no NodeRef dispatch.
enum class SlotKind : uint8_t {
  kConst,     ///< Constant term: part of the index prefix, re-checked.
  kBoundVar,  ///< Variable bound by an earlier stage: prefix + re-check.
  kBind,      ///< First occurrence of a variable: binds it.
  kCheck,     ///< Repeat occurrence within this clause: equality check.
};

struct CompiledSlot {
  SlotKind kind = SlotKind::kBind;
  TermId constant = kNullTermId;  // kConst only.
  VarId var = -1;                 // All variable kinds.
};

struct CompiledClause {
  CompiledSlot slots[3];  // subject, predicate, object.
  /// Filters that become fully bound after this stage (inline application).
  std::vector<FilterExpr> filters;
  /// Index of this clause in the original query's WHERE list.
  size_t source_index = 0;
  /// The planner's row estimate at the moment this clause was chosen. This
  /// is the per-outer-row fan-out estimate, not a cumulative cardinality.
  double estimated_rows = -1.0;
  /// Estimated cardinality of the join *after* this stage (the DP chain's
  /// propagated intermediate estimate; the greedy fallback fills it with
  /// the running product of its per-stage estimates).
  double estimated_output_rows = -1.0;
};

struct CompiledPlan {
  std::vector<CompiledClause> clauses;
  /// Resolved projection (never empty; defaults to all variables).
  std::vector<VarId> projection;
  /// True when some filter mentions a variable no clause ever binds: SPARQL
  /// treats the filter as an error for every row, so the result is empty.
  bool dangling_filter = false;
  /// True when the order came from the Selinger-style DP search, false when
  /// the greedy fallback ordered the clauses (explain/debug surface).
  bool used_dp = false;
  /// True when the query is one all-variable clause `{ ?s ?p ?o }` (three
  /// distinct variables, no filters) projected on its predicate variable
  /// alone. Under DISTINCT — a solution modifier, so not part of the plan
  /// key — the engine answers it from the store's predicate directory
  /// instead of scanning: see UsesPredicateDirectory.
  bool predicate_directory = false;
  /// TripleStore::mutation_epoch() the statistics were read at — the
  /// version the engine's plan cache holds the plan at: same epoch ⇒ same
  /// data ⇒ the plan is still valid. EXPLAIN prints it.
  uint64_t store_epoch = 0;
};

/// Compiles `query` into an ordered pipeline. `store` supplies statistics.
/// Never fails: structural validity is SelectQuery::Validate's job and is
/// checked by the engine before execution.
CompiledPlan CompilePlan(const SelectQuery& query, const TripleStore& store);

/// True when `query`, compiled as `plan`, is answered from the store's
/// predicate directory (TripleStore::Predicates(): ascending term ids, no
/// scan) rather than by the pipeline: the plan has the directory shape and
/// the query is DISTINCT. The engine and EXPLAIN both decide through this.
inline bool UsesPredicateDirectory(const CompiledPlan& plan,
                                   const SelectQuery& query) {
  return plan.predicate_directory && query.distinct();
}

/// One clause of an EXPLAIN report, in executed (planned) order.
struct ClauseExplain {
  size_t source_index = 0;     ///< Position in the original WHERE list.
  std::string pattern;         ///< "?x <knows> ?y" (dict-rendered).
  double estimated_rows = -1;  ///< Planner fan-out estimate.
  /// Estimated rows *output* by this stage (cumulative).
  double estimated_output_rows = -1;
  /// Observed rows this stage produced. -1 until an execution fills it in
  /// (CLI `explain --execute` merges EvalStats back by source_index).
  int64_t actual_rows = -1;
  std::vector<std::string> filters;  ///< Filters applied after this stage.
};

/// The full EXPLAIN surface for one query: chosen order, per-clause
/// estimates, attached filters. Exposed as Engine::Explain and the CLI
/// `explain` subcommand.
struct PlanExplain {
  bool used_dp = false;
  /// True when the query is answered from the predicate directory
  /// (UsesPredicateDirectory), not by scanning the planned pipeline.
  bool predicate_directory = false;
  bool from_cache = false;  ///< Filled by the engine, not the planner.
  uint64_t store_epoch = 0;
  bool dangling_filter = false;
  std::vector<ClauseExplain> clauses;
  std::vector<std::string> projection;  ///< Projected variable names.

  /// Multi-line human-readable rendering (the CLI's output).
  std::string ToString() const;

  /// One-line JSON rendering (CLI `explain --json`): planner kind, access
  /// path ("pipeline" or "predicate_directory"), epoch, and the per-clause
  /// estimated-vs-actual table, machine-readable for scripts and CI gates.
  std::string ToJson() const;
};

/// Renders `plan` against its source query. `dict`, when non-null, decodes
/// constant terms into their lexical forms; ids are shown otherwise.
PlanExplain ExplainPlan(const CompiledPlan& plan, const SelectQuery& query,
                        const Dictionary* dict = nullptr);

}  // namespace sofya

#endif  // SOFYA_SPARQL_PLANNER_H_
