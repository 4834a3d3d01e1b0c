// Streaming BGP evaluation over a TripleStore.
//
// Queries are compiled into a pipeline of per-clause index-range iterators
// with pull-based binding propagation: clauses are ordered by the
// statistics-driven join-order planner (sparql/planner.h), each clause
// opens the store's best index range for the current partial binding, and
// solutions flow to the consumer one at a time. FILTERs are applied at the earliest clause where
// their variables are bound, DISTINCT is a streaming hash probe on projected
// rows, and LIMIT/OFFSET/ASK are pushed into the pipeline so existence
// probes and LIMIT-1 queries stop at the first solution instead of
// enumerating all bindings. `SELECT DISTINCT ?p { ?s ?p ?o }` skips the
// pipeline and reads the store's predicate directory (UsesPredicateDirectory
// in planner.h). A VALUES block is the outermost binding source: each row
// runs, in block order, as the query it stands for (its constants written
// into the clauses and filters), and DISTINCT/LIMIT/OFFSET apply to the
// whole output.
//
// Results are deterministic: the plan is a pure function of (query
// PlanFingerprint, store mutation_epoch) and the store's index order fixes
// the row order under a fixed plan, which keeps sampling
// and OFFSET pagination reproducible across runs and across pages.
//
// A one-clause query (most of SOFYA's probes) has only one order, so its
// plan is built from the clause's bound positions (CompileOneClausePlan):
// no fingerprint, no cache, no statistics. Only multi-clause queries are
// planned by the DP and cached.
//
// Two entry points:
//
//   * Engine — holds (store, dict) plus a plan cache for multi-clause
//     queries, keyed by PlanFingerprint and validated against the store
//     epoch. LocalEndpoint owns one. Also the home of Explain(), which
//     plans every query, one clause or more, with its estimates.
//   * the free Evaluate/EvaluateAsk — one-shot helpers that compile a fresh
//     plan per call (the one-clause path alike); kept for tests and simple
//     callers.

#ifndef SOFYA_SPARQL_ENGINE_H_
#define SOFYA_SPARQL_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/planner.h"
#include "sparql/query.h"
#include "util/epoch_memo.h"
#include "util/status.h"

namespace sofya {

/// Estimated-vs-actual rows for one executed pipeline stage (EXPLAIN's
/// `actual` column).
struct ClauseRowStats {
  size_t source_index = 0;  ///< Clause position in the original WHERE list.
  double estimated_rows = -1.0;         ///< Planner per-stage fan-out estimate.
  double estimated_output_rows = -1.0;  ///< Planner cumulative chain estimate.
  uint64_t actual_rows = 0;             ///< Rows this stage actually emitted.
};

/// Evaluation metering, reported to the endpoint layer for accounting.
struct EvalStats {
  uint64_t intermediate_rows = 0;  ///< Rows produced across all join steps.
  uint64_t index_probes = 0;       ///< Store range lookups issued.
  uint64_t triples_scanned = 0;    ///< Index entries touched by the pipeline.
  uint64_t result_rows = 0;        ///< Final row count (after LIMIT).
  /// 1 when a multi-clause plan came from the cache (0 for one clause).
  uint64_t plan_cache_hits = 0;
  /// 1 when a multi-clause query had to plan (0 for one clause).
  uint64_t plan_cache_misses = 0;
  /// Per-stage estimated-vs-actual for the executed plan, in planned order.
  std::vector<ClauseRowStats> clause_rows;
};

/// Compiled-plan evaluator bound to one store. Each query runs on the
/// calling thread. Thread-safe for concurrent Select/Ask/Explain as long as
/// nobody writes to the store concurrently (the store's own read contract);
/// the plan cache is an EpochMemo.
class Engine {
 public:
  explicit Engine(const TripleStore* store) : Engine(store, nullptr) {}
  Engine(const TripleStore* store, const Dictionary* dict);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Evaluates `query`. On success the ResultSet columns are the query's
  /// projection (or all variables for SELECT *).
  StatusOr<ResultSet> Select(const SelectQuery& query,
                             EvalStats* stats = nullptr) const;

  /// ASK-form evaluation: true iff `query` has at least one solution; stops
  /// at the first (DISTINCT/LIMIT/OFFSET are irrelevant to existence).
  StatusOr<bool> Ask(const SelectQuery& query,
                     EvalStats* stats = nullptr) const;

  /// The EXPLAIN surface: the plan this engine would run `query` with —
  /// chosen clause order, per-clause estimates, attached filters — without
  /// executing it. `from_cache` reports whether the plan was already cached.
  StatusOr<PlanExplain> Explain(const SelectQuery& query) const;

  /// Plan-cache accounting since construction: multi-clause queries only.
  uint64_t plan_cache_hits() const { return plans_.hits(); }
  uint64_t plan_cache_misses() const { return plans_.computes(); }

 private:
  /// The plan `query` runs with. A one-clause query's is compiled from its
  /// bound positions (CompileOneClausePlan) and charges no cache counter.
  /// Any other query's is the cached plan (same PlanFingerprint, same store
  /// epoch) or a fresh one compiled and cached; `stats` gets the hit or
  /// the miss.
  std::shared_ptr<const CompiledPlan> PlanFor(const SelectQuery& query,
                                              EvalStats& stats) const;

  /// PlanFor as a VALUES row's plan source.
  auto CachedPlans() const;

  const TripleStore* store_;  // Not owned.
  const Dictionary* dict_;    // Not owned; may be null.

  /// Compiled plans by PlanFingerprint, at the store's mutation_epoch().
  mutable EpochMemo<std::string, std::shared_ptr<const CompiledPlan>> plans_;
};

/// One-shot evaluation of `query` against `store` (fresh plan). `stats`,
/// when non-null, receives evaluation metering. `dict`, when non-null,
/// enables the isIRI/isLiteral filters (they pass conservatively without
/// it).
StatusOr<ResultSet> Evaluate(const TripleStore& store,
                             const SelectQuery& query,
                             EvalStats* stats = nullptr,
                             const Dictionary* dict = nullptr);

/// One-shot ASK: true iff `query` has at least one solution. The pipeline
/// stops at the first solution, so the cost is O(first match) and
/// independent of the result cardinality (the query's DISTINCT/OFFSET/LIMIT
/// modifiers are irrelevant to existence and ignored).
StatusOr<bool> EvaluateAsk(const TripleStore& store, const SelectQuery& query,
                           EvalStats* stats = nullptr,
                           const Dictionary* dict = nullptr);

}  // namespace sofya

#endif  // SOFYA_SPARQL_ENGINE_H_
