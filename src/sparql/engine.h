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
// in planner.h).
//
// Results are deterministic: the plan is a pure function of (query
// PlanFingerprint, store mutation_epoch) and the store's index order fixes
// the row order under a fixed plan, which keeps sampling
// and OFFSET pagination reproducible across runs and across pages.
//
// Two entry points:
//
//   * Engine — holds (store, dict, options) plus a plan cache keyed by
//     PlanFingerprint and validated against the store epoch, so repeated
//     probe shapes (SOFYA's workload) skip re-planning. LocalEndpoint owns
//     one. Also the home of Explain().
//   * the free Evaluate/EvaluateAsk — one-shot helpers that compile a fresh
//     plan per call; kept for tests and simple callers.

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

class ThreadPool;

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
  uint64_t plan_cache_hits = 0;    ///< 1 when the plan came from the cache.
  uint64_t plan_cache_misses = 0;  ///< 1 when this call had to plan.
  /// Per-stage estimated-vs-actual for the executed plan, in planned order.
  std::vector<ClauseRowStats> clause_rows;
};

/// Compiled-plan evaluator bound to one store. Thread-safe for concurrent
/// Select/Ask/Explain as long as nobody writes to the store concurrently
/// (the store's own read contract); the plan cache is an EpochMemo.
class Engine {
 public:
  struct Options {
    /// When set, SELECTs without a LIMIT whose driver clause covers at
    /// least `parallel_scan_min_rows` index entries fan the driver's
    /// per-shard spans (chunked) onto this pool and merge per-chunk rows in
    /// span order — bit-identical rows and EvalStats to the sequential
    /// path. Not owned; must outlive the engine. Calls arriving on a pool
    /// worker thread fall back to sequential (no nested blocking).
    ThreadPool* scan_pool = nullptr;
    /// Driver-range row threshold below which scans stay sequential.
    size_t parallel_scan_min_rows = 1 << 15;
  };

  Engine(const TripleStore* store, const Dictionary* dict, Options options);
  explicit Engine(const TripleStore* store) : Engine(store, nullptr) {}
  Engine(const TripleStore* store, const Dictionary* dict)
      : Engine(store, dict, Options()) {}

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

  const Options& options() const { return options_; }

  /// Plan-cache accounting since construction.
  uint64_t plan_cache_hits() const { return plans_.hits(); }
  uint64_t plan_cache_misses() const { return plans_.computes(); }

 private:
  /// Returns the cached plan for `query` (same PlanFingerprint, same store
  /// epoch) or compiles, caches, and returns a fresh one; `*cache_hit`
  /// says which.
  std::shared_ptr<const CompiledPlan> PlanFor(const SelectQuery& query,
                                              bool* cache_hit) const;

  const TripleStore* store_;  // Not owned.
  const Dictionary* dict_;    // Not owned; may be null.
  Options options_;

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
