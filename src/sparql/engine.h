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
// enumerating all bindings.
//
// Results are deterministic: the plan is a pure function of (query
// PlanFingerprint, store mutation_epoch, planner options) and the store's
// index order fixes the row order under a fixed plan, which keeps sampling
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

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/planner.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {

class ThreadPool;

/// Estimated-vs-actual rows for one executed pipeline stage (EXPLAIN's
/// `actual` column; how adaptive execution decides a plan went wrong).
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
  uint64_t replans = 0;            ///< Adaptive mid-execution re-plans.
  /// Per-stage estimated-vs-actual for the finally-executed plan, in planned
  /// order. Work counters above count *all* work (including abandoned
  /// adaptive attempts); this table describes only the plan that produced
  /// the result.
  std::vector<ClauseRowStats> clause_rows;
};

/// Compiled-plan evaluator bound to one store. Thread-safe for concurrent
/// Select/Ask/Explain as long as nobody writes to the store concurrently
/// (the store's own read contract); the plan cache takes a small mutex.
class Engine {
 public:
  struct Options {
    PlannerOptions planner;
    /// Plan cache entries before wholesale eviction; 0 disables caching.
    size_t plan_cache_capacity = 256;
    /// When set, SELECTs without a LIMIT whose driver clause covers at
    /// least `parallel_scan_min_rows` index entries fan the driver's
    /// per-shard spans (chunked) onto this pool and merge per-chunk rows in
    /// span order — bit-identical rows and EvalStats to the sequential
    /// path. Not owned; must outlive the engine. Calls arriving on a pool
    /// worker thread fall back to sequential (no nested blocking).
    ThreadPool* scan_pool = nullptr;
    /// Driver-range row threshold below which scans stay sequential.
    size_t parallel_scan_min_rows = 1 << 15;
    /// Adaptive execution: SELECTs without a LIMIT run a sequential
    /// quota-checked pass; when a stage's observed output exceeds its
    /// planner estimate by `adaptive_replan_factor`, execution bails,
    /// re-plans the query with the observed cardinality pinned
    /// (CardinalityOverride), and restarts — so a mis-estimated join order
    /// costs at most the quota it was given, not the full blown-up
    /// intermediate. Results are bit-identical to non-adaptive execution
    /// (the row set is plan-invariant and the restart replays from
    /// scratch); work counters honestly include abandoned attempts and are
    /// deterministic across scan-thread counts because quota-checked
    /// passes are always sequential. LIMIT queries are excluded so the
    /// plan stays a pure function of the PlanFingerprint and OFFSET/LIMIT
    /// pagination never changes enumeration order mid-walk. Re-planned
    /// plans are never cached.
    bool adaptive = false;
    /// Observed/estimated divergence factor that triggers a re-plan.
    double adaptive_replan_factor = 8.0;
    /// Stages with estimates below this never trigger (absolute floor on
    /// the quota) — tiny estimates would otherwise thrash on noise.
    uint64_t adaptive_min_rows = 1024;
    /// Re-plans per query before running the current plan to completion
    /// without quota checks (bounds total work at max_replans+1 attempts).
    int adaptive_max_replans = 2;
  };

  Engine(const TripleStore* store, const Dictionary* dict, Options options)
      : store_(store), dict_(dict), options_(options) {}
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
  uint64_t plan_cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }
  uint64_t plan_cache_misses() const {
    return misses_.load(std::memory_order_relaxed);
  }

  /// Adaptive mid-execution re-plans since construction.
  uint64_t replans() const { return replans_.load(std::memory_order_relaxed); }

 private:
  /// Returns the cached plan for `query` (same PlanFingerprint, same store
  /// epoch) or compiles, caches, and returns a fresh one.
  std::shared_ptr<const CompiledPlan> PlanFor(const SelectQuery& query,
                                              bool* cache_hit) const;

  const TripleStore* store_;  // Not owned.
  const Dictionary* dict_;    // Not owned; may be null.
  Options options_;

  mutable std::mutex mu_;
  mutable std::unordered_map<std::string, std::shared_ptr<const CompiledPlan>>
      plans_;  // Guarded by mu_; entries validated against store epoch.
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> replans_{0};
};

/// One-shot evaluation of `query` against `store` (fresh plan, default
/// planner). `stats`, when non-null, receives evaluation metering. `dict`,
/// when non-null, enables the isIRI/isLiteral filters (they pass
/// conservatively without it). `planner` selects the join-order planner.
StatusOr<ResultSet> Evaluate(const TripleStore& store,
                             const SelectQuery& query,
                             EvalStats* stats = nullptr,
                             const Dictionary* dict = nullptr,
                             const PlannerOptions& planner = {});

/// One-shot ASK: true iff `query` has at least one solution. The pipeline
/// stops at the first solution, so the cost is O(first match) and
/// independent of the result cardinality (the query's DISTINCT/OFFSET/LIMIT
/// modifiers are irrelevant to existence and ignored).
StatusOr<bool> EvaluateAsk(const TripleStore& store, const SelectQuery& query,
                           EvalStats* stats = nullptr,
                           const Dictionary* dict = nullptr,
                           const PlannerOptions& planner = {});

}  // namespace sofya

#endif  // SOFYA_SPARQL_ENGINE_H_
