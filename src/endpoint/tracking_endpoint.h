// TrackingEndpoint: a pass-through decorator that counts the requests one
// caller issues against a shared endpoint stack.
//
// Why it exists: under parallel alignment (RelationAligner::AlignMany) many
// relations share one endpoint stack, so "stats delta before/after my
// work" — the sequential attribution idiom — picks up every other thread's
// queries. A TrackingEndpoint is private to one relation's pipeline: it
// forwards everything to the shared stack and keeps its *own* counters,
// which makes per-relation attribution exact and deterministic for any
// thread count.
//
// The counters mirror the server's charging rules so that, over an
// undecorated LocalEndpoint, tracked counts equal the server's counts
// exactly: one query per *unique* query inside a SelectMany batch (the
// server answers intra-batch duplicates from one evaluation), one per unique
// normalized probe inside AskMany, and rows counted once per unique
// evaluation. Like every EndpointDecorator it implements batches only: a
// single Select/Ask is a one-slot batch, so it charges exactly one query.
// With a shared cache in the stack the tracked `queries` is instead the
// number of requests issued to the cache — an upper bound on what the
// server saw, since attribution of shared cache hits to individual callers
// is inherently interleaving-dependent.
//
// Thread safety: safe for concurrent callers. Under the phase-decomposed
// scheduler one relation's subtasks (per-candidate sampling, reverse
// checks) run on different workers but share the relation's tracking view,
// so the counters sit behind a mutex. The charges are per-call increments,
// which makes the totals independent of interleaving — the foundation of
// the bit-identical-counters guarantee.

#ifndef SOFYA_ENDPOINT_TRACKING_ENDPOINT_H_
#define SOFYA_ENDPOINT_TRACKING_ENDPOINT_H_

#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_set>

#include "endpoint/endpoint.h"

namespace sofya {

/// Per-caller request attribution over a shared (thread-safe) endpoint.
class TrackingEndpoint : public EndpointDecorator {
 public:
  /// `inner` is not owned and must outlive this object.
  explicit TrackingEndpoint(Endpoint* inner) : EndpointDecorator(inner) {}

  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    return TrackMany(queries, &SelectQuery::Fingerprint, &Endpoint::SelectMany);
  }

  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    return TrackMany(queries, &AskFingerprint, &Endpoint::AskMany);
  }

  /// This caller's own counters only — never the shared stack's (that is
  /// the whole point). Latency/cache/server-side fields stay zero; they are
  /// fleet-level quantities under parallelism.
  EndpointStats stats() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = EndpointStats();
  }

 private:
  /// The one batch path behind SelectMany and AskMany: forwards the batch
  /// via `many`, then charges one query per unique `key_of` key, like the
  /// server's intra-batch dedup, and rows only for SELECT sub-queries that
  /// actually produced an answer.
  template <typename T, typename KeyFn>
  BatchResult<T> TrackMany(
      std::span<const SelectQuery> queries, KeyFn key_of,
      BatchResult<T> (Endpoint::*many)(std::span<const SelectQuery>)) {
    BatchResult<T> results = (inner_->*many)(queries);
    std::unordered_set<std::string> unique;
    unique.reserve(queries.size());
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!unique.insert(std::invoke(key_of, queries[i])).second) continue;
      ++stats_.queries;
      if constexpr (std::is_same_v<T, ResultSet>) {
        if (results.statuses[i].ok()) {
          stats_.rows_returned += results.values[i].rows.size();
        }
      }
    }
    return results;
  }

  mutable std::mutex mu_;
  EndpointStats stats_;  // Guarded by mu_.
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_TRACKING_ENDPOINT_H_
