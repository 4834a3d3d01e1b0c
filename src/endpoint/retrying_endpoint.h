// RetryingEndpoint: client-side retry of transient (Unavailable) failures.
//
// Public endpoints drop connections; a client that aborts a whole alignment
// on one 503 wastes its query budget. This decorator retries Unavailable up
// to a bounded number of times — waiting an exponentially growing, jittered
// backoff before every re-issue (retry_policy.h) — and passes every other
// status through unchanged. Non-transient errors (ResourceExhausted,
// InvalidArgument, ...) are never retried.

// Thread safety: safe for concurrent callers (the retry loop is per-call
// state; the retry counter is atomic), provided the inner endpoint is.

#ifndef SOFYA_ENDPOINT_RETRYING_ENDPOINT_H_
#define SOFYA_ENDPOINT_RETRYING_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "endpoint/endpoint.h"
#include "endpoint/retry_policy.h"

namespace sofya {

/// Decorator; wraps any Endpoint (typically a ThrottledEndpoint).
class RetryingEndpoint : public EndpointDecorator {
 public:
  /// `inner` is not owned and must outlive this object.
  RetryingEndpoint(Endpoint* inner, RetryOptions options = {})
      : EndpointDecorator(inner), options_(std::move(options)) {}

  /// Forwards the whole batch to the inner endpoint so a batching/caching
  /// layer beneath keeps its intra-batch dedup. The per-sub-query contract
  /// makes recovery surgical: sub-queries that came back Unavailable are
  /// re-issued individually with backoff, while every answer that already
  /// succeeded is kept as-is — a recovered result is NEVER bought twice
  /// (against a live endpoint each re-buy is a real round trip). The batch
  /// is each slot's attempt 1; the schedule is the one a single call gets
  /// (a single call is a one-slot batch). The recovery pass trickles one
  /// query at a time, deliberately: those sub-queries just failed because
  /// the server is struggling, and one-at-a-time is the gentle regime.
  /// Non-transient failures pass through untouched in their slots.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    return RecoverMany(queries, &Endpoint::SelectMany);
  }

  /// Batched ASK with the same surgical recovery (and short-circuit).
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    return RecoverMany(queries, &Endpoint::AskMany);
  }

  /// Transient failures absorbed so far.
  uint64_t retries_performed() const {
    return retries_performed_.load(std::memory_order_relaxed);
  }

 private:
  /// The one batch path behind SelectMany and AskMany: `many` sends the
  /// batch, then each Unavailable slot is re-issued as a one-slot `many`
  /// batch on the shared policy (retry_policy.h), counting each re-issue.
  template <typename T>
  BatchResult<T> RecoverMany(
      std::span<const SelectQuery> queries,
      BatchResult<T> (Endpoint::*many)(std::span<const SelectQuery>)) {
    BatchResult<T> batch = (inner_->*many)(queries);
    // Systemic-failure short-circuit: the first slot whose OWN full backoff
    // schedule still ends Unavailable means the endpoint is down, not
    // flaky — stop burning retry schedules (and hammering the server) on
    // the remaining slots; they already carry their Unavailable statuses.
    bool endpoint_down = false;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!batch.statuses[i].IsUnavailable() || endpoint_down) continue;
      StatusOr<T> recovered = RetryTransient(
          StatusOr<T>(batch.statuses[i]),
          [&] { return (inner_->*many)(queries.subspan(i, 1)).TakeSlot(0); },
          options_,
          [this] {
            retries_performed_.fetch_add(1, std::memory_order_relaxed);
          });
      endpoint_down = !recovered.ok() && recovered.status().IsUnavailable();
      batch.Set(i, std::move(recovered));
    }
    return batch;
  }

  RetryOptions options_;
  std::atomic<uint64_t> retries_performed_{0};
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_RETRYING_ENDPOINT_H_
