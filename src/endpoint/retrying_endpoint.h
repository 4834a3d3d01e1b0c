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
#include <vector>

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
  /// re-issued with backoff, while every answer that already succeeded is
  /// kept as-is — a recovered result is NEVER bought twice (against a live
  /// endpoint each re-buy is a real round trip). The batch is attempt 1;
  /// the re-issues share one backoff schedule (the one a single call gets:
  /// a single call is a one-slot batch). A re-issue carries every slot
  /// still Unavailable, as one batch, when the attempt before it got any
  /// answer, so a folded request that failed is recovered folded. When the
  /// attempt before it got none, it carries only the first such slot, as a
  /// canary: an endpoint that is down, not flaky, costs max_retries
  /// one-query re-issues, not max_retries copies of the whole batch, and
  /// the slots it never answered keep their Unavailable statuses.
  /// Non-transient failures pass through untouched in their slots.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    return RecoverMany(queries, &Endpoint::SelectMany);
  }

  /// Batched ASK with the same surgical recovery (and canary).
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    return RecoverMany(queries, &Endpoint::AskMany);
  }

  /// Sub-queries re-issued so far (a re-issued batch counts each slot).
  uint64_t retries_performed() const {
    return retries_performed_.load(std::memory_order_relaxed);
  }

 private:
  /// The one batch path behind SelectMany and AskMany: `many` sends the
  /// batch, then the re-issues described above, on the shared schedule
  /// (retry_policy.h).
  template <typename T>
  BatchResult<T> RecoverMany(
      std::span<const SelectQuery> queries,
      BatchResult<T> (Endpoint::*many)(std::span<const SelectQuery>)) {
    BatchResult<T> batch = (inner_->*many)(queries);
    bool answered = false;  // Did the last attempt answer any slot?
    for (const Status& status : batch.statuses) {
      answered = answered || !status.IsUnavailable();
    }
    RetryWhileTransient(
        batch,
        [](const BatchResult<T>& b) -> const Status* {
          const Status* longest = nullptr;  // The longest Retry-After asked.
          for (const Status& status : b.statuses) {
            if (status.IsUnavailable() &&
                (longest == nullptr ||
                 status.retry_after_ms() > longest->retry_after_ms())) {
              longest = &status;
            }
          }
          return longest;
        },
        [&](BatchResult<T>& b) {
          std::vector<size_t> failed;
          std::vector<SelectQuery> reissue;
          for (size_t i = 0; i < b.size() && (answered || failed.empty());
               ++i) {
            if (!b.statuses[i].IsUnavailable()) continue;
            failed.push_back(i);
            reissue.push_back(queries[i]);
          }
          retries_performed_.fetch_add(failed.size(),
                                       std::memory_order_relaxed);
          BatchResult<T> again = (inner_->*many)(reissue);
          answered = false;
          for (size_t k = 0; k < failed.size(); ++k) {
            answered = answered || !again.statuses[k].IsUnavailable();
            b.Set(failed[k], again.TakeSlot(k));
          }
        },
        options_);
    return batch;
  }

  RetryOptions options_;
  std::atomic<uint64_t> retries_performed_{0};
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_RETRYING_ENDPOINT_H_
