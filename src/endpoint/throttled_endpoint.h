// ThrottledEndpoint: decorates another Endpoint with the operational limits
// real public SPARQL endpoints impose — query budgets, result-size caps,
// latency, and transient failures.
//
// The paper's motivation ("providers allow a limited number of queries …
// do not allow downloading the dataset") is made concrete and testable here:
// exceeding the budget yields ResourceExhausted, row caps silently truncate
// (like DBpedia's 10000-row cap), and failure injection exercises the
// samplers' error paths.
//
// Like every EndpointDecorator it implements batches only: a single
// Select/Ask is a one-slot batch, admitted, metered and charged exactly like
// any batch slot, so both forms see one row cap and one rng stream.
//
// Thread safety: safe for concurrent callers. Budget admission, the jitter/
// failure RNG, and the counters sit behind one mutex, but the inner call
// runs *outside* it — concurrent requests are in flight simultaneously,
// like independent HTTP connections to one metered provider. With
// `sleep_for_latency` the modeled latency is actually slept (outside the
// lock), which makes parallel alignment overlap waiting exactly the way it
// would against a real remote endpoint.

#ifndef SOFYA_ENDPOINT_THROTTLED_ENDPOINT_H_
#define SOFYA_ENDPOINT_THROTTLED_ENDPOINT_H_

#include <cstdint>
#include <mutex>
#include <string>

#include "endpoint/endpoint.h"
#include "util/random.h"

namespace sofya {

/// Limits and models applied by ThrottledEndpoint.
struct ThrottleOptions {
  /// Maximum number of queries before ResourceExhausted; kNoLimit = none.
  uint64_t query_budget = kNoLimit;

  /// Hard cap on rows per response; results are truncated to this many rows
  /// (mirrors e.g. DBpedia's public-endpoint result cap). 0 = no cap.
  uint64_t max_rows_per_query = 0;

  /// Simulated latency: per-query base cost plus per-returned-row cost.
  double base_latency_ms = 50.0;
  double per_row_latency_ms = 0.05;
  /// Uniform jitter in [0, jitter_ms) added per query (deterministic, from
  /// `seed`).
  double jitter_ms = 10.0;

  /// When true, each request actually sleeps its modeled latency (off the
  /// lock), so wall-clock behaves like a remote endpoint: sequential callers
  /// pay the sum, parallel callers overlap. Off by default — accounting-only
  /// latency keeps tests and benches fast.
  bool sleep_for_latency = false;

  /// Batch pipelining model: how many sub-queries of one SelectMany/AskMany
  /// batch share a single base-latency (+jitter) unit. Latency is charged
  /// per sub-query *wave*, never per batch call: with the default width of
  /// 1 every sub-query is its own wave, so a batched run's derived stats
  /// (latency, budget, rng stream) are identical to issuing the same
  /// queries sequentially — the regime cost comparisons assume. Width c > 1
  /// models a c-connection pipeline: a batch of k sub-queries costs
  /// ceil(k/c) base-latency units while the budget still meters all k
  /// requests (a provider meters requests, not sockets).
  size_t batch_wave_width = 1;

  /// Probability a query fails with Unavailable (drawn per attempt).
  double failure_rate = 0.0;

  /// Seed for jitter/failure draws; fixed seed => reproducible traces.
  uint64_t seed = 42;
};

/// Decorator enforcing ThrottleOptions on an inner endpoint.
class ThrottledEndpoint : public EndpointDecorator {
 public:
  /// Wraps `inner` (not owned; must outlive this object).
  ThrottledEndpoint(Endpoint* inner, ThrottleOptions options)
      : EndpointDecorator(inner), options_(options), rng_(options.seed) {}

  /// Batch admission charges the budget and the failure model per
  /// *sub-query* (a remote provider meters requests, not batches) and
  /// latency per sub-query *wave* of `batch_wave_width` requests. Each
  /// admitted sub-query goes to the inner endpoint as its own request, with
  /// its LIMIT tightened to the row cap. Each sub-query carries its own
  /// status: once the budget runs out mid-batch, the remaining slots come
  /// back ResourceExhausted while every already admitted answer is
  /// delivered. A single Select is a one-slot batch: one query, one wave.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override;

  /// Batched ASK with the same wave admission/charging as SelectMany. Each
  /// admitted probe is forwarded as ASK, so the inner early-exit evaluation
  /// survives the throttle; a boolean response ships no rows, so a probe
  /// costs base latency only.
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override;

  /// This layer's own metering (queries admitted, failures injected,
  /// latency, rows after capping) composed with the server-side counters of
  /// the inner endpoint (probes, scans, bytes, nested cache hits). Composing
  /// live counters instead of mirroring per-call deltas is what keeps the
  /// numbers exact when many requests are in flight at once.
  EndpointStats stats() const override;

  /// Resets the whole stack beneath this decorator (so the composed
  /// snapshot starts from zero everywhere).
  void ResetStats() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      local_ = EndpointStats();
      queries_issued_ = 0;
    }
    inner_->ResetStats();
  }

  /// Queries consumed from the budget so far.
  uint64_t queries_issued() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_issued_;
  }

  /// Remaining budget (kNoLimit when unbounded).
  uint64_t remaining_budget() const {
    if (options_.query_budget == kNoLimit) return kNoLimit;
    std::lock_guard<std::mutex> lock(mu_);
    return options_.query_budget > queries_issued_
               ? options_.query_budget - queries_issued_
               : 0;
  }

 private:
  /// Budget/failure preamble for one sub-query (under mu_). Returns non-OK
  /// when the request must not reach the inner endpoint.
  Status AdmitQuery();

  /// Latency accounting (and, optionally, the real sleep) for one request.
  void ChargeLatency(uint64_t rows);

  /// The one batch path behind SelectMany and AskMany: per-sub-query
  /// admission and per-wave latency charging. `issue(query)` sends one
  /// admitted sub-query to the inner endpoint; sub-queries the admission
  /// gate turns away keep its status.
  template <typename T, typename Issue>
  BatchResult<T> RunBatchWaves(std::span<const SelectQuery> queries,
                               Issue issue);

  ThrottleOptions options_;
  mutable std::mutex mu_;
  Rng rng_;                // Guarded by mu_.
  EndpointStats local_;    // This layer's own counters. Guarded by mu_.
  uint64_t queries_issued_ = 0;  // Guarded by mu_.
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_THROTTLED_ENDPOINT_H_
