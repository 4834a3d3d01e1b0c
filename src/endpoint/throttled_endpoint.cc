#include "endpoint/throttled_endpoint.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <type_traits>

#include "util/string_util.h"

namespace sofya {

Status ThrottledEndpoint::AdmitQuery() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.query_budget != kNoLimit &&
      queries_issued_ >= options_.query_budget) {
    return Status::ResourceExhausted(
        StrFormat("query budget of %llu exhausted on endpoint '%s'",
                  static_cast<unsigned long long>(options_.query_budget),
                  name().c_str()));
  }
  ++queries_issued_;
  ++local_.queries;

  // Failure injection happens before any server work, like a dropped
  // connection. The budget is still charged (the request was made).
  if (options_.failure_rate > 0.0 && rng_.Bernoulli(options_.failure_rate)) {
    ++local_.failures_injected;
    local_.simulated_latency_ms += options_.base_latency_ms;
    return Status::Unavailable(
        StrFormat("injected endpoint failure on '%s'", name().c_str()));
  }
  return Status::OK();
}

void ThrottledEndpoint::ChargeLatency(uint64_t rows) {
  double latency = options_.base_latency_ms +
                   options_.per_row_latency_ms * static_cast<double>(rows);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.jitter_ms > 0.0) {
      latency += rng_.NextDouble() * options_.jitter_ms;
    }
    local_.rows_returned += rows;
    local_.simulated_latency_ms += latency;
  }
  if (options_.sleep_for_latency) {
    // The modeled wire time, slept off the lock: concurrent requests
    // overlap their waits, exactly like independent remote connections.
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
        latency));
  }
}

template <typename T, typename Issue>
BatchResult<T> ThrottledEndpoint::RunBatchWaves(
    std::span<const SelectQuery> queries, Issue issue) {
  BatchResult<T> batch = BatchResult<T>::Sized(queries.size());
  const size_t n = queries.size();
  const size_t width = std::max<size_t>(1, options_.batch_wave_width);
  for (size_t start = 0; start < n; start += width) {
    const size_t end = std::min(n, start + width);
    // Admission is per sub-query: budget and failure injection meter every
    // request of the wave individually, exactly like sequential issue.
    uint64_t wave_rows = 0;
    bool wave_reached_server = false;
    for (size_t i = start; i < end; ++i) {
      Status admitted = AdmitQuery();
      if (!admitted.ok()) {
        batch.statuses[i] = std::move(admitted);
        continue;
      }
      StatusOr<T> result = issue(queries[i]);
      if (result.ok()) {
        // A boolean response ships no rows.
        if constexpr (std::is_same_v<T, ResultSet>) {
          wave_rows += result->rows.size();
        }
        wave_reached_server = true;
      }
      batch.Set(i, std::move(result));
    }
    // One base-latency (+jitter) unit per wave that produced an answer,
    // plus the per-row cost of everything the wave shipped. Never a
    // per-batch-call charge: with width 1 this is bit-identical (counters
    // AND rng stream) to issuing the sub-queries sequentially.
    if (wave_reached_server) ChargeLatency(wave_rows);
  }
  return batch;
}

SelectBatchResult ThrottledEndpoint::SelectMany(
    std::span<const SelectQuery> queries) {
  return RunBatchWaves<ResultSet>(queries, [this](const SelectQuery& query) {
    // Apply the row cap by tightening LIMIT before the server sees the
    // query (equivalent to server-side truncation, but cheaper to
    // simulate).
    SelectQuery capped = query;
    if (options_.max_rows_per_query > 0 &&
        (capped.limit() == kNoLimit ||
         capped.limit() > options_.max_rows_per_query)) {
      capped.Limit(options_.max_rows_per_query);
    }
    return inner_->Select(capped);
  });
}

AskBatchResult ThrottledEndpoint::AskMany(std::span<const SelectQuery> queries) {
  return RunBatchWaves<bool>(queries, [this](const SelectQuery& query) {
    return inner_->Ask(query);
  });
}

EndpointStats ThrottledEndpoint::stats() const {
  const EndpointStats inner = inner_->stats();
  std::lock_guard<std::mutex> lock(mu_);
  EndpointStats stats = local_;
  // Server-side work is reported by the server, not re-derived from per-call
  // deltas (which tear under concurrency).
  stats.index_probes = inner.index_probes;
  stats.triples_scanned = inner.triples_scanned;
  stats.bytes_estimated = inner.bytes_estimated;
  stats.cache_hits = inner.cache_hits;
  stats.cache_misses = inner.cache_misses;
  return stats;
}

}  // namespace sofya
