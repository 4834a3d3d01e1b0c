// Benchmark-owned timing decorators for the traced run.
//
// Spans inside the library do not exist yet, so the traced run measures
// each layer from the outside: a TimedEndpoint sits at an Endpoint
// boundary (aligner -> outermost endpoint, cache -> base) and records the
// number and wall time of the query calls that cross it. Everything else
// forwards untouched, so a stack with these decorators answers, counts and
// invalidates exactly like the same stack without them.

#ifndef SOFYA_PERFBENCH_TRACING_H_
#define SOFYA_PERFBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "endpoint/endpoint.h"

namespace sofya::perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Calls and busy time at one boundary; safe for concurrent callers.
struct BoundaryCounters {
  std::atomic<uint64_t> calls{0};
  std::atomic<uint64_t> nanos{0};

  void Add(uint64_t elapsed_nanos) {
    calls.fetch_add(1, std::memory_order_relaxed);
    nanos.fetch_add(elapsed_nanos, std::memory_order_relaxed);
  }
  double ms() const {
    return static_cast<double>(nanos.load(std::memory_order_relaxed)) / 1e6;
  }
  uint64_t count() const { return calls.load(std::memory_order_relaxed); }
};

/// Times the query calls (Select/SelectMany/Ask/AskMany) crossing one
/// endpoint boundary. When `after_write` is given, the first query call
/// after a writer raised the flag is also charged to `first_after_write`:
/// that call pays the lazy index re-sorts and memo rebuilds of the write.
class TimedEndpoint : public Endpoint {
 public:
  /// Nothing is owned; every pointer must outlive this object.
  TimedEndpoint(Endpoint* inner, BoundaryCounters* counters,
                std::atomic<bool>* after_write = nullptr,
                BoundaryCounters* first_after_write = nullptr)
      : inner_(inner),
        counters_(counters),
        after_write_(after_write),
        first_after_write_(first_after_write) {}

  const std::string& name() const override { return inner_->name(); }
  const std::string& base_iri() const override { return inner_->base_iri(); }

  StatusOr<ResultSet> Select(const SelectQuery& query) override {
    return Timed([&] { return inner_->Select(query); });
  }
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    return Timed([&] { return inner_->SelectMany(queries); });
  }
  StatusOr<bool> Ask(const SelectQuery& query) override {
    return Timed([&] { return inner_->Ask(query); });
  }
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    return Timed([&] { return inner_->AskMany(queries); });
  }

  TermId EncodeTerm(const Term& term) override {
    return inner_->EncodeTerm(term);
  }
  TermId LookupTerm(const Term& term) const override {
    return inner_->LookupTerm(term);
  }
  StatusOr<Term> DecodeTerm(TermId id) const override {
    return inner_->DecodeTerm(id);
  }
  uint64_t data_epoch() const override { return inner_->data_epoch(); }
  EndpointStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  template <typename Fn>
  auto Timed(Fn&& call) -> decltype(call()) {
    const bool first =
        after_write_ != nullptr &&
        after_write_->exchange(false, std::memory_order_relaxed);
    const uint64_t start = NowNanos();
    auto result = call();
    const uint64_t elapsed = NowNanos() - start;
    counters_->Add(elapsed);
    if (first) first_after_write_->Add(elapsed);
    return result;
  }

  Endpoint* inner_;
  BoundaryCounters* counters_;
  std::atomic<bool>* after_write_;
  BoundaryCounters* first_after_write_;
};

}  // namespace sofya::perfbench

#endif  // SOFYA_PERFBENCH_TRACING_H_
