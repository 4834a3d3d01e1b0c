// Endpoint: the ONLY way SOFYA's alignment pipeline touches a knowledge
// base. This models the paper's access regime — "our method requires only a
// SPARQL endpoint for each dataset" — and is where the "no download, few
// queries" claim is enforced and measured.
//
// Results are dictionary-encoded. Conceptually a remote endpoint returns
// term *strings* and the client re-interns them; sharing the KB's dictionary
// ids is an optimization that leaks nothing beyond the surface forms, and
// DecodeTerm() is the explicit string boundary.

#ifndef SOFYA_ENDPOINT_ENDPOINT_H_
#define SOFYA_ENDPOINT_ENDPOINT_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {

/// Cumulative access accounting for one endpoint.
///
/// The query-cost experiment (E4) reports these counters; they are also how
/// tests assert that samplers stay within the paper's "few queries" regime.
struct EndpointStats {
  uint64_t queries = 0;               ///< SELECT/ASK requests served.
  uint64_t rows_returned = 0;         ///< Total result rows shipped.
  uint64_t bytes_estimated = 0;       ///< Approx. serialized payload bytes.
  uint64_t index_probes = 0;          ///< Store lookups behind the queries.
  uint64_t triples_scanned = 0;       ///< Index entries touched server-side.
  uint64_t cache_hits = 0;            ///< Requests answered from a cache.
  uint64_t cache_misses = 0;          ///< Requests that had to go through.
  uint64_t failures_injected = 0;     ///< Simulated faults raised.
  /// Always 0: the engine plans each query once. Kept only because
  /// perfbench/perfbench.cc reports it as `local.replans`; drop both
  /// together at the next benchmark edit.
  uint64_t replans = 0;
  double simulated_latency_ms = 0.0;  ///< Modeled network+server time.

  /// Adds another stats block (for fleet-level reporting).
  void Merge(const EndpointStats& other) {
    queries += other.queries;
    rows_returned += other.rows_returned;
    bytes_estimated += other.bytes_estimated;
    index_probes += other.index_probes;
    triples_scanned += other.triples_scanned;
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    failures_injected += other.failures_injected;
    replans += other.replans;
    simulated_latency_ms += other.simulated_latency_ms;
  }
};

/// Per-sub-query outcomes of one batch call: statuses[i] and values[i]
/// answer queries[i]. values[i] is meaningful only when statuses[i].ok().
///
/// This replaces the fail-fast StatusOr<vector<T>> contract: a batch whose
/// sub-query #7 hit a dead connection still delivers the other results, so
/// a recovery layer (RetryingEndpoint) re-issues *only* #7 instead of
/// re-buying every recovered answer — and against a live endpoint every
/// discarded answer was a real remote round trip.
template <typename T>
struct BatchResult {
  std::vector<Status> statuses;
  std::vector<T> values;

  BatchResult() = default;

  /// A batch of `n` OK slots with default-constructed values (the usual
  /// starting point for an implementation that fills slots in place).
  static BatchResult Sized(size_t n) {
    BatchResult batch;
    batch.statuses.resize(n);
    batch.values.resize(n);
    return batch;
  }

  /// A batch where every sub-query failed the same way (a whole-call
  /// failure, e.g. InvalidArgument on the batch envelope).
  static BatchResult FromError(size_t n, const Status& error) {
    BatchResult batch = Sized(n);
    for (Status& status : batch.statuses) status = error;
    return batch;
  }

  size_t size() const { return statuses.size(); }
  bool empty() const { return statuses.empty(); }

  /// True iff every sub-query succeeded.
  bool all_ok() const {
    for (const Status& status : statuses) {
      if (!status.ok()) return false;
    }
    return true;
  }

  size_t num_failed() const {
    size_t failed = 0;
    for (const Status& status : statuses) {
      if (!status.ok()) ++failed;
    }
    return failed;
  }

  /// The first non-OK status by sub-query index (deterministic regardless
  /// of execution order); OK when all_ok().
  Status FirstError() const {
    for (const Status& status : statuses) {
      if (!status.ok()) return status;
    }
    return Status::OK();
  }

  /// Stores one sub-query's outcome.
  void Set(size_t i, StatusOr<T> outcome) {
    if (outcome.ok()) {
      statuses[i] = Status::OK();
      values[i] = std::move(outcome).value();
    } else {
      statuses[i] = outcome.status();
    }
  }

  /// Copies slot `from` into slot `to` (intra-batch dedup: duplicates share
  /// the first occurrence's outcome, error or not).
  void CopySlot(size_t from, size_t to) {
    statuses[to] = statuses[from];
    values[to] = values[from];
  }

  /// Slot `i`'s outcome as a single-call result, moving the value out (a
  /// one-slot batch read back as Select/Ask).
  StatusOr<T> TakeSlot(size_t i) {
    if (!statuses[i].ok()) return statuses[i];
    return T(std::move(values[i]));
  }

  /// Fail-fast adapter for consumers that need every answer to proceed
  /// (the alignment pipeline: partial evidence would change verdicts):
  /// the values when all_ok(), otherwise the first error by index.
  StatusOr<std::vector<T>> IntoValues() && {
    Status error = FirstError();
    if (!error.ok()) return error;
    return std::move(values);
  }
};

using SelectBatchResult = BatchResult<ResultSet>;
using AskBatchResult = BatchResult<bool>;

/// Abstract SPARQL access point for one dataset.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Dataset name (for reports/logs).
  virtual const std::string& name() const = 0;

  /// The dataset's base IRI (namespace of its locally minted entities);
  /// used to direct sameAs translation toward this dataset.
  virtual const std::string& base_iri() const = 0;

  /// Executes a SELECT query.
  virtual StatusOr<ResultSet> Select(const SelectQuery& query) = 0;

  /// Executes a batch of SELECT queries in one round trip, reporting one
  /// status + result per sub-query (BatchResult). Every sub-query is
  /// attempted: one failure does not discard the others' answers. The
  /// default implementation runs the queries sequentially through Select();
  /// endpoint implementations override it to exploit batching
  /// (LocalEndpoint answers duplicate queries within a batch from one
  /// evaluation, CachingEndpoint forwards only its cache misses,
  /// HttpSparqlEndpoint pipelines over its connection pool — a dead
  /// connection fails only the sub-queries that were in flight on it).
  virtual SelectBatchResult SelectMany(std::span<const SelectQuery> queries);

  /// Executes the query as ASK: true iff at least one solution exists.
  /// The default implementation runs Select with LIMIT 1; endpoints that
  /// can do better override it (LocalEndpoint stops the evaluation pipeline
  /// at the first solution and ships no rows; decorators run it as a
  /// one-slot AskMany, which reaches the base as ASK, so the early-exit
  /// hint survives the whole stack).
  virtual StatusOr<bool> Ask(const SelectQuery& query);

  /// Executes a batch of ASK probes in one round trip, with the same
  /// per-sub-query outcome contract as SelectMany. The default
  /// implementation loops Ask(); LocalEndpoint answers duplicate probes
  /// within a batch (existence ignores solution modifiers, so Ask(q) and
  /// Ask(q.Limit(5)) dedup to one evaluation), and CachingEndpoint forwards
  /// only its cache misses.
  virtual AskBatchResult AskMany(std::span<const SelectQuery> queries);

  /// Encodes a term into the endpoint's id space (interning it if new).
  /// This is how client-side constants (e.g. translated entities) enter
  /// queries.
  virtual TermId EncodeTerm(const Term& term) = 0;

  /// Looks up a term without interning; kNullTermId when unknown.
  virtual TermId LookupTerm(const Term& term) const = 0;

  /// Decodes an id returned in a ResultSet back to a term.
  virtual StatusOr<Term> DecodeTerm(TermId id) const = 0;

  /// Monotonic version of the dataset behind this endpoint: bumped on every
  /// write (time-sensitive-data scenarios), so client-side caches can drop
  /// stale entries automatically. Decorators forward to the inner endpoint;
  /// sources that cannot observe writes (remote endpoints) report 0, which
  /// means "assume immutable" — exactly the old contract.
  virtual uint64_t data_epoch() const { return 0; }

  /// Access accounting since construction / last ResetStats(), returned as
  /// a point-in-time snapshot. A snapshot is internally consistent per
  /// endpoint layer but deliberately a *copy*: with concurrent callers the
  /// counters keep moving, and handing out references to live counters is
  /// what made the pre-parallel interface unfixable. For decorators,
  /// ResetStats() resets the whole stack beneath it.
  virtual EndpointStats stats() const = 0;
  virtual void ResetStats() = 0;
};

/// Base of the decorators that stack on another Endpoint (cache, retry,
/// throttle, tracking, recording). Every virtual forwards to the inner
/// endpoint; a decorator overrides only what its layer changes.
///
/// One path per query kind: decorators implement SelectMany/AskMany only.
/// Select/Ask are final and run a one-slot batch, so a single call gets
/// exactly the batch path's caching, admission, accounting and retry
/// schedule; the two forms cannot drift apart.
class EndpointDecorator : public Endpoint {
 public:
  const std::string& name() const override { return inner_->name(); }
  const std::string& base_iri() const override { return inner_->base_iri(); }

  StatusOr<ResultSet> Select(const SelectQuery& query) final;
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    return inner_->SelectMany(queries);
  }
  StatusOr<bool> Ask(const SelectQuery& query) final;
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    return inner_->AskMany(queries);
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

 protected:
  /// `inner` is not owned and must outlive the decorator.
  explicit EndpointDecorator(Endpoint* inner) : inner_(inner) {}

  Endpoint* inner_;  // Not owned.
};

/// Cache/dedup key for ASK probes (SelectQuery::RenderKey in kAsk mode):
/// the query fingerprint with solution modifiers normalized away
/// (existence does not depend on DISTINCT/OFFSET/LIMIT) and an "#ask"
/// suffix so an ASK entry can never collide with the SELECT form of the
/// same query. Shared by CachingEndpoint and LocalEndpoint::AskMany so
/// their dedup agrees.
std::string AskFingerprint(const SelectQuery& query);

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_ENDPOINT_H_
