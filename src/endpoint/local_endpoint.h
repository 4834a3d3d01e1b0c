// LocalEndpoint: serves a KnowledgeBase through the Endpoint interface.
//
// This is the "server side" of the simulation: the full KB lives here, and
// the alignment pipeline on the other side of the interface can only see
// what its queries return.
//
// Thread safety: concurrent Select/Ask/SelectMany/AskMany calls are safe as
// long as nobody writes to the KB concurrently (TripleStore's contract).
// Query evaluation itself is lock-free over the store; only the stats
// counters take a (tiny, post-evaluation) mutex.

#ifndef SOFYA_ENDPOINT_LOCAL_ENDPOINT_H_
#define SOFYA_ENDPOINT_LOCAL_ENDPOINT_H_

#include <mutex>
#include <string>

#include "endpoint/endpoint.h"
#include "rdf/knowledge_base.h"
#include "sparql/engine.h"

namespace sofya {

/// Endpoint over an in-process KnowledgeBase. The KB must outlive the
/// endpoint. Writes to the KB through kb() are allowed between queries
/// (time-sensitive-data scenarios); the store re-indexes lazily.
/// stats().bytes_estimated accumulates the N-Triples-serialized size of
/// every shipped cell.
class LocalEndpoint : public Endpoint {
 public:
  explicit LocalEndpoint(KnowledgeBase* kb)
      : kb_(kb), engine_(&kb->store(), &kb->dict()) {}

  const std::string& name() const override { return kb_->name(); }

  const std::string& base_iri() const override { return kb_->base_iri(); }

  StatusOr<ResultSet> Select(const SelectQuery& query) override;

  /// Batched execution: duplicate queries within one batch (by normalized
  /// fingerprint) are evaluated once and answered from the same result, so
  /// a batch of k identical probes costs one server query. Each sub-query
  /// carries its own status; duplicates share the first occurrence's
  /// outcome, error or not.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override;

  /// Native ASK: the streaming engine stops at the first solution, so the
  /// cost is O(first match) — one query, zero shipped rows — instead of a
  /// LIMIT-1 SELECT that ships a row.
  StatusOr<bool> Ask(const SelectQuery& query) override;

  /// Batched ASK: probes that are identical up to solution modifiers
  /// (AskFingerprint) are evaluated once and charged once, so a fan-out of
  /// k equal existence checks costs one server query.
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override;

  TermId EncodeTerm(const Term& term) override {
    return kb_->dict().Intern(term);
  }

  TermId LookupTerm(const Term& term) const override {
    return kb_->dict().Lookup(term);
  }

  StatusOr<Term> DecodeTerm(TermId id) const override {
    return kb_->dict().TryDecode(id);
  }

  /// The KB's write epoch: caches above this endpoint invalidate
  /// automatically when the dataset is mutated between queries.
  uint64_t data_epoch() const override { return kb_->data_epoch(); }

  EndpointStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = EndpointStats();
  }

  /// The EXPLAIN surface: the plan the served engine would run `query`
  /// with, without executing it (CLI `explain`, bench annotation).
  StatusOr<PlanExplain> Explain(const SelectQuery& query) const {
    return engine_.Explain(query);
  }

  /// The served engine (plan-cache accounting).
  const Engine& engine() const { return engine_; }

  /// The underlying KB (server-side only; pipeline code must not call this).
  KnowledgeBase* kb() { return kb_; }
  const KnowledgeBase* kb() const { return kb_; }

 private:
  KnowledgeBase* kb_;  // Not owned.
  Engine engine_;
  mutable std::mutex stats_mu_;
  EndpointStats stats_;  // Guarded by stats_mu_.
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_LOCAL_ENDPOINT_H_
