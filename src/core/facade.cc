#include "core/facade.h"

#include <algorithm>

#include "endpoint/paged_select.h"

namespace sofya {

Sofya::Sofya(KnowledgeBase* candidate_kb, KnowledgeBase* reference_kb,
             const SameAsIndex* links, SofyaOptions options) {
  candidate_local_ = std::make_unique<LocalEndpoint>(candidate_kb);
  reference_local_ = std::make_unique<LocalEndpoint>(reference_kb);
  BuildStack(candidate_local_.get(), reference_local_.get(),
             /*always_retry=*/false, links, options);
}

Sofya::Sofya(std::unique_ptr<Endpoint> candidate_base,
             std::unique_ptr<Endpoint> reference_base,
             const SameAsIndex* links, SofyaOptions options) {
  candidate_base_owned_ = std::move(candidate_base);
  reference_base_owned_ = std::move(reference_base);
  // Real networks fail: the retry layer is unconditional for remote bases.
  BuildStack(candidate_base_owned_.get(), reference_base_owned_.get(),
             /*always_retry=*/true, links, options);
}

void Sofya::BuildStack(Endpoint* candidate_base, Endpoint* reference_base,
                       bool always_retry, const SameAsIndex* links,
                       const SofyaOptions& options) {
  candidate_ = candidate_base;
  reference_ = reference_base;
  if (options.throttle) {
    candidate_throttled_ = std::make_unique<ThrottledEndpoint>(
        candidate_, options.candidate_throttle);
    reference_throttled_ = std::make_unique<ThrottledEndpoint>(
        reference_, options.reference_throttle);
    candidate_ = candidate_throttled_.get();
    reference_ = reference_throttled_.get();
  }
  if (options.throttle || always_retry) {
    // Retry sits on the client side of the throttle: each retry consumes
    // budget, exactly as a real re-issued request would.
    candidate_retrying_ =
        std::make_unique<RetryingEndpoint>(candidate_, options.retry);
    reference_retrying_ =
        std::make_unique<RetryingEndpoint>(reference_, options.retry);
    candidate_ = candidate_retrying_.get();
    reference_ = reference_retrying_.get();
  }
  if (options.cache) {
    // The cache is the outermost (client-side) layer: a hit costs neither
    // budget, simulated latency, nor a retry attempt.
    candidate_caching_ = std::make_unique<CachingEndpoint>(
        candidate_, options.candidate_cache);
    reference_caching_ = std::make_unique<CachingEndpoint>(
        reference_, options.reference_cache);
    candidate_ = candidate_caching_.get();
    reference_ = reference_caching_.get();
  }
  on_the_fly_ = std::make_unique<OnTheFlyAligner>(candidate_, reference_,
                                                  links, options.aligner);
  aligner_options_ = options.aligner;
}

StatusOr<const AlignmentResult*> Sofya::Align(
    const std::string& relation_iri) {
  return on_the_fly_->AlignCached(Term::Iri(relation_iri));
}

StatusOr<std::vector<const AlignmentResult*>> Sofya::AlignAll(
    const std::vector<std::string>& relation_iris, size_t num_threads) {
  std::vector<Term> relations;
  relations.reserve(relation_iris.size());
  for (const std::string& iri : relation_iris) {
    relations.push_back(Term::Iri(iri));
  }
  StatusOr<std::vector<const AlignmentResult*>> results =
      on_the_fly_->AlignManyCached(relations, num_threads);
  if (results.ok()) {
    // The audited-run manifest commits to this invocation: config, every
    // verdict in input order, and the query streams both endpoints saw
    // (when journals are attached). Recomputed per call — a later AlignAll
    // is a different run.
    last_manifest_ = BuildRunManifest(aligner_options_, results.value(),
                                      candidate_journal_, reference_journal_);
  }
  return results;
}

StatusOr<std::vector<std::string>> Sofya::ReferenceRelations() {
  std::vector<std::string> iris;
  if (reference_local_ != nullptr) {
    // Local KB: enumerate the dictionary, query-free.
    const KnowledgeBase* kb = reference_local_->kb();
    for (TermId p : kb->Relations()) {
      const Term& term = kb->dict().Decode(p);
      if (term.is_iri()) iris.push_back(term.lexical());
    }
  } else {
    // Remote base: a schema-discovery query through the working stack,
    // paged so a server-side row cap (DBpedia-style) cannot silently
    // truncate the relation list.
    SOFYA_ASSIGN_OR_RETURN(std::vector<Term> inventory,
                           FetchPredicateInventory(reference_));
    iris.reserve(inventory.size());
    for (const Term& term : inventory) iris.push_back(term.lexical());
  }
  std::sort(iris.begin(), iris.end());
  iris.erase(std::unique(iris.begin(), iris.end()), iris.end());
  return iris;
}

StatusOr<Term> Sofya::BestCandidateFor(const std::string& relation_iri) {
  return on_the_fly_->BestCandidateFor(Term::Iri(relation_iri));
}

StatusOr<SelectQuery> Sofya::RewriteQuery(
    const SelectQuery& reference_query) {
  return on_the_fly_->RewriteQuery(reference_query);
}

StatusOr<ResultSet> Sofya::ExecuteOnCandidate(const SelectQuery& query) {
  return candidate_->Select(query);
}

StatusOr<ResultSet> Sofya::ExecuteOnReference(const SelectQuery& query) {
  return reference_->Select(query);
}

StatusOr<PlanExplain> Sofya::ExplainOnCandidate(
    const SelectQuery& query) const {
  if (candidate_local_ == nullptr) {
    return Status::Unimplemented(
        "explain requires an in-process dataset; remote endpoints plan "
        "server-side");
  }
  return candidate_local_->Explain(query);
}

StatusOr<PlanExplain> Sofya::ExplainOnReference(
    const SelectQuery& query) const {
  if (reference_local_ == nullptr) {
    return Status::Unimplemented(
        "explain requires an in-process dataset; remote endpoints plan "
        "server-side");
  }
  return reference_local_->Explain(query);
}

EndpointStats Sofya::TotalCost() const {
  EndpointStats total = candidate_->stats();
  total.Merge(reference_->stats());
  return total;
}

}  // namespace sofya
