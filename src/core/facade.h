// Sofya: the one-object entry point used by examples and downstream code.
//
// Owns the endpoint plumbing (LocalEndpoint per KB — or any injected base
// endpoint, e.g. HttpSparqlEndpoint for a live SPARQL service — plus
// optional throttling/retry/caching decorators) and an OnTheFlyAligner, so
// callers go from "two KBs and a link set" to "aligned relations /
// rewritten queries" in two lines.

#ifndef SOFYA_CORE_FACADE_H_
#define SOFYA_CORE_FACADE_H_

#include <memory>
#include <string>
#include <vector>

#include "align/on_the_fly.h"
#include "align/relation_aligner.h"
#include "core/run_manifest.h"
#include "endpoint/caching_endpoint.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/throttled_endpoint.h"
#include "rdf/knowledge_base.h"
#include "sameas/sameas_index.h"

namespace sofya {

/// Facade configuration.
struct SofyaOptions {
  AlignerOptions aligner;

  /// When true, both endpoints are wrapped in ThrottledEndpoint with the
  /// options below — the realistic remote-access regime (for real remote
  /// bases the throttle acts as a client-side budget/row-cap guard).
  bool throttle = false;
  ThrottleOptions candidate_throttle;
  ThrottleOptions reference_throttle;

  /// Client-side retry of transient (Unavailable) failures with
  /// exponential backoff + jitter. The retry layer is stacked when
  /// `throttle` is on (simulated 503s) and always for remote base
  /// endpoints (real 503s).
  RetryOptions retry;

  /// Client-side LRU result cache, outermost in the stack: repeated
  /// evidence probes are answered locally and never consume query budget.
  /// On by default — SOFYA's probe workload is heavily overlapping.
  bool cache = true;
  CacheOptions candidate_cache;
  CacheOptions reference_cache;
};

/// The facade. KBs and links are borrowed, not owned.
class Sofya {
 public:
  /// `candidate_kb` is K' (searched for body relations r'); `reference_kb`
  /// is K (owns the head relations r you align). `links` is the sameAs set.
  Sofya(KnowledgeBase* candidate_kb, KnowledgeBase* reference_kb,
        const SameAsIndex* links, SofyaOptions options = {});

  /// Remote-base constructor: the facade takes ownership of two base
  /// endpoints (e.g. HttpSparqlEndpoint::Create(...) results, or a mix of
  /// remote and LocalEndpoint) and stacks throttling/retry/caching above
  /// them exactly as it does for local KBs. The retry layer is always
  /// present here — real networks fail.
  Sofya(std::unique_ptr<Endpoint> candidate_base,
        std::unique_ptr<Endpoint> reference_base, const SameAsIndex* links,
        SofyaOptions options = {});

  /// Aligns the reference relation with the given IRI (cached).
  StatusOr<const AlignmentResult*> Align(const std::string& relation_iri);

  /// Aligns many reference relations in parallel across `num_threads`
  /// workers (whole-schema alignment, the regime PARIS targets). Each
  /// relation is decomposed into phase-level subtasks on a work-stealing
  /// pool, so one giant relation cannot serialize the tail. Results come
  /// back in input order, are memoized like Align's, and are bit-identical
  /// to sequential alignment for any thread count.
  StatusOr<std::vector<const AlignmentResult*>> AlignAll(
      const std::vector<std::string>& relation_iris, size_t num_threads = 1);

  /// Every relation IRI appearing as a predicate in the reference KB, in
  /// sorted order — the natural AlignAll input for whole-schema runs.
  /// For a local KB this enumerates the dictionary query-free; for a
  /// remote base it costs one SELECT DISTINCT ?p query on the reference
  /// endpoint.
  StatusOr<std::vector<std::string>> ReferenceRelations();

  /// Best aligned candidate relation for the given reference relation.
  StatusOr<Term> BestCandidateFor(const std::string& relation_iri);

  /// Rewrites a reference-KB query against the candidate KB.
  StatusOr<SelectQuery> RewriteQuery(const SelectQuery& reference_query);

  /// Runs a query on the candidate endpoint (e.g. one from RewriteQuery).
  StatusOr<ResultSet> ExecuteOnCandidate(const SelectQuery& query);

  /// Runs a query on the reference endpoint.
  StatusOr<ResultSet> ExecuteOnReference(const SelectQuery& query);

  /// EXPLAIN against the in-process engines: the join-order plan the query
  /// would run with (chosen clause order, per-clause estimates, filters).
  /// Unimplemented for remote bases — a remote server plans for itself.
  StatusOr<PlanExplain> ExplainOnCandidate(const SelectQuery& query) const;
  StatusOr<PlanExplain> ExplainOnReference(const SelectQuery& query) const;

  /// The working endpoints (cached/throttled when configured).
  Endpoint* candidate_endpoint() { return candidate_; }
  Endpoint* reference_endpoint() { return reference_; }

  /// The caches (nullptr when options.cache is false). Exposed for cache
  /// inspection and for Clear() after mutating a KB.
  CachingEndpoint* candidate_cache() { return candidate_caching_.get(); }
  CachingEndpoint* reference_cache() { return reference_caching_.get(); }

  /// Combined access cost over both endpoints since construction.
  EndpointStats TotalCost() const;

  /// Attaches cassette journals (RecordingEndpoint / ReplayEndpoint) whose
  /// query-stream digests AlignAll folds into the run manifest. Journals
  /// are borrowed; pass nullptr to detach. Without journals the manifest's
  /// `queries` entries carry the empty digest.
  void AttachJournals(const CassetteJournal* candidate,
                      const CassetteJournal* reference) {
    candidate_journal_ = candidate;
    reference_journal_ = reference;
  }

  /// The audited-run manifest of the most recent AlignAll (config, verdict
  /// chain, query-stream digests). Empty until AlignAll succeeds once.
  const RunManifest& last_manifest() const { return last_manifest_; }

  OnTheFlyAligner& on_the_fly() { return *on_the_fly_; }

 private:
  /// Stacks throttle/retry/cache over the two bases and builds the aligner.
  void BuildStack(Endpoint* candidate_base, Endpoint* reference_base,
                  bool always_retry, const SameAsIndex* links,
                  const SofyaOptions& options);

  std::unique_ptr<LocalEndpoint> candidate_local_;  // KB ctor only.
  std::unique_ptr<LocalEndpoint> reference_local_;
  std::unique_ptr<Endpoint> candidate_base_owned_;  // Remote ctor only.
  std::unique_ptr<Endpoint> reference_base_owned_;
  std::unique_ptr<ThrottledEndpoint> candidate_throttled_;
  std::unique_ptr<ThrottledEndpoint> reference_throttled_;
  std::unique_ptr<RetryingEndpoint> candidate_retrying_;
  std::unique_ptr<RetryingEndpoint> reference_retrying_;
  std::unique_ptr<CachingEndpoint> candidate_caching_;
  std::unique_ptr<CachingEndpoint> reference_caching_;
  Endpoint* candidate_ = nullptr;  // Outermost decorator.
  Endpoint* reference_ = nullptr;
  std::unique_ptr<OnTheFlyAligner> on_the_fly_;
  AlignerOptions aligner_options_;  // As configured (manifest config digest).
  const CassetteJournal* candidate_journal_ = nullptr;  // Not owned.
  const CassetteJournal* reference_journal_ = nullptr;  // Not owned.
  RunManifest last_manifest_;
};

}  // namespace sofya

#endif  // SOFYA_CORE_FACADE_H_
