// Pluggable candidate discovery for relation alignment.
//
// Paper, Section 2.1 gives ONE way to find candidate relations r' for a
// reference relation r: sample r(x,y), translate the pair through sameAs
// into K', and ask which predicates connect it. That recipe needs
// entity-level sameAs links — the very thing the interesting scenarios
// (PARIS-style probabilistic alignment, FLORA's unsupervised setting,
// cross-lingual KBs) don't have. This header turns discovery into a
// pluggable layer with three sources plus a combiner:
//
//   * SameAsOverlapSource   — the paper's sampler, verbatim (the refactor
//                             is regression-tested to be verdict- and
//                             query-count-identical to the old finder);
//   * LexicalIndexSource    — character-n-gram MinHash/LSH over the
//                             candidate endpoint's predicate inventory
//                             (similarity/minhash_lsh.h): sub-linear label
//                             lookup, needs zero links;
//   * DistributionSource    — head/tail distribution + functionality
//                             profile similarity, observed through
//                             endpoint queries only (no embeddings);
//   * CompositeCandidateSource — PARIS-style noisy-or combination
//                             prior(r') = 1 - prod_s (1 - w_s * score_s)
//                             over whichever sources produced a score.
//
// The prior seeds the existing UBS evidence loop: discovery proposes,
// sampling + confidence + UBS still decide. Every source talks to the KBs
// exclusively through the Endpoint interface and is a deterministic
// function of (relation, options, query results), which is what keeps
// AlignMany bit-identical across thread counts.
//
// The lexical index is built lazily from the candidate endpoint's
// predicate inventory and memoized in a LexicalIndexCache shared across
// one aligner's relations; entries are keyed by (LSH options, inventory
// hash) — the only inputs the index depends on — so a KB write rebuilds it
// only when it adds or removes a predicate, not on every data_epoch bump.

#ifndef SOFYA_ALIGN_CANDIDATE_SOURCE_H_
#define SOFYA_ALIGN_CANDIDATE_SOURCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "endpoint/endpoint.h"
#include "sameas/translator.h"
#include "similarity/literal_matcher.h"
#include "similarity/minhash_lsh.h"
#include "util/epoch_memo.h"
#include "util/status.h"

namespace sofya {

/// Which discovery source the finder orchestrates.
enum class CandidateSourceKind {
  kSameAs,        ///< Entity-pair overlap through sameAs (the paper).
  kLexical,       ///< MinHash/LSH label similarity.
  kDistribution,  ///< Head/tail + functionality profile similarity.
  kAuto,          ///< All of the above, noisy-or combined.
};

/// "sameas" | "lexical" | "distribution" | "auto".
StatusOr<CandidateSourceKind> ParseCandidateSourceKind(std::string_view name);
const char* CandidateSourceKindName(CandidateSourceKind kind);

/// One immutable lexical index over a predicate inventory: the LSH buckets
/// plus the per-predicate labels and signatures lookups are scored with.
struct LexicalRelationIndex {
  explicit LexicalRelationIndex(MinHashLshOptions options) : lsh(options) {}
  MinHashLsh lsh;
  std::vector<Term> relations;                   ///< id -> predicate.
  std::vector<std::string> labels;               ///< id -> RelationLabel.
  std::vector<std::vector<uint32_t>> signatures; ///< id -> MinHash.
};

/// Thread-safe memo of built lexical indexes, shared by every relation of
/// one aligner run (AlignMany's child aligners copy the owning shared_ptr
/// through AlignerOptions). Keys fold in the LSH shape and the sorted
/// inventory hash, so an index is never served for an inventory it was not
/// built from; a small capacity bounds the tail of stale inventories.
class LexicalIndexCache {
 public:
  using IndexPtr = std::shared_ptr<const LexicalRelationIndex>;

  LexicalIndexCache();

  /// Returns the cached index for `key`, building (and memoizing) it via
  /// `build` on a miss. Concurrent relations asking for the same key wait
  /// for the one build instead of duplicating it; other keys do not wait.
  IndexPtr GetOrBuild(uint64_t key, const std::function<IndexPtr()>& build);

  uint64_t builds() const { return memo_.computes(); }
  uint64_t hits() const { return memo_.hits(); }

 private:
  /// The key already names the inventory, so every entry is at version 0.
  EpochMemo<uint64_t, IndexPtr> memo_;
};

/// Candidate discovery configuration (the finder's options struct; lives
/// here so the sources and the orchestrator share one definition).
struct CandidateFinderOptions {
  /// Reference facts to probe (after shuffling the scan window).
  size_t sample_facts = 30;
  /// Size of the scanned r-fact window.
  size_t scan_limit = 300;
  /// Keep at most this many candidates (by descending score/co-occurrence).
  size_t max_candidates = 8;
  /// Require at least this many co-occurring sample pairs (sameAs source).
  size_t min_cooccurrence = 1;
  /// Sampling seed. The default is a historical constant; run-level seeding
  /// derives it from one master seed (see ApplyRunSeed in
  /// align/relation_aligner.h) so discovery follows the run's seed.
  uint64_t seed = 23;
  size_t page_size = 250;
  LiteralMatcherOptions literal_options;

  /// Which source(s) FindCandidates orchestrates.
  CandidateSourceKind source = CandidateSourceKind::kSameAs;

  /// Lexical source: LSH shape + acceptance floor for bucket mates.
  MinHashLshOptions lsh;
  double min_lexical_score = 0.15;

  /// Distribution source: facts sampled per profile, inventory cap in
  /// standalone mode, and the acceptance floor.
  size_t distribution_window = 160;
  size_t distribution_pool_limit = 256;
  double min_distribution_score = 0.35;

  /// PARIS-style prior weights: prior = 1 - prod(1 - w_s * score_s).
  double sameas_weight = 0.9;
  double lexical_weight = 0.6;
  double distribution_weight = 0.35;

  /// Shared lexical-index memo. RelationAligner installs one per aligner
  /// when unset; a null cache makes each discovery rebuild the index
  /// (correct, just wasteful).
  std::shared_ptr<LexicalIndexCache> lexical_cache;
};

/// One scored candidate as produced by a source. Scores are in [0, 1] and
/// source-specific (co-occurrence fraction, label similarity, profile
/// similarity); the finder folds them into the PARIS-style prior.
struct ScoredCandidate {
  Term relation;             ///< r' in K'.
  double score = 0.0;
  size_t cooccurrences = 0;  ///< SameAs source only; 0 elsewhere.
};

/// One discovered candidate as handed to the aligner.
struct CandidateRelation {
  Term relation;             ///< r' in K'.
  size_t cooccurrences = 0;  ///< Sampled r pairs this relation connected.
  /// PARIS-style discovery prior in [0, 1]; recorded into the verdict and
  /// surfaced by the CLI. Purely diagnostic for the evidence loop — the
  /// sampling verdicts do not depend on it.
  double prior = 0.0;
};

/// A discovery strategy. Implementations are cheap to construct (they bind
/// borrowed endpoints + options), deterministic, and issue every KB access
/// through the Endpoint interface of the instance they were given — which
/// under AlignMany is the relation-private TrackingEndpoint, keeping
/// per-relation query accounting exact.
class CandidateSource {
 public:
  virtual ~CandidateSource() = default;
  virtual const char* name() const = 0;
  /// Scored candidates for reference relation `r`, sorted by descending
  /// score (ties: ascending IRI), truncated to options.max_candidates.
  virtual StatusOr<std::vector<ScoredCandidate>> Discover(const Term& r) = 0;
};

/// The paper's sampler behind the source interface. The probe pipeline is
/// the pre-refactor CandidateFinder body moved verbatim: same queries, same
/// order, same counts — regression-tested against a frozen copy.
class SameAsOverlapSource : public CandidateSource {
 public:
  SameAsOverlapSource(Endpoint* candidate_kb, Endpoint* reference_kb,
                      const CrossKbTranslator* to_candidate,
                      const CandidateFinderOptions& options);
  const char* name() const override { return "sameas"; }
  StatusOr<std::vector<ScoredCandidate>> Discover(const Term& r) override;

 private:
  Endpoint* candidate_kb_;   // K'. Not owned.
  Endpoint* reference_kb_;   // K.  Not owned.
  const CrossKbTranslator* to_candidate_;  // Not owned.
  CandidateFinderOptions options_;
  LiteralMatcher literal_matcher_;
};

/// MinHash/LSH label similarity over the candidate endpoint's predicate
/// inventory. Needs zero sameAs links. Per discovery: one paged inventory
/// query (cheap, dedup'd by any caching layer) + one O(bucket size) LSH
/// lookup; the index build is amortized through the shared cache.
class LexicalIndexSource : public CandidateSource {
 public:
  LexicalIndexSource(Endpoint* candidate_kb,
                     const CandidateFinderOptions& options);
  const char* name() const override { return "lexical"; }
  StatusOr<std::vector<ScoredCandidate>> Discover(const Term& r) override;

  /// Cost of the most recent Discover's LSH lookup (bench introspection).
  const MinHashLsh::LookupStats& last_lookup_stats() const {
    return last_lookup_stats_;
  }
  /// Inventory size behind the most recent Discover.
  size_t last_inventory_size() const { return last_inventory_size_; }

 private:
  /// Fetches + sorts the candidate endpoint's predicate IRIs and returns
  /// the (options, inventory)-keyed index, built on cache miss.
  StatusOr<LexicalIndexCache::IndexPtr> GetIndex();

  Endpoint* candidate_kb_;  // Not owned.
  CandidateFinderOptions options_;
  std::shared_ptr<LexicalIndexCache> cache_;  ///< May be private (null opt).
  MinHashLsh::LookupStats last_lookup_stats_;
  size_t last_inventory_size_ = 0;
};

/// Head/tail + functionality profile similarity, observed purely through
/// endpoint queries (works against remote SPARQL services; synth worlds
/// carry no rdf:type triples, so the observable "type distribution" is the
/// object-kind mix + repeat-rate shape of a sampled fact window).
class DistributionSource : public CandidateSource {
 public:
  /// A relation's sampled profile.
  struct Profile {
    bool valid = false;           ///< False when the relation has no facts.
    double functionality = 0.0;   ///< distinct subjects / facts.
    double inverse_functionality = 0.0;  ///< distinct objects / facts.
    double literal_fraction = 0.0;       ///< literal objects / facts.
    double top_subject_share = 0.0;      ///< max subject multiplicity share.
  };

  DistributionSource(Endpoint* candidate_kb, Endpoint* reference_kb,
                     const CandidateFinderOptions& options);
  const char* name() const override { return "distribution"; }

  /// Standalone mode: profiles a deterministic, size-capped slice of the
  /// candidate inventory and scores it against r's profile.
  StatusOr<std::vector<ScoredCandidate>> Discover(const Term& r) override;

  /// Composite mode: scores an externally proposed pool (one batched
  /// SelectMany) instead of walking the inventory. Returns scores aligned
  /// with `pool` by index.
  StatusOr<std::vector<double>> ScorePool(const Term& r,
                                          const std::vector<Term>& pool);

  /// Profile similarity in [0, 1] (product of per-feature agreements; an
  /// entity-range vs literal-range mismatch collapses it toward 0).
  static double Similarity(const Profile& a, const Profile& b);

 private:
  StatusOr<Profile> BuildProfile(Endpoint* endpoint, const Term& relation);
  StatusOr<std::vector<Profile>> BuildProfiles(Endpoint* endpoint,
                                               const std::vector<Term>& pool);

  Endpoint* candidate_kb_;  // Not owned.
  Endpoint* reference_kb_;  // Not owned.
  CandidateFinderOptions options_;
};

/// The kAuto combiner: runs sameAs + lexical discovery, unions the pools,
/// adds the distribution score for every pool member, and ranks by the
/// noisy-or prior. Relations only one source saw still surface (their
/// other scores are 0).
class CompositeCandidateSource : public CandidateSource {
 public:
  CompositeCandidateSource(Endpoint* candidate_kb, Endpoint* reference_kb,
                           const CrossKbTranslator* to_candidate,
                           const CandidateFinderOptions& options);
  const char* name() const override { return "auto"; }
  StatusOr<std::vector<ScoredCandidate>> Discover(const Term& r) override;

 private:
  Endpoint* candidate_kb_;
  Endpoint* reference_kb_;
  const CrossKbTranslator* to_candidate_;
  CandidateFinderOptions options_;
};

}  // namespace sofya

#endif  // SOFYA_ALIGN_CANDIDATE_SOURCE_H_
