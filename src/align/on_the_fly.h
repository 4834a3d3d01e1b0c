// OnTheFlyAligner: query-time alignment facade with memoization, plus
// cross-KB query rewriting.
//
// This is the deployment story of the paper's introduction: a query arrives
// mentioning relations of the reference KB; equivalent/subsumed relations
// in another endpoint are discovered *during query execution* (first use
// pays the few-queries alignment cost, later uses hit the cache), and the
// query is rewritten to run against the other dataset.

#ifndef SOFYA_ALIGN_ON_THE_FLY_H_
#define SOFYA_ALIGN_ON_THE_FLY_H_

#include <span>
#include <unordered_map>
#include <vector>

#include "align/relation_aligner.h"
#include "sparql/query.h"

namespace sofya {

/// Memoizing wrapper around RelationAligner + a query rewriter.
class OnTheFlyAligner {
 public:
  /// Same ownership rules as RelationAligner (nothing owned).
  OnTheFlyAligner(Endpoint* candidate_kb, Endpoint* reference_kb,
                  const SameAsIndex* links, AlignerOptions options = {});

  /// Aligns `r`, reusing a cached result when available. The pointer stays
  /// valid until ClearCache() or destruction.
  StatusOr<const AlignmentResult*> AlignCached(const Term& r);

  /// Aligns many relations at once: cached results are reused, the
  /// remaining (distinct) relations fan out across `num_threads` workers
  /// via RelationAligner::AlignMany, and everything lands in the memo
  /// cache. Returned pointers are in input order
  /// (duplicates map to the same entry) and stay valid until ClearCache()
  /// or destruction.
  ///
  /// The memo itself is touched only before and after the parallel region,
  /// so this method is safe without making the cache concurrent — but like
  /// every other OnTheFlyAligner method it must not be called from multiple
  /// threads at once.
  StatusOr<std::vector<const AlignmentResult*>> AlignManyCached(
      std::span<const Term> relations, size_t num_threads);

  /// The best candidate relation for `r`: an accepted equivalence if any
  /// (highest confidence), else the highest-confidence accepted
  /// subsumption; NotFound when nothing was accepted.
  StatusOr<Term> BestCandidateFor(const Term& r);

  /// Rewrites a query formulated against the reference KB into the
  /// candidate KB: constant predicates are replaced by their best aligned
  /// candidate relation, constant entities are translated through sameAs,
  /// literals pass through. Fails with NotFound when some predicate has no
  /// accepted alignment.
  StatusOr<SelectQuery> RewriteQuery(const SelectQuery& reference_query);

  size_t cache_size() const { return cache_.size(); }
  void ClearCache() { cache_.clear(); }

  /// Total alignments performed (cache misses).
  size_t alignments_performed() const { return alignments_performed_; }

 private:
  Endpoint* candidate_kb_;  // Not owned.
  Endpoint* reference_kb_;  // Not owned.
  RelationAligner aligner_;
  std::unordered_map<Term, AlignmentResult, TermHash> cache_;
  size_t alignments_performed_ = 0;
};

}  // namespace sofya

#endif  // SOFYA_ALIGN_ON_THE_FLY_H_
