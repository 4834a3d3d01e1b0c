// EvidenceSet: the per-pair observations that feed Eqs. 1 and 2.
//
// For a candidate rule r'(x,y) => r(x,y), each sampled r'-fact — after
// translating (x,y) into the reference KB K via sameAs — contributes one
// PairEvidence:
//   * confirmed : r(x,y) ∈ K                       (numerator of both)
//   * x_has_r   : ∃y'. r(x,y') ∈ K                 (PCA denominator gate)
//
// The closed-world measure (Eq. 1) counts every sampled pair in the
// denominator; the partial-completeness measure (Eq. 2, AMIE) only counts
// pairs whose subject has at least one r-fact — "a KB knows either all or
// none of the r-attributes of some x".
//
// A pair is held as two TermIds, the image ids the samplers carry
// (CrossKbTranslator::ImageOf): an image id names one term, so dedup by ids
// is dedup by terms. An image K's dictionary lacks has an image id like any
// other, so it counts as a pair of its own; it can never be confirmed.

#ifndef SOFYA_MINING_EVIDENCE_H_
#define SOFYA_MINING_EVIDENCE_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "rdf/term.h"

namespace sofya {

/// One observed pair for a candidate rule (already in K's term space).
struct PairEvidence {
  TermId x = kNullTermId;  ///< Image id of the subject (translated into K).
  TermId y = kNullTermId;  ///< Image id of the object (or of the literal).
  bool confirmed = false;  ///< r(x,y) holds in K.
  bool x_has_r = false;    ///< x has at least one r-fact in K.
};

/// Deduplicating accumulator of PairEvidence for one rule.
///
/// Pairs are identified by (x, y); re-adding an already-seen pair is a
/// no-op (first observation wins), so oversampling cannot inflate counts.
class EvidenceSet {
 public:
  EvidenceSet() = default;

  /// Adds one observation. Returns false iff (x, y) was already present.
  bool Add(const PairEvidence& evidence);

  /// #(x,y) pairs observed (CWA denominator).
  size_t total_pairs() const { return evidence_.size(); }

  /// #(x,y) with r(x,y) confirmed (numerator of both measures).
  size_t support() const { return support_; }

  /// #(x,y) whose subject has some r-fact (PCA denominator).
  size_t pca_body_size() const { return pca_body_; }

  bool empty() const { return evidence_.empty(); }

  /// All observations, in insertion order.
  const std::vector<PairEvidence>& observations() const { return evidence_; }

 private:
  std::vector<PairEvidence> evidence_;
  std::unordered_set<uint64_t> seen_;  ///< (x << 32) | y.
  size_t support_ = 0;
  size_t pca_body_ = 0;
};

}  // namespace sofya

#endif  // SOFYA_MINING_EVIDENCE_H_
