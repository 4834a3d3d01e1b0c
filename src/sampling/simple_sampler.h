// SimpleSampler — "Simple Sample Extraction" (paper Section 2.2).
//
// For a candidate rule r_sub(x,y) => r(x,y), with r_sub in the candidate KB
// K' and r in the reference KB K:
//
//   1. Scan a window of r_sub facts in K', shuffle it (pseudo-random
//      selection), and pick up to `sample_size` subjects x1 that have a
//      sameAs link into K and at least one linkable object (S^r_sub).
//   2. Fetch each sampled subject's r_sub facts (K'^S); facts whose object
//      lacks a link are ignored — "we do not want to punish the score ...
//      because of incomplete information".
//   3. Translate the pairs through sameAs into K (P^S).
//   4. For each translated subject x2, fetch its r-objects from K once;
//      mark each pair confirmed iff r(x2,y2) ∈ K, and record whether x2 has
//      any r-fact at all (the PCA denominator; when a subject matches, ALL
//      of its r facts are on hand, as the paper requires).
//
// Entity-literal relations (detected from the sampled objects) skip object
// translation and match literals with the configured LiteralMatcher.
//
// The sample is carried as ids: row ids of K' go through the translator
// to image ids (CrossKbTranslator::ImageOf), the step-4 probes bind the
// target ids of the sampled subjects, and a pair is confirmed by comparing
// image ids with those of the probes' result rows. A term is decoded only
// where its text is needed: a literal object, matched by similarity. A
// subject or object whose image K's dictionary lacks keeps its image id:
// no probe is issued for it and it never confirms, but it still counts as
// a pair.

#ifndef SOFYA_SAMPLING_SIMPLE_SAMPLER_H_
#define SOFYA_SAMPLING_SIMPLE_SAMPLER_H_

#include <string>
#include <utility>
#include <vector>

#include "endpoint/endpoint.h"
#include "mining/evidence.h"
#include "sameas/translator.h"
#include "sampling/sampler_options.h"
#include "util/status.h"

namespace sofya {

/// Kind of a relation as probed from data.
enum class RelationKind {
  kEntityEntity,
  kEntityLiteral,
  kEmpty,  ///< No facts observed.
};

/// A sampled r_sub fact group for one subject: ids of K' and the image ids
/// of their images in K (for a literal, the literal itself).
struct SampledSubject {
  TermId subject_candidate = kNullTermId;  ///< x1, an id of K'.
  TermId subject_reference = kNullTermId;  ///< x2, the image id of x1.
  /// (y1, image id of y1) object pairs.
  std::vector<std::pair<TermId, TermId>> objects;
};

/// The sample S plus its translation — returned for inspection/tests.
struct SimpleSample {
  RelationKind kind = RelationKind::kEmpty;
  std::vector<SampledSubject> subjects;
  size_t facts_scanned = 0;   ///< Window size actually retrieved.
  size_t subjects_skipped = 0;  ///< Subjects dropped for missing links.
};

/// Simple Sample Extraction over two endpoints.
class SimpleSampler {
 public:
  /// Neither endpoint nor translator is owned; both must outlive the
  /// sampler. `to_reference` must translate from `candidate_kb`'s ids (or
  /// an endpoint sharing them) into `reference_kb`'s.
  SimpleSampler(Endpoint* candidate_kb, Endpoint* reference_kb,
                const CrossKbTranslator* to_reference,
                SamplerOptions options = {});

  /// Steps 1–3: draw the sample for r_sub (no reference-KB queries yet).
  StatusOr<SimpleSample> DrawSample(const Term& r_sub);

  /// Step 4: score a drawn sample against reference relation r.
  StatusOr<EvidenceSet> ScoreAgainst(const SimpleSample& sample,
                                     const Term& r);

  /// Convenience: DrawSample + ScoreAgainst.
  StatusOr<EvidenceSet> CollectEvidence(const Term& r_sub, const Term& r);

  /// Probes the relation kind of `relation` in the candidate KB from up to
  /// `probe_facts` facts.
  StatusOr<RelationKind> ProbeKind(const Term& relation,
                                   size_t probe_facts = 20);

 private:
  Endpoint* candidate_kb_;   // K'. Not owned.
  Endpoint* reference_kb_;   // K.  Not owned.
  const CrossKbTranslator* to_reference_;  // Not owned.
  SamplerOptions options_;
  LiteralMatcher literal_matcher_;
};

}  // namespace sofya

#endif  // SOFYA_SAMPLING_SIMPLE_SAMPLER_H_
