// UnbiasedSampler — "Unbiased Sample Extraction" (UBS, paper Section 2.2).
//
// Random samples systematically miss the counter-examples that expose two
// failure modes of PCA confidence:
//
//   * a subsumption mistaken for an equivalence (composerOf => creatorOf is
//     right, but creatorOf => composerOf needs composers who also wrote);
//   * an overlap mistaken for a subsumption (hasProducer "=>" directedBy
//     only because producers often direct).
//
// UBS deliberately samples where candidates *disagree*: for a pair of
// candidate relations r', r'' (both subsumed by the reference r on simple
// samples), it asks the candidate KB for subjects x with
//
//       r'(x,y1) ∧ r''(x,y2) ∧ ¬r'(x,y2)
//
// and checks the reference KB:
//   case 1:  r(x,y1) ∧ r(x,y2)   => equivalence counter-example for r'
//            (r reaches y2, r' provably does not);
//   case 2:  r(x,y1) ∧ ¬r(x,y2)  => subsumption counter-example for r''
//            (K knows x's r-attributes yet y2 is absent — a true PCA
//            counter-example random sampling missed).
//
// "To eliminate a wrong relation we need only one case which shows that
// there is a contradiction" (Section 3) — the threshold is configurable.
//
// Rows, translations and object lists stay ids end to end (see
// sameas/translator.h); a term is decoded only to match a literal.

#ifndef SOFYA_SAMPLING_UNBIASED_SAMPLER_H_
#define SOFYA_SAMPLING_UNBIASED_SAMPLER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "endpoint/endpoint.h"
#include "sameas/translator.h"
#include "sampling/sampler_options.h"
#include "similarity/literal_matcher.h"
#include "util/status.h"

namespace sofya {

/// Counter-example tallies from one UBS probe run.
struct UbsReport {
  /// Case-2 contradictions per candidate: evidence that the candidate is
  /// NOT subsumed by the reference relation.
  std::map<Term, size_t> subsumption_counterexamples;

  /// Case-1 contradictions per candidate: evidence that the reference is
  /// NOT subsumed by the candidate (kills equivalence, keeps subsumption).
  std::map<Term, size_t> equivalence_counterexamples;

  size_t pairs_probed = 0;   ///< Ordered candidate pairs examined.
  size_t rows_examined = 0;  ///< Disagreeing-object rows processed.

  /// Convenience: contradictions recorded against r' => r.
  size_t SubsumptionHits(const Term& candidate) const {
    auto it = subsumption_counterexamples.find(candidate);
    return it == subsumption_counterexamples.end() ? 0 : it->second;
  }
  /// Convenience: contradictions recorded against r => r'.
  size_t EquivalenceHits(const Term& candidate) const {
    auto it = equivalence_counterexamples.find(candidate);
    return it == equivalence_counterexamples.end() ? 0 : it->second;
  }
};

/// The UBS probe engine.
class UnbiasedSampler {
 public:
  /// Endpoints/translators not owned; must outlive the sampler.
  /// `to_reference` maps K' terms into K; `to_candidate` the converse
  /// (needed by the mirrored reference-side probe).
  UnbiasedSampler(Endpoint* candidate_kb, Endpoint* reference_kb,
                  const CrossKbTranslator* to_reference,
                  const CrossKbTranslator* to_candidate,
                  SamplerOptions options = {}, UbsOptions ubs_options = {});

  /// Probes every ordered pair of `candidates` against reference relation
  /// `r` and tallies counter-examples. Candidates should be the relations
  /// that survived the simple-sample confidence threshold.
  StatusOr<UbsReport> Probe(const Term& r, const std::vector<Term>& candidates);

  /// Mirrored probe for one candidate: contrasts the head `r` against its
  /// sibling relations in the *reference* KB (relations co-occurring with
  /// the candidate's instances). A row r(x,y1) ∧ r_k(x,y2) ∧ ¬r(x,y2) in K
  /// whose (x,y2) translates into a candidate fact r'(x,y2) is a PCA
  /// counter-example against r' => r; a row whose (x,y1) is missing from a
  /// non-empty r'(x,·) is a counter-example against r => r' (equivalence).
  Status ProbeReferenceSiblings(const Term& r, const Term& candidate,
                                const std::vector<Term>& reference_siblings,
                                UbsReport* report);

  const UbsOptions& ubs_options() const { return ubs_options_; }

 private:
  /// Objects of `relation` for `subject` on `endpoint`, memoized. A null
  /// subject (an image the endpoint lacks) has none, and costs no query.
  StatusOr<std::vector<TermId>> ObjectsOf(Endpoint* endpoint, TermId subject,
                                          TermId relation);

  /// Warms the ObjectsOf memo for every (subject, relation) pair in one
  /// batched round trip (first pages via SelectMany, stragglers paged).
  /// Already-memoized and duplicate pairs are skipped. With `row_subjects`
  /// the subjects are ids from result rows, and each one not memoized yet
  /// is also looked up on the endpoint: the term path asked for it there,
  /// and a recorded session (cassette) holds that judgment.
  Status PrefetchObjects(
      Endpoint* endpoint,
      const std::vector<std::pair<TermId, TermId>>& subject_relation_pairs,
      bool row_subjects);

  /// One dictionary-encoded existence probe 〈s, p, o〉.
  struct TriProbe {
    TermId s, p, o;
  };

  /// Warms the existence memo for a batch of exact-triple probes via one
  /// Endpoint::AskMany round trip. An ASK ships zero rows, so for
  /// IRI-object checks this replaces fetching a subject's whole (paged)
  /// object list. Memoized/duplicate probes are skipped.
  Status PrefetchExistence(Endpoint* endpoint,
                           const std::vector<TriProbe>& probes);

  /// Memoized 〈s, p, o〉 existence on `endpoint` (single ASK on miss).
  StatusOr<bool> TripleExists(Endpoint* endpoint, TriProbe probe);

  /// A value looked for in an object list: a literal by its text (matched
  /// with literal tolerance), anything else by its image id.
  struct ObjectValue {
    TermId image = kNullTermId;
    std::optional<Term> literal;
  };

  /// The value of source id `id` on `translator`'s target: a literal as
  /// itself (decoded from `source`), an IRI as its image. Empty when an IRI
  /// has no image.
  StatusOr<std::optional<ObjectValue>> ImageValue(
      const CrossKbTranslator* translator, Endpoint* source, TermId id) const;

  /// Whether `objects`, ids of `endpoint`, hold a literal matching
  /// `literal` (literal tolerance).
  StatusOr<bool> ContainsLiteral(Endpoint* endpoint,
                                 const std::vector<TermId>& objects,
                                 const Term& literal) const;

  /// Whether `objects` hold `value`; they are ids of `endpoint`, which is
  /// `translator`'s target.
  StatusOr<bool> Contains(const CrossKbTranslator* translator,
                          Endpoint* endpoint,
                          const std::vector<TermId>& objects,
                          const ObjectValue& value) const;

  /// Contradiction count past which further probing cannot change the
  /// aligner's verdict (see UbsOptions::contradiction_support_ratio).
  size_t SettleBound() const;

  /// Disagreement rows for (p1, p2) from two OFFSET-spread windows.
  StatusOr<ResultSet> FetchDisagreeingRows(Endpoint* endpoint, TermId p1,
                                           TermId p2);

  Endpoint* candidate_kb_;   // K'. Not owned.
  Endpoint* reference_kb_;   // K.  Not owned.
  const CrossKbTranslator* to_reference_;  // Not owned.
  const CrossKbTranslator* to_candidate_;  // Not owned.
  SamplerOptions options_;
  UbsOptions ubs_options_;
  LiteralMatcher literal_matcher_;

  struct CacheKey {
    const Endpoint* endpoint;
    TermId subject;
    TermId relation;
    bool operator==(const CacheKey& other) const {
      return endpoint == other.endpoint && subject == other.subject &&
             relation == other.relation;
    }
  };
  struct CacheKeyHash {
    size_t operator()(const CacheKey& key) const;
  };
  std::unordered_map<CacheKey, std::vector<TermId>, CacheKeyHash>
      object_cache_;

  struct AskKey {
    const Endpoint* endpoint;
    TermId s, p, o;
    bool operator==(const AskKey& other) const {
      return endpoint == other.endpoint && s == other.s && p == other.p &&
             o == other.o;
    }
  };
  struct AskKeyHash {
    size_t operator()(const AskKey& key) const;
  };
  std::unordered_map<AskKey, bool, AskKeyHash> ask_cache_;
};

}  // namespace sofya

#endif  // SOFYA_SAMPLING_UNBIASED_SAMPLER_H_
