// CrossKbTranslator: direction-fixed entity translation through sameAs.
//
// A translator is bound to the link set E, a source endpoint and a target
// endpoint. An IRI's image is its sameAs equivalent under the target's base
// IRI (SameAsIndex::TranslateTo); a literal's image is the literal itself
// (literals are matched by similarity, not identity — see
// similarity/literal_matcher.h). Translate is that map on terms; the
// samplers use the id forms, which take ids from result rows:
//
//   * ImageOf(s)    the kind of source id s and an image id for its image:
//                   a translator-local id, equal for two ids exactly when
//                   their images are one term. It asks the target nothing,
//                   so an image the target dictionary lacks still has an
//                   identity: evidence dedup and the CWA denominator count
//                   it, and it never confirms.
//   * TargetImageOf(t)  the image id of target id t, so a target result row
//                   is compared with an image by integer equality.
//   * TranslateId(s)    the target's id for the image of s, for binding
//                   into a probe query: Translate, then the target's
//                   LookupTerm. A target's LookupTerm may intern (an HTTP
//                   client) or replay a recorded judgment (a cassette), so
//                   callers ask it for exactly the images the term path
//                   looked up, and no others.
//
// What is memoized, and for how long:
//   * a term's kind, its image id, "no image" and "image is target id t"
//     hold for the translator's lifetime (dictionary ids never change or
//     disappear);
//   * "the target dictionary lacks the image" is not kept: it holds only
//     until the target's next write, so TranslateId asks the target again
//     each time, as the term path did;
//   * everything derived from the links is keyed on
//     SameAsIndex::generation(), so an AddLink after the first lookup is
//     never served from the older link set.
//
// Thread safety: every method is safe from any number of threads (a memo
// hit is a read of an atomic word, no lock), under the same contract as
// SameAsIndex — no AddLink while translations run — and no write to the
// target KB during the calls, as for its queries.

#ifndef SOFYA_SAMEAS_TRANSLATOR_H_
#define SOFYA_SAMEAS_TRANSLATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "endpoint/endpoint.h"
#include "rdf/term.h"
#include "sameas/sameas_index.h"
#include "util/status.h"

namespace sofya {

/// One source id as a translator sees it.
struct IdImage {
  bool literal = false;  ///< The source term is a literal.
  /// The image id of the term's image (see ImageOf); kNullTermId when the
  /// term has no image.
  TermId image = kNullTermId;

  bool has_image() const { return image != kNullTermId; }
};

/// Translates source-endpoint terms into a fixed target endpoint.
class CrossKbTranslator {
 public:
  /// Nothing is owned; all three must outlive the translator. The target
  /// namespace is `target`'s base IRI.
  CrossKbTranslator(const SameAsIndex* links, const Endpoint* source,
                    const Endpoint* target);
  ~CrossKbTranslator();

  CrossKbTranslator(const CrossKbTranslator&) = delete;
  CrossKbTranslator& operator=(const CrossKbTranslator&) = delete;

  const std::string& target_prefix() const { return target_->base_iri(); }

  /// IRIs translate through sameAs; literals are returned unchanged.
  StatusOr<Term> Translate(const Term& t) const;

  /// Whether source id `id` names a literal.
  StatusOr<bool> IsLiteral(TermId id) const;

  /// The kind of source id `id` and the image id of its image. Asks the
  /// target nothing.
  StatusOr<IdImage> ImageOf(TermId id) const;

  /// The image id of the term target id `id` names: equal to
  /// ImageOf(s).image exactly when that term is the image of s.
  StatusOr<TermId> TargetImageOf(TermId id) const;

  /// The target's id for the image of source id `id` (Translate, then the
  /// target's LookupTerm); kNullTermId when the term has no image or the
  /// target lacks it.
  StatusOr<TermId> TranslateId(TermId id) const;

 private:
  struct Memo;
  template <typename Word>
  class IdArray;

  /// The memo of the link set's current generation.
  Memo& CurrentMemo() const;

  /// The image id of `term` (a new one for a term not seen before).
  TermId ImageIdOf(const Term& term) const;

  const SameAsIndex* links_;  // Not owned.
  const Endpoint* source_;    // Not owned.
  const Endpoint* target_;    // Not owned.

  // One memo per link-set generation; older ones stay alive (readers may
  // still hold them) until the translator is destroyed.
  mutable std::atomic<Memo*> memo_{nullptr};
  mutable std::mutex memos_mu_;
  mutable std::vector<std::unique_ptr<Memo>> memos_;

  // Image ids: by term (the miss path), and by target id (links play no
  // part, so these live as long as the translator).
  mutable std::mutex image_ids_mu_;
  mutable std::unordered_map<Term, TermId, TermHash> image_ids_;
  std::unique_ptr<IdArray<uint32_t>> target_images_;
};

}  // namespace sofya

#endif  // SOFYA_SAMEAS_TRANSLATOR_H_
