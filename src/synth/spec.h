// Specification types for synthetic two-KB worlds.
//
// The generator (synth/world_generator.h) creates one latent "world" of
// typed entities and abstract facts grouped into *concepts* (canonical
// relations), then projects that world into two KBs. Each KB relation maps
// to a *set* of concepts; the ground-truth alignment between two relations
// is decided purely by concept-set inclusion:
//
//     r1 => r2  iff  concepts(r1) ⊆ concepts(r2)
//
// This gives every statistical regime in the paper:
//  * equivalence      — both KBs expose a relation for the same concept;
//  * subsumption      — K has creatorOf = {composes, writes}; K' has
//                       composerOf = {composes}: composerOf => creatorOf
//                       but not conversely;
//  * overlap trap     — directs and produces are distinct concepts, but the
//                       *data* correlates (rho of producers also direct), so
//                       sample-based measures are fooled while ground truth
//                       says kNone;
//  * open world       — per-relation coverage < 1 drops facts independently
//                       in each KB.

#ifndef SOFYA_SYNTH_SPEC_H_
#define SOFYA_SYNTH_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rdf/namespaces.h"

namespace sofya {

/// What a literal-valued concept stores.
enum class LiteralKind {
  kName,    ///< The entity's (noised) display name.
  kYear,    ///< A deterministic year in [1900, 2020).
  kNumber,  ///< A deterministic integer.
};

/// One canonical relation in the latent world.
struct ConceptSpec {
  std::string name;        ///< Unique concept id (e.g. "directs").
  size_t num_facts = 500;  ///< Distinct world facts to generate.
  int domain_type = 0;     ///< Entity type of subjects.
  int range_type = 1;      ///< Entity type of objects (entity-entity only).
  double subject_zipf = 0.8;  ///< Skew of subject popularity.
  double object_zipf = 0.8;   ///< Skew of object popularity.
  bool functional = false;    ///< At most one object per subject.
  bool literal_range = false; ///< Object is a literal, not an entity.
  LiteralKind literal_kind = LiteralKind::kName;

  /// Data-level correlation: when generating a fact for subject x, with
  /// probability `correlation_rho` copy an object of x from the (earlier
  /// declared) concept `correlate_with` instead of sampling fresh. This is
  /// the producer-also-directs trap of Section 2.2.
  std::string correlate_with = {};
  double correlation_rho = 0.0;

  /// Rotates the Zipf subject distribution to start at this fraction of the
  /// domain. Sibling concepts with staggered regions have *thin* domain
  /// overlap: random samples rarely hit it, targeted UBS probes do — the
  /// regime behind the paper's "subsumption mistaken for equivalence".
  double subject_region_start = 0.0;

  /// With this probability a subject is drawn from the *unshifted* (shared)
  /// region instead. Gives staggered siblings a small, reliable population
  /// of subjects appearing in several siblings — the paper's "composers
  /// that are also writers".
  double subject_shared_mix = 0.0;
};

/// How incompleteness removes facts from a KB.
enum class CoverageModel {
  /// Drop whole *subjects*: a KB knows either all or none of a subject's
  /// facts for a relation. This matches the partial-completeness assumption
  /// (PCA) the paper's measures are built on, and the real-world phenomenon
  /// (an infobox either lists someone's children or doesn't).
  kPerSubject,
  /// Drop facts independently — violates the PCA premise; exposed as an
  /// ablation knob (bench E5) to show how UBS degrades when the assumption
  /// breaks.
  kPerFact,
};

/// One relation exposed by a KB.
struct KbRelationSpec {
  std::string local_name;  ///< IRI suffix under the KB's ontology namespace.
  /// Concepts whose facts this relation unions. Ground-truth alignment is
  /// concept-set inclusion.
  std::vector<std::string> concepts;
  /// Fraction of the concepts' world facts this KB actually stores — the
  /// open-world incompleteness knob (see `coverage_model`).
  double coverage = 0.9;
  CoverageModel coverage_model = CoverageModel::kPerSubject;

  /// Probability that a stored fact's object is *wrong* in this KB
  /// (replaced by a random same-type entity / another subject's literal).
  /// Models inter-KB disagreement — the noise that keeps even true rules
  /// from scoring a clean 1.0 on small samples.
  double fact_noise = 0.0;
};

/// Surface noise applied to string literals when a KB stores them.
struct LiteralNoiseOptions {
  double typo_rate = 0.0;        ///< Per-literal chance of one edit.
  double case_change_rate = 0.0; ///< Lower-cases the whole literal.
  double token_swap_rate = 0.0;  ///< Swaps the first two tokens.
  double abbreviate_rate = 0.0;  ///< First token -> initial ("J. Smith").
  double drop_token_rate = 0.0;  ///< Deletes the last token (if >= 2).
};

/// Full description of a two-KB world.
struct WorldSpec {
  uint64_t seed = 1234;

  size_t num_entities = 5000;
  size_t num_types = 8;

  /// Latent concepts, in declaration order (correlations may only point to
  /// earlier concepts).
  std::vector<ConceptSpec> concepts;

  std::string kb1_name = "kb1";
  std::string kb2_name = "kb2";
  std::string kb1_base = std::string(ns::kKb1);
  std::string kb2_base = std::string(ns::kKb2);

  std::vector<KbRelationSpec> kb1_relations;
  std::vector<KbRelationSpec> kb2_relations;

  /// Fraction of shared entities that get a (correct) sameAs link.
  double link_coverage = 0.9;
  /// Fraction of emitted links that are *wrong* (point to a random entity).
  double link_noise = 0.0;

  /// Mint entity IRIs with the *same* surface convention in both KBs
  /// (kb1's underscored names). Combined with identical kb1_base/kb2_base
  /// and link_coverage = 0 this models the shared-identifier regime —
  /// canonical IRIs, zero sameAs links — where alignment must come from a
  /// non-sameAs candidate source. Relations keep their per-KB local names.
  bool shared_entity_names = false;

  LiteralNoiseOptions kb1_literal_noise;
  LiteralNoiseOptions kb2_literal_noise;

  /// Also materialize the inverse of every entity-entity relation
  /// ("<name>Inv", subject/object swapped). The paper assumes "the inverse
  /// relations have been added to the two KBs", which is why it only mines
  /// direct rules; this flag reproduces that preprocessing.
  bool add_inverse_relations = false;
};

}  // namespace sofya

#endif  // SOFYA_SYNTH_SPEC_H_
