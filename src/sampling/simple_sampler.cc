#include "sampling/simple_sampler.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/string_util.h"

namespace sofya {

namespace {

/// Seed derivation: distinct relations shuffle differently under one base
/// seed, deterministically.
uint64_t SeedFor(uint64_t base_seed, const Term& relation) {
  const std::string& key = relation.lexical();
  return base_seed ^ Fnv1a(key.data(), key.size());
}

}  // namespace

SimpleSampler::SimpleSampler(Endpoint* candidate_kb, Endpoint* reference_kb,
                             const CrossKbTranslator* to_reference,
                             SamplerOptions options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      to_reference_(to_reference),
      options_(options),
      literal_matcher_(options.literal_options) {}

StatusOr<RelationKind> SimpleSampler::ProbeKind(const Term& relation,
                                                size_t probe_facts) {
  const TermId rel_id = candidate_kb_->LookupTerm(relation);
  if (rel_id == kNullTermId) return RelationKind::kEmpty;
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet rows,
      candidate_kb_->Select(queries::FactsOfPredicate(rel_id, probe_facts)));
  if (rows.rows.empty()) return RelationKind::kEmpty;
  size_t literals = 0;
  for (const auto& row : rows.rows) {
    SOFYA_ASSIGN_OR_RETURN(bool literal, to_reference_->IsLiteral(row[1]));
    if (literal) ++literals;
  }
  // Majority vote: mixed-object relations (rare, dirty data) take the
  // dominant kind.
  return literals * 2 >= rows.rows.size() ? RelationKind::kEntityLiteral
                                          : RelationKind::kEntityEntity;
}

StatusOr<SimpleSample> SimpleSampler::DrawSample(const Term& r_sub) {
  SimpleSample sample;
  const TermId rel_id = candidate_kb_->LookupTerm(r_sub);
  if (rel_id == kNullTermId) return sample;  // Unknown relation: empty.

  SOFYA_ASSIGN_OR_RETURN(RelationKind kind, ProbeKind(r_sub));
  sample.kind = kind;
  if (kind == RelationKind::kEmpty) return sample;
  const bool literal_relation = kind == RelationKind::kEntityLiteral;

  // Step 1: scan window of r_sub facts.
  PagedSelectOptions page_options;
  page_options.page_size = options_.page_size;
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet window,
      PagedSelect(candidate_kb_,
                  queries::FactsOfPredicate(rel_id, options_.scan_limit),
                  page_options));
  sample.facts_scanned = window.rows.size();

  // Distinct subjects in first-seen order, then shuffled (pseudo-random).
  std::vector<TermId> subject_ids;
  std::unordered_set<TermId> seen_subjects;
  for (const auto& row : window.rows) {
    if (seen_subjects.insert(row[0]).second) subject_ids.push_back(row[0]);
  }
  Rng rng(SeedFor(options_.seed, r_sub));
  Shuffle(rng, subject_ids);

  // Steps 2-3: qualify subjects and translate their facts. Link
  // qualification is client-side, so each wave of linkable subjects is
  // known before the endpoint is touched: their per-subject fact fetches go
  // out as one SelectMany batch (cache-aware, dedup-able) instead of one
  // query each. Waves repeat only when subjects turn out to have no
  // linkable object, so the issued queries match the sequential schedule.
  size_t next = 0;
  while (sample.subjects.size() < options_.sample_size &&
         next < subject_ids.size()) {
    struct Pending {
      TermId x1;  // Subject in K'.
      TermId x2;  // Image id of its sameAs image in K.
    };
    std::vector<Pending> wave;
    std::vector<SelectQuery> fact_queries;
    const size_t need = options_.sample_size - sample.subjects.size();
    while (wave.size() < need && next < subject_ids.size()) {
      const TermId subject_id = subject_ids[next++];
      SOFYA_ASSIGN_OR_RETURN(IdImage x2, to_reference_->ImageOf(subject_id));
      if (!x2.has_image()) {
        ++sample.subjects_skipped;  // Subject itself has no link.
        continue;
      }
      // Fetch all r_sub facts of this subject (bounded).
      SelectQuery q = queries::ObjectsOf(subject_id, rel_id);
      q.Limit(options_.facts_per_subject_cap);
      wave.push_back(Pending{subject_id, x2.image});
      fact_queries.push_back(std::move(q));
    }
    if (wave.empty()) break;

    SOFYA_ASSIGN_OR_RETURN(std::vector<ResultSet> fact_results,
                           candidate_kb_->SelectMany(fact_queries).IntoValues());
    for (size_t i = 0; i < wave.size(); ++i) {
      SampledSubject entry;
      entry.subject_candidate = wave[i].x1;
      entry.subject_reference = wave[i].x2;
      for (const auto& row : fact_results[i].rows) {
        const TermId y1 = row[0];
        SOFYA_ASSIGN_OR_RETURN(IdImage y2, to_reference_->ImageOf(y1));
        // Literal relations skip minority-kind objects; an unlinked object
        // is ignored, not penalized.
        if (literal_relation ? !y2.literal : !y2.has_image()) continue;
        entry.objects.emplace_back(y1, y2.image);
      }

      if (entry.objects.empty()) {
        ++sample.subjects_skipped;  // No linkable fact for this subject.
        continue;
      }
      sample.subjects.push_back(std::move(entry));
    }
  }
  return sample;
}

StatusOr<EvidenceSet> SimpleSampler::ScoreAgainst(const SimpleSample& sample,
                                                  const Term& r) {
  EvidenceSet evidence;
  if (sample.kind == RelationKind::kEmpty) return evidence;
  const bool literal_relation = sample.kind == RelationKind::kEntityLiteral;

  const TermId r_id = reference_kb_->LookupTerm(r);

  // One reference query per subject: all r-objects of x2. This is both the
  // confirmation probe and the PCA-denominator probe, and it honors the
  // paper's note that once a subject matches, all of its r facts are
  // needed. The sample is fully drawn at this point, so every probe is
  // known up front — batch them (paged, not truncated: required by the PCA
  // measure and the paper's K^S construction).
  std::vector<std::vector<TermId>> r_objects_by_subject(
      sample.subjects.size());
  if (r_id != kNullTermId) {
    std::vector<SelectQuery> probes;
    std::vector<size_t> probe_subject;
    for (size_t i = 0; i < sample.subjects.size(); ++i) {
      SOFYA_ASSIGN_OR_RETURN(
          TermId x2_id,
          to_reference_->TranslateId(sample.subjects[i].subject_candidate));
      if (x2_id == kNullTermId) continue;
      probes.push_back(queries::ObjectsOf(x2_id, r_id));
      probe_subject.push_back(i);
    }
    PagedSelectOptions paging;
    paging.page_size = options_.facts_per_subject_cap;
    SOFYA_ASSIGN_OR_RETURN(
        std::vector<ResultSet> probe_results,
        BatchedPagedSelect(reference_kb_, probes, paging).IntoValues());
    for (size_t m = 0; m < probe_results.size(); ++m) {
      std::vector<TermId>& objects = r_objects_by_subject[probe_subject[m]];
      objects.reserve(probe_results[m].rows.size());
      for (const auto& row : probe_results[m].rows) objects.push_back(row[0]);
    }
  }

  std::vector<TermId> r_images;  // An entity relation's r-objects.
  std::vector<Term> r_literals;  // A literal relation's, decoded.
  for (size_t si = 0; si < sample.subjects.size(); ++si) {
    const SampledSubject& subject = sample.subjects[si];
    const std::vector<TermId>& r_objects = r_objects_by_subject[si];
    const bool x_has_r = !r_objects.empty();
    r_images.clear();
    r_literals.clear();
    for (TermId o : r_objects) {
      if (literal_relation) {
        SOFYA_ASSIGN_OR_RETURN(Term term, reference_kb_->DecodeTerm(o));
        r_literals.push_back(std::move(term));
      } else {
        SOFYA_ASSIGN_OR_RETURN(TermId image, to_reference_->TargetImageOf(o));
        r_images.push_back(image);
      }
    }

    for (const auto& [y1, y2] : subject.objects) {
      PairEvidence pair;
      pair.x = subject.subject_reference;
      pair.y = y2;
      pair.x_has_r = x_has_r;
      if (literal_relation) {
        SOFYA_ASSIGN_OR_RETURN(Term literal, candidate_kb_->DecodeTerm(y1));
        pair.confirmed = std::any_of(
            r_literals.begin(), r_literals.end(), [&](const Term& o) {
              return literal_matcher_.Matches(literal, o);
            });
      } else {
        pair.confirmed = std::find(r_images.begin(), r_images.end(), y2) !=
                         r_images.end();
      }
      evidence.Add(pair);
    }
  }
  return evidence;
}

StatusOr<EvidenceSet> SimpleSampler::CollectEvidence(const Term& r_sub,
                                                     const Term& r) {
  SOFYA_ASSIGN_OR_RETURN(SimpleSample sample, DrawSample(r_sub));
  return ScoreAgainst(sample, r);
}

}  // namespace sofya
