#include "sampling/unbiased_sampler.h"

#include <algorithm>
#include <unordered_set>

#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "util/hash.h"

namespace sofya {

size_t UnbiasedSampler::CacheKeyHash::operator()(const CacheKey& key) const {
  size_t seed = std::hash<const void*>{}(key.endpoint);
  HashCombine(seed, std::hash<TermId>{}(key.subject));
  HashCombine(seed, std::hash<TermId>{}(key.relation));
  return seed;
}

size_t UnbiasedSampler::AskKeyHash::operator()(const AskKey& key) const {
  size_t seed = std::hash<const void*>{}(key.endpoint);
  HashCombine(seed, std::hash<TermId>{}(key.s));
  HashCombine(seed, std::hash<TermId>{}(key.p));
  HashCombine(seed, std::hash<TermId>{}(key.o));
  return seed;
}

namespace {

/// ASK 〈s, p, o〉 as the supported query subset: the ObjectsOf shape with
/// the object pinned by a FILTER. The engine's ASK path still terminates at
/// the first (only possible) solution.
SelectQuery ExistenceProbe(TermId s, TermId p, TermId o) {
  SelectQuery probe = queries::ObjectsOf(s, p);
  probe.Filter(FilterExpr::VarEqTerm(0, o));
  return probe;
}

}  // namespace

UnbiasedSampler::UnbiasedSampler(Endpoint* candidate_kb,
                                 Endpoint* reference_kb,
                                 const CrossKbTranslator* to_reference,
                                 const CrossKbTranslator* to_candidate,
                                 SamplerOptions options,
                                 UbsOptions ubs_options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      to_reference_(to_reference),
      to_candidate_(to_candidate),
      options_(options),
      ubs_options_(ubs_options),
      literal_matcher_(options.literal_options) {}

StatusOr<std::vector<TermId>> UnbiasedSampler::ObjectsOf(Endpoint* endpoint,
                                                         TermId subject,
                                                         TermId relation) {
  CacheKey key{endpoint, subject, relation};
  auto it = object_cache_.find(key);
  if (it != object_cache_.end()) return it->second;

  std::vector<TermId> objects;
  if (subject != kNullTermId && relation != kNullTermId) {
    // Completeness matters: a truncated object list turns "r has y" into a
    // phantom counter-example. Page through everything the subject has.
    PagedSelectOptions paging;
    paging.page_size = options_.facts_per_subject_cap;
    SOFYA_ASSIGN_OR_RETURN(
        ResultSet rows,
        PagedSelect(endpoint, queries::ObjectsOf(subject, relation), paging));
    objects.reserve(rows.rows.size());
    for (const auto& row : rows.rows) objects.push_back(row[0]);
  }
  object_cache_.emplace(key, objects);
  return objects;
}

Status UnbiasedSampler::PrefetchObjects(
    Endpoint* endpoint,
    const std::vector<std::pair<TermId, TermId>>& subject_relation_pairs,
    bool row_subjects) {
  std::vector<CacheKey> keys;
  std::vector<SelectQuery> probes;
  std::unordered_set<CacheKey, CacheKeyHash> pending;
  for (const auto& [subject, relation] : subject_relation_pairs) {
    CacheKey key{endpoint, subject, relation};
    if (object_cache_.find(key) != object_cache_.end()) continue;
    if (!pending.insert(key).second) continue;  // Duplicate in this batch.
    if (row_subjects) {
      SOFYA_ASSIGN_OR_RETURN(Term term, endpoint->DecodeTerm(subject));
      endpoint->LookupTerm(term);
    }
    if (subject == kNullTermId || relation == kNullTermId) {
      // Unknown terms have no facts; memoize the empty answer query-free.
      object_cache_.emplace(key, std::vector<TermId>());
      continue;
    }
    keys.push_back(key);
    probes.push_back(queries::ObjectsOf(subject, relation));
  }
  if (probes.empty()) return Status::OK();

  // Completeness matters: a truncated object list turns "r has y" into a
  // phantom counter-example. Page through everything each subject has.
  PagedSelectOptions paging;
  paging.page_size = options_.facts_per_subject_cap;
  SelectBatchResult batch = BatchedPagedSelect(endpoint, probes, paging);
  // Memoize only successful slots: a failed fetch must not leave behind
  // empty entries that later reads would mistake for "subject has no
  // facts". The successes are banked BEFORE the error is reported, so a
  // retried probe pass re-fetches only what actually failed.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!batch.statuses[i].ok()) continue;
    std::vector<TermId> objects;
    objects.reserve(batch.values[i].rows.size());
    for (const auto& row : batch.values[i].rows) objects.push_back(row[0]);
    object_cache_.emplace(keys[i], std::move(objects));
  }
  return batch.FirstError();
}

Status UnbiasedSampler::PrefetchExistence(Endpoint* endpoint,
                                          const std::vector<TriProbe>& probes) {
  std::vector<AskKey> keys;
  std::vector<SelectQuery> batch;
  for (const TriProbe& probe : probes) {
    AskKey key{endpoint, probe.s, probe.p, probe.o};
    if (ask_cache_.find(key) != ask_cache_.end()) continue;
    if (std::find(keys.begin(), keys.end(), key) != keys.end()) continue;
    keys.push_back(key);
    batch.push_back(ExistenceProbe(probe.s, probe.p, probe.o));
  }
  if (batch.empty()) return Status::OK();

  AskBatchResult answers = endpoint->AskMany(batch);
  // Same banking rule as PrefetchObjects: memoize the probes that
  // answered, then surface the first failure (if any) by batch position.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!answers.statuses[i].ok()) continue;
    ask_cache_.emplace(keys[i], answers.values[i]);
  }
  return answers.FirstError();
}

StatusOr<bool> UnbiasedSampler::TripleExists(Endpoint* endpoint,
                                             TriProbe probe) {
  AskKey key{endpoint, probe.s, probe.p, probe.o};
  auto it = ask_cache_.find(key);
  if (it != ask_cache_.end()) return it->second;
  SOFYA_ASSIGN_OR_RETURN(bool exists,
                         endpoint->Ask(ExistenceProbe(probe.s, probe.p,
                                                      probe.o)));
  ask_cache_.emplace(key, exists);
  return exists;
}

StatusOr<ResultSet> UnbiasedSampler::FetchDisagreeingRows(Endpoint* endpoint,
                                                          TermId p1,
                                                          TermId p2) {
  // Two windows at distant offsets: disagreement rows cluster on popular
  // subjects (one per object pair), so a single LIMIT window can be
  // dominated by a couple of entities. OFFSET-spread windows are the
  // standard pseudo-random sampling idiom against public endpoints.
  SelectQuery q =
      queries::SubjectsWithDisagreeingObjects(p1, p2, ubs_options_.probe_limit);
  SOFYA_ASSIGN_OR_RETURN(ResultSet first, endpoint->Select(q));
  if (first.rows.size() < ubs_options_.probe_limit) return first;

  SelectQuery far = queries::SubjectsWithDisagreeingObjects(
      p1, p2, ubs_options_.probe_limit);
  far.Offset(ubs_options_.probe_limit * 5);
  SOFYA_ASSIGN_OR_RETURN(ResultSet second, endpoint->Select(far));
  for (auto& row : second.rows) first.rows.push_back(std::move(row));
  return first;
}

size_t UnbiasedSampler::SettleBound() const {
  // Enough contradictions to exceed the support-relative threshold for any
  // plausible sample (support <= sample_size * facts_per_subject_cap is
  // theoretical; in practice support stays within a few dozen).
  const double by_ratio = ubs_options_.contradiction_support_ratio *
                          static_cast<double>(options_.sample_size) * 4.0;
  return std::max<size_t>(ubs_options_.min_contradictions,
                          static_cast<size_t>(by_ratio) + 1);
}

StatusOr<std::optional<UnbiasedSampler::ObjectValue>>
UnbiasedSampler::ImageValue(const CrossKbTranslator* translator,
                            Endpoint* source, TermId id) const {
  SOFYA_ASSIGN_OR_RETURN(IdImage image, translator->ImageOf(id));
  if (!image.has_image()) return std::optional<ObjectValue>();
  ObjectValue value{image.image, std::nullopt};
  if (image.literal) {
    SOFYA_ASSIGN_OR_RETURN(value.literal, source->DecodeTerm(id));
  }
  return std::optional<ObjectValue>(std::move(value));
}

StatusOr<bool> UnbiasedSampler::ContainsLiteral(
    Endpoint* endpoint, const std::vector<TermId>& objects,
    const Term& literal) const {
  for (TermId o : objects) {
    SOFYA_ASSIGN_OR_RETURN(Term object, endpoint->DecodeTerm(o));
    if (literal_matcher_.Matches(literal, object)) return true;
  }
  return false;
}

StatusOr<bool> UnbiasedSampler::Contains(const CrossKbTranslator* translator,
                                         Endpoint* endpoint,
                                         const std::vector<TermId>& objects,
                                         const ObjectValue& value) const {
  if (value.literal.has_value()) {
    return ContainsLiteral(endpoint, objects, *value.literal);
  }
  for (TermId o : objects) {
    SOFYA_ASSIGN_OR_RETURN(TermId image, translator->TargetImageOf(o));
    if (image == value.image) return true;
  }
  return false;
}

StatusOr<UbsReport> UnbiasedSampler::Probe(const Term& r,
                                           const std::vector<Term>& candidates) {
  UbsReport report;
  if (!ubs_options_.enable_equivalence_filter &&
      !ubs_options_.enable_subsumption_filter) {
    return report;  // Fully ablated: no probes, no cost.
  }
  // Looked up when a row first needs a reference probe, as the term path
  // did (see PrefetchObjects).
  std::optional<TermId> r_id;

  for (const Term& r_prime : candidates) {
    for (const Term& r_dprime : candidates) {
      if (r_prime == r_dprime) continue;

      // Skip pairs whose verdicts are already settled. The bound is kept
      // far above min_contradictions because the aligner's pruning rule is
      // support-relative.
      const size_t settle = SettleBound();
      const bool need_equiv = ubs_options_.enable_equivalence_filter &&
                              report.EquivalenceHits(r_prime) < settle;
      const bool need_subsum = ubs_options_.enable_subsumption_filter &&
                               report.SubsumptionHits(r_dprime) < settle;
      if (!need_equiv && !need_subsum) continue;

      const TermId p1 = candidate_kb_->LookupTerm(r_prime);
      const TermId p2 = candidate_kb_->LookupTerm(r_dprime);
      if (p1 == kNullTermId || p2 == kNullTermId) continue;

      ++report.pairs_probed;
      SOFYA_ASSIGN_OR_RETURN(ResultSet rows,
                             FetchDisagreeingRows(candidate_kb_, p1, p2));

      // Phase A: batch-warm the memos with every candidate-side probe this
      // pair needs. IRI objects get an exact-triple existence ASK (ships
      // zero rows) through AskMany; literal objects still need the
      // subject's full object list for similarity matching. Both memos
      // dedup repeats, and the batches let the endpoint stack dedup and
      // cache across pairs and candidates.
      struct ProbeRow {
        TermId x1, y1, y2;
        bool y2_literal;
      };
      std::vector<ProbeRow> probe_rows;
      probe_rows.reserve(rows.rows.size());
      std::vector<std::pair<TermId, TermId>> candidate_probes;
      std::vector<TriProbe> existence_probes;
      for (const auto& row : rows.rows) {
        SOFYA_ASSIGN_OR_RETURN(bool y2_literal,
                               to_reference_->IsLiteral(row[2]));
        ++report.rows_examined;
        if (y2_literal) {
          candidate_probes.emplace_back(row[0], p1);
        } else {
          existence_probes.push_back(TriProbe{row[0], p1, row[2]});
        }
        probe_rows.push_back(ProbeRow{row[0], row[1], row[2], y2_literal});
      }
      SOFYA_RETURN_IF_ERROR(PrefetchObjects(candidate_kb_, candidate_probes,
                                            /*row_subjects=*/true));
      SOFYA_RETURN_IF_ERROR(
          PrefetchExistence(candidate_kb_, existence_probes));

      // Phase B: rows surviving ¬r'(x, y2) and sameAs translation need a
      // reference-side probe; batch those too.
      struct Survivor {
        TermId x2;
        ObjectValue ty1, ty2;
      };
      std::vector<Survivor> survivors;
      std::vector<std::pair<TermId, TermId>> reference_probes;
      for (const ProbeRow& pr : probe_rows) {
        // Enforce ¬r'(x, y2): the FILTER only guaranteed y1 != y2 per row.
        bool has_y2 = false;
        if (pr.y2_literal) {
          SOFYA_ASSIGN_OR_RETURN(std::vector<TermId> r_prime_objects,
                                 ObjectsOf(candidate_kb_, pr.x1, p1));
          SOFYA_ASSIGN_OR_RETURN(Term y2, candidate_kb_->DecodeTerm(pr.y2));
          SOFYA_ASSIGN_OR_RETURN(
              has_y2, ContainsLiteral(candidate_kb_, r_prime_objects, y2));
        } else {
          SOFYA_ASSIGN_OR_RETURN(
              has_y2, TripleExists(candidate_kb_, TriProbe{pr.x1, p1, pr.y2}));
        }
        if (has_y2) continue;

        // Translate the triple into K.
        SOFYA_ASSIGN_OR_RETURN(IdImage x2, to_reference_->ImageOf(pr.x1));
        if (!x2.has_image()) continue;
        SOFYA_ASSIGN_OR_RETURN(std::optional<ObjectValue> ty1,
                               ImageValue(to_reference_, candidate_kb_, pr.y1));
        if (!ty1.has_value()) continue;
        SOFYA_ASSIGN_OR_RETURN(std::optional<ObjectValue> ty2,
                               ImageValue(to_reference_, candidate_kb_, pr.y2));
        if (!ty2.has_value()) continue;
        SOFYA_ASSIGN_OR_RETURN(TermId x2_id, to_reference_->TranslateId(pr.x1));
        if (!r_id.has_value()) r_id = reference_kb_->LookupTerm(r);
        reference_probes.emplace_back(x2_id, *r_id);
        survivors.push_back(Survivor{x2_id, std::move(*ty1), std::move(*ty2)});
      }
      SOFYA_RETURN_IF_ERROR(PrefetchObjects(reference_kb_, reference_probes,
                                            /*row_subjects=*/false));

      // Phase C: tally counter-examples from the warmed memo.
      for (const Survivor& s : survivors) {
        SOFYA_ASSIGN_OR_RETURN(std::vector<TermId> r_objects,
                               ObjectsOf(reference_kb_, s.x2, *r_id));
        SOFYA_ASSIGN_OR_RETURN(
            bool has_y1,
            Contains(to_reference_, reference_kb_, r_objects, s.ty1));
        if (!has_y1) continue;  // K does not know x's r-attributes via y1.
        SOFYA_ASSIGN_OR_RETURN(
            bool has_y2,
            Contains(to_reference_, reference_kb_, r_objects, s.ty2));

        if (has_y2) {
          // Case 1: r(x,y1) ∧ r(x,y2) ∧ ¬r'(x,y2)  =>  r ⇏ r'.
          if (ubs_options_.enable_equivalence_filter) {
            ++report.equivalence_counterexamples[r_prime];
          }
        } else {
          // Case 2: r(x,y1) ∧ ¬r(x,y2) ∧ r''(x,y2)  =>  r'' ⇏ r.
          if (ubs_options_.enable_subsumption_filter) {
            ++report.subsumption_counterexamples[r_dprime];
          }
        }
      }
    }
  }
  return report;
}

Status UnbiasedSampler::ProbeReferenceSiblings(
    const Term& r, const Term& candidate,
    const std::vector<Term>& reference_siblings, UbsReport* report) {
  if (!ubs_options_.enable_reference_siblings) return Status::OK();

  const TermId r_id = reference_kb_->LookupTerm(r);
  if (r_id == kNullTermId) return Status::OK();
  // Looked up when a row first needs a candidate probe, as the term path
  // did (see PrefetchObjects).
  std::optional<TermId> candidate_id;

  for (const Term& sibling : reference_siblings) {
    if (sibling == r) continue;
    const size_t settle = SettleBound();
    const bool need_subsum = ubs_options_.enable_subsumption_filter &&
                             report->SubsumptionHits(candidate) < settle;
    const bool need_equiv = ubs_options_.enable_equivalence_filter &&
                            report->EquivalenceHits(candidate) < settle;
    if (!need_subsum && !need_equiv) break;

    const TermId sibling_id = reference_kb_->LookupTerm(sibling);
    if (sibling_id == kNullTermId) continue;

    ++report->pairs_probed;
    auto rows_or = FetchDisagreeingRows(reference_kb_, r_id, sibling_id);
    if (!rows_or.ok()) return rows_or.status();

    // Mirror of Probe's phases: batch the reference-side probes
    // (exact-triple ASKs for IRI objects, object lists for literals),
    // filter, then batch the candidate-side probes for the survivors.
    struct ProbeRow {
      TermId x2, y1, y2;
      bool y2_literal;
    };
    std::vector<ProbeRow> probe_rows;
    probe_rows.reserve(rows_or->rows.size());
    std::vector<std::pair<TermId, TermId>> reference_probes;
    std::vector<TriProbe> existence_probes;
    for (const auto& row : rows_or->rows) {
      SOFYA_ASSIGN_OR_RETURN(bool y2_literal, to_candidate_->IsLiteral(row[2]));
      ++report->rows_examined;
      if (y2_literal) {
        reference_probes.emplace_back(row[0], r_id);
      } else {
        existence_probes.push_back(TriProbe{row[0], r_id, row[2]});
      }
      probe_rows.push_back(ProbeRow{row[0], row[1], row[2], y2_literal});
    }
    SOFYA_RETURN_IF_ERROR(PrefetchObjects(reference_kb_, reference_probes,
                                          /*row_subjects=*/true));
    SOFYA_RETURN_IF_ERROR(PrefetchExistence(reference_kb_, existence_probes));

    struct Survivor {
      const ProbeRow* row;
      TermId x1;
    };
    std::vector<Survivor> survivors;
    std::vector<std::pair<TermId, TermId>> candidate_probes;
    for (const ProbeRow& pr : probe_rows) {
      // Enforce ¬r(x, y2) in K.
      bool has_y2 = false;
      if (pr.y2_literal) {
        SOFYA_ASSIGN_OR_RETURN(std::vector<TermId> r_objects,
                               ObjectsOf(reference_kb_, pr.x2, r_id));
        SOFYA_ASSIGN_OR_RETURN(Term y2, reference_kb_->DecodeTerm(pr.y2));
        SOFYA_ASSIGN_OR_RETURN(
            has_y2, ContainsLiteral(reference_kb_, r_objects, y2));
      } else {
        SOFYA_ASSIGN_OR_RETURN(
            has_y2, TripleExists(reference_kb_, TriProbe{pr.x2, r_id, pr.y2}));
      }
      if (has_y2) continue;

      SOFYA_ASSIGN_OR_RETURN(IdImage x1, to_candidate_->ImageOf(pr.x2));
      if (!x1.has_image()) continue;
      SOFYA_ASSIGN_OR_RETURN(TermId x1_id, to_candidate_->TranslateId(pr.x2));
      if (!candidate_id.has_value()) {
        candidate_id = candidate_kb_->LookupTerm(candidate);
      }
      candidate_probes.emplace_back(x1_id, *candidate_id);
      survivors.push_back(Survivor{&pr, x1_id});
    }
    SOFYA_RETURN_IF_ERROR(PrefetchObjects(candidate_kb_, candidate_probes,
                                          /*row_subjects=*/false));

    for (const Survivor& s : survivors) {
      SOFYA_ASSIGN_OR_RETURN(std::vector<TermId> candidate_objects,
                             ObjectsOf(candidate_kb_, s.x1, *candidate_id));
      if (candidate_objects.empty()) continue;

      // Subsumption counter-example for candidate => r: the candidate
      // asserts (x, y2) but K, which knows x's r-attributes (y1 ∈ r(x,·)),
      // does not list y2.
      if (ubs_options_.enable_subsumption_filter) {
        SOFYA_ASSIGN_OR_RETURN(
            std::optional<ObjectValue> ty2,
            ImageValue(to_candidate_, reference_kb_, s.row->y2));
        if (ty2.has_value()) {
          SOFYA_ASSIGN_OR_RETURN(bool has_ty2,
                                 Contains(to_candidate_, candidate_kb_,
                                          candidate_objects, *ty2));
          if (has_ty2) ++report->subsumption_counterexamples[candidate];
        }
      }

      // Equivalence counter-example for r => candidate: K asserts r(x,y1),
      // the candidate has facts for x but not y1.
      if (ubs_options_.enable_equivalence_filter) {
        SOFYA_ASSIGN_OR_RETURN(
            std::optional<ObjectValue> ty1,
            ImageValue(to_candidate_, reference_kb_, s.row->y1));
        if (ty1.has_value()) {
          SOFYA_ASSIGN_OR_RETURN(bool has_ty1,
                                 Contains(to_candidate_, candidate_kb_,
                                          candidate_objects, *ty1));
          if (!has_ty1) ++report->equivalence_counterexamples[candidate];
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace sofya
