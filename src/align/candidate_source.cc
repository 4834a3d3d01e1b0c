#include "align/candidate_source.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "similarity/string_metrics.h"
#include "util/hash.h"
#include "util/random.h"

namespace sofya {
namespace {

/// Entries kept before the cache sheds its inventory tail. One aligner run
/// needs at most a handful of keys (one per endpoint direction per distinct
/// predicate inventory).
constexpr size_t kLexicalCacheCap = 16;

/// Sorts scored candidates by descending score with ascending-IRI ties and
/// truncates to the option cap — the shared ranking contract of every
/// source.
void RankAndTruncate(std::vector<ScoredCandidate>* scored,
                     size_t max_candidates) {
  std::stable_sort(scored->begin(), scored->end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.relation < b.relation;
                   });
  if (scored->size() > max_candidates) scored->resize(max_candidates);
}

/// Cache key of a lexical index: LSH shape + sorted inventory. The index is
/// a pure function of those two, so a write that leaves the inventory
/// unchanged (a new fact for an existing predicate) keeps the key, and one
/// that adds or drops a predicate changes it.
uint64_t LexicalIndexKey(const MinHashLshOptions& lsh,
                         const std::vector<Term>& inventory) {
  const uint64_t shape[4] = {lsh.ngram, lsh.num_hashes, lsh.bands, lsh.seed};
  uint64_t key = Fnv1a(shape, sizeof(shape)) * 0x9e3779b97f4a7c15ULL;
  for (const Term& t : inventory) {
    key = key * 1099511628211ULL ^
          Fnv1a(t.lexical().data(), t.lexical().size());
  }
  return key;
}

}  // namespace

StatusOr<CandidateSourceKind> ParseCandidateSourceKind(std::string_view name) {
  if (name == "sameas") return CandidateSourceKind::kSameAs;
  if (name == "lexical") return CandidateSourceKind::kLexical;
  if (name == "distribution") return CandidateSourceKind::kDistribution;
  if (name == "auto") return CandidateSourceKind::kAuto;
  return Status::InvalidArgument(
      "unknown candidate source '" + std::string(name) +
      "' (sameas|lexical|distribution|auto)");
}

const char* CandidateSourceKindName(CandidateSourceKind kind) {
  switch (kind) {
    case CandidateSourceKind::kSameAs: return "sameas";
    case CandidateSourceKind::kLexical: return "lexical";
    case CandidateSourceKind::kDistribution: return "distribution";
    case CandidateSourceKind::kAuto: return "auto";
  }
  return "unknown";
}

LexicalIndexCache::LexicalIndexCache() : memo_(kLexicalCacheCap) {}

LexicalIndexCache::IndexPtr LexicalIndexCache::GetOrBuild(
    uint64_t key, const std::function<IndexPtr()>& build) {
  return memo_.GetOrCompute(key, /*version=*/0, build);
}

// ---------------------------------------------------------------------------
// SameAsOverlapSource
// ---------------------------------------------------------------------------

SameAsOverlapSource::SameAsOverlapSource(Endpoint* candidate_kb,
                                         Endpoint* reference_kb,
                                         const CrossKbTranslator* to_candidate,
                                         const CandidateFinderOptions& options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      to_candidate_(to_candidate),
      options_(options),
      literal_matcher_(options.literal_options) {}

StatusOr<std::vector<ScoredCandidate>> SameAsOverlapSource::Discover(
    const Term& r) {
  // The pre-refactor CandidateFinder::FindCandidates body, moved verbatim:
  // identical queries in identical order, so the refactor is query-count-
  // invisible (regression-tested against a frozen copy of the old code).
  std::vector<ScoredCandidate> result;
  const TermId r_id = reference_kb_->LookupTerm(r);
  if (r_id == kNullTermId) return result;

  // Scan + shuffle a window of r facts.
  PagedSelectOptions page_options;
  page_options.page_size = options_.page_size;
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet window,
      PagedSelect(reference_kb_,
                  queries::FactsOfPredicate(r_id, options_.scan_limit),
                  page_options));
  if (window.rows.empty()) return result;

  std::vector<size_t> order(window.rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(options_.seed ^
          Fnv1a(r.lexical().data(), r.lexical().size()));
  Shuffle(rng, order);

  // Majority kind vote over the window's objects.
  size_t literal_objects = 0;
  for (const auto& row : window.rows) {
    SOFYA_ASSIGN_OR_RETURN(bool literal, to_candidate_->IsLiteral(row[1]));
    if (literal) ++literal_objects;
  }
  const bool literal_relation = literal_objects * 2 >= window.rows.size();

  // Qualify sampled facts into probe queries. Qualification (sameAs
  // translation of the row ids into K') is client-side, so the whole probe
  // set is known before the endpoint is touched — one batch instead of one
  // query per sampled fact, which lets the endpoint stack dedup and cache
  // them. `literal_objects_of` keeps a literal probe's reference object.
  std::vector<TermId> literal_objects_of;
  std::vector<SelectQuery> probe_queries;
  for (size_t idx : order) {
    if (probe_queries.size() >= options_.sample_facts) break;
    const auto& row = window.rows[idx];
    SOFYA_ASSIGN_OR_RETURN(IdImage x, to_candidate_->ImageOf(row[0]));
    if (!x.has_image()) continue;

    if (literal_relation) {
      SOFYA_ASSIGN_OR_RETURN(bool literal, to_candidate_->IsLiteral(row[1]));
      if (!literal) continue;
      SOFYA_ASSIGN_OR_RETURN(TermId x1_id, to_candidate_->TranslateId(row[0]));
      if (x1_id == kNullTermId) continue;
      literal_objects_of.push_back(row[1]);
      probe_queries.push_back(queries::FactsOfSubject(x1_id));
      continue;
    }

    SOFYA_ASSIGN_OR_RETURN(IdImage y, to_candidate_->ImageOf(row[1]));
    if (!y.has_image()) continue;
    SOFYA_ASSIGN_OR_RETURN(TermId x1_id, to_candidate_->TranslateId(row[0]));
    SOFYA_ASSIGN_OR_RETURN(TermId y1_id, to_candidate_->TranslateId(row[1]));
    if (x1_id == kNullTermId || y1_id == kNullTermId) continue;
    probe_queries.push_back(queries::PredicatesBetween(x1_id, y1_id));
  }

  // Co-occurrences by predicate id; each distinct predicate is decoded once
  // below. Every probe answer is needed to score co-occurrence
  // deterministically, so a sub-query that still fails after the stack's
  // per-slot recovery fails the discovery (first error by batch position).
  std::unordered_map<TermId, size_t> counts_by_id;
  SOFYA_ASSIGN_OR_RETURN(
      std::vector<ResultSet> probe_results,
      candidate_kb_->SelectMany(probe_queries).IntoValues());
  for (size_t i = 0; i < probe_results.size(); ++i) {
    const ResultSet& rows = probe_results[i];
    if (literal_relation) {
      SOFYA_ASSIGN_OR_RETURN(Term y2,
                             reference_kb_->DecodeTerm(literal_objects_of[i]));
      std::unordered_set<TermId> credited;
      for (const auto& fact_row : rows.rows) {
        SOFYA_ASSIGN_OR_RETURN(Term obj,
                               candidate_kb_->DecodeTerm(fact_row[1]));
        if (!obj.is_literal()) continue;
        if (!literal_matcher_.Matches(obj, y2)) continue;
        if (!credited.insert(fact_row[0]).second) continue;
        ++counts_by_id[fact_row[0]];
      }
      continue;
    }
    for (const auto& p_row : rows.rows) ++counts_by_id[p_row[0]];
  }
  std::map<Term, size_t> counts;  // Ordered: deterministic ties.
  for (const auto& [predicate_id, count] : counts_by_id) {
    SOFYA_ASSIGN_OR_RETURN(Term predicate,
                           candidate_kb_->DecodeTerm(predicate_id));
    counts.emplace(std::move(predicate), count);
  }

  for (const auto& [relation, count] : counts) {
    if (count < options_.min_cooccurrence) continue;
    // Score: co-occurrence as a fraction of the probe budget. The ranking
    // below still keys on the raw count (score is monotone in it), so the
    // candidate order matches the pre-refactor finder exactly.
    const double score = std::min(
        1.0, static_cast<double>(count) /
                 static_cast<double>(std::max<size_t>(1, options_.sample_facts)));
    result.push_back(ScoredCandidate{relation, score, count});
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.cooccurrences != b.cooccurrences) {
                       return a.cooccurrences > b.cooccurrences;
                     }
                     return a.relation < b.relation;
                   });
  if (result.size() > options_.max_candidates) {
    result.resize(options_.max_candidates);
  }
  return result;
}

// ---------------------------------------------------------------------------
// LexicalIndexSource
// ---------------------------------------------------------------------------

LexicalIndexSource::LexicalIndexSource(Endpoint* candidate_kb,
                                       const CandidateFinderOptions& options)
    : candidate_kb_(candidate_kb),
      options_(options),
      cache_(options.lexical_cache != nullptr
                 ? options.lexical_cache
                 : std::make_shared<LexicalIndexCache>()) {}

StatusOr<LexicalIndexCache::IndexPtr> LexicalIndexSource::GetIndex() {
  SOFYA_ASSIGN_OR_RETURN(
      std::vector<Term> inventory,
      FetchPredicateInventory(candidate_kb_, options_.page_size));
  last_inventory_size_ = inventory.size();
  const uint64_t key = LexicalIndexKey(options_.lsh, inventory);
  return cache_->GetOrBuild(key, [&]() -> LexicalIndexCache::IndexPtr {
    auto index = std::make_shared<LexicalRelationIndex>(options_.lsh);
    index->relations.reserve(inventory.size());
    index->labels.reserve(inventory.size());
    index->signatures.reserve(inventory.size());
    for (size_t i = 0; i < inventory.size(); ++i) {
      std::string label = RelationLabel(inventory[i].lexical());
      index->signatures.push_back(index->lsh.Signature(label));
      index->lsh.Insert(static_cast<uint32_t>(i), label);
      index->labels.push_back(std::move(label));
      index->relations.push_back(inventory[i]);
    }
    return index;
  });
}

StatusOr<std::vector<ScoredCandidate>> LexicalIndexSource::Discover(
    const Term& r) {
  SOFYA_ASSIGN_OR_RETURN(LexicalIndexCache::IndexPtr index, GetIndex());
  const std::string label = RelationLabel(r.lexical());
  const std::vector<uint32_t> signature = index->lsh.Signature(label);

  std::vector<ScoredCandidate> scored;
  const std::vector<uint32_t> ids =
      index->lsh.Lookup(label, &last_lookup_stats_);
  for (uint32_t id : ids) {
    // Rank bucket mates by a blend of the signature's Jaccard estimate and
    // the exact bigram Dice of the two labels: the signature carries the
    // set-overlap shape, the Dice term breaks estimator noise on the short
    // strings relation labels are.
    const double similarity =
        0.5 * MinHashLsh::SignatureSimilarity(signature,
                                              index->signatures[id]) +
        0.5 * BigramDice(label, index->labels[id]);
    if (similarity < options_.min_lexical_score) continue;
    scored.push_back(ScoredCandidate{index->relations[id], similarity, 0});
  }
  RankAndTruncate(&scored, options_.max_candidates);
  return scored;
}

// ---------------------------------------------------------------------------
// DistributionSource
// ---------------------------------------------------------------------------

DistributionSource::DistributionSource(Endpoint* candidate_kb,
                                       Endpoint* reference_kb,
                                       const CandidateFinderOptions& options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      options_(options) {}

namespace {

DistributionSource::Profile ProfileFromRows(Endpoint* endpoint,
                                            const ResultSet& rows,
                                            Status* status) {
  DistributionSource::Profile profile;
  if (rows.rows.empty()) return profile;
  std::map<TermId, size_t> subject_counts;  // Ordered: deterministic.
  std::unordered_set<TermId> objects;
  size_t literals = 0;
  for (const auto& row : rows.rows) {
    ++subject_counts[row[0]];
    objects.insert(row[1]);
    auto obj = endpoint->DecodeTerm(row[1]);
    if (!obj.ok()) {
      *status = obj.status();
      return profile;
    }
    if (obj->is_literal()) ++literals;
  }
  const double facts = static_cast<double>(rows.rows.size());
  size_t top_subject = 0;
  for (const auto& [id, count] : subject_counts) {
    top_subject = std::max(top_subject, count);
  }
  profile.valid = true;
  profile.functionality = static_cast<double>(subject_counts.size()) / facts;
  profile.inverse_functionality = static_cast<double>(objects.size()) / facts;
  profile.literal_fraction = static_cast<double>(literals) / facts;
  profile.top_subject_share = static_cast<double>(top_subject) / facts;
  return profile;
}

}  // namespace

StatusOr<DistributionSource::Profile> DistributionSource::BuildProfile(
    Endpoint* endpoint, const Term& relation) {
  const TermId id = endpoint->LookupTerm(relation);
  if (id == kNullTermId) return Profile{};
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet rows,
      endpoint->Select(
          queries::FactsOfPredicate(id, options_.distribution_window)));
  Status status = Status::OK();
  Profile profile = ProfileFromRows(endpoint, rows, &status);
  SOFYA_RETURN_IF_ERROR(status);
  return profile;
}

StatusOr<std::vector<DistributionSource::Profile>>
DistributionSource::BuildProfiles(Endpoint* endpoint,
                                  const std::vector<Term>& pool) {
  // One batched round trip for every resolvable pool member; unresolvable
  // relations keep the invalid default profile (score 0 downstream).
  std::vector<Profile> profiles(pool.size());
  std::vector<size_t> slots;
  std::vector<SelectQuery> queries;
  for (size_t i = 0; i < pool.size(); ++i) {
    const TermId id = endpoint->LookupTerm(pool[i]);
    if (id == kNullTermId) continue;
    slots.push_back(i);
    queries.push_back(
        queries::FactsOfPredicate(id, options_.distribution_window));
  }
  if (queries.empty()) return profiles;
  SOFYA_ASSIGN_OR_RETURN(std::vector<ResultSet> results,
                         endpoint->SelectMany(queries).IntoValues());
  for (size_t j = 0; j < slots.size(); ++j) {
    Status status = Status::OK();
    profiles[slots[j]] = ProfileFromRows(endpoint, results[j], &status);
    SOFYA_RETURN_IF_ERROR(status);
  }
  return profiles;
}

double DistributionSource::Similarity(const Profile& a, const Profile& b) {
  if (!a.valid || !b.valid) return 0.0;
  // Product of per-feature agreements: one strongly disagreeing feature
  // (entity-range vs literal-range, functional vs many-valued) collapses
  // the score even when the others agree.
  const double score =
      (1.0 - std::abs(a.functionality - b.functionality)) *
      (1.0 - std::abs(a.inverse_functionality - b.inverse_functionality)) *
      (1.0 - std::abs(a.literal_fraction - b.literal_fraction)) *
      (1.0 - std::abs(a.top_subject_share - b.top_subject_share));
  return std::clamp(score, 0.0, 1.0);
}

StatusOr<std::vector<double>> DistributionSource::ScorePool(
    const Term& r, const std::vector<Term>& pool) {
  SOFYA_ASSIGN_OR_RETURN(Profile reference_profile,
                         BuildProfile(reference_kb_, r));
  SOFYA_ASSIGN_OR_RETURN(std::vector<Profile> profiles,
                         BuildProfiles(candidate_kb_, pool));
  std::vector<double> scores(pool.size(), 0.0);
  for (size_t i = 0; i < pool.size(); ++i) {
    scores[i] = Similarity(reference_profile, profiles[i]);
  }
  return scores;
}

StatusOr<std::vector<ScoredCandidate>> DistributionSource::Discover(
    const Term& r) {
  SOFYA_ASSIGN_OR_RETURN(
      std::vector<Term> inventory,
      FetchPredicateInventory(candidate_kb_, options_.page_size));
  // Deterministic pool cap: the inventory is sorted, take the prefix. A
  // standalone distribution run over a huge schema should raise the cap or
  // compose with a pre-filtering source (kAuto does).
  if (inventory.size() > options_.distribution_pool_limit) {
    inventory.resize(options_.distribution_pool_limit);
  }
  SOFYA_ASSIGN_OR_RETURN(std::vector<double> scores, ScorePool(r, inventory));
  std::vector<ScoredCandidate> scored;
  for (size_t i = 0; i < inventory.size(); ++i) {
    if (scores[i] < options_.min_distribution_score) continue;
    scored.push_back(ScoredCandidate{inventory[i], scores[i], 0});
  }
  RankAndTruncate(&scored, options_.max_candidates);
  return scored;
}

// ---------------------------------------------------------------------------
// CompositeCandidateSource
// ---------------------------------------------------------------------------

CompositeCandidateSource::CompositeCandidateSource(
    Endpoint* candidate_kb, Endpoint* reference_kb,
    const CrossKbTranslator* to_candidate,
    const CandidateFinderOptions& options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      to_candidate_(to_candidate),
      options_(options) {}

StatusOr<std::vector<ScoredCandidate>> CompositeCandidateSource::Discover(
    const Term& r) {
  SameAsOverlapSource sameas(candidate_kb_, reference_kb_, to_candidate_,
                             options_);
  LexicalIndexSource lexical(candidate_kb_, options_);
  SOFYA_ASSIGN_OR_RETURN(std::vector<ScoredCandidate> sameas_scored,
                         sameas.Discover(r));
  SOFYA_ASSIGN_OR_RETURN(std::vector<ScoredCandidate> lexical_scored,
                         lexical.Discover(r));

  // Union pool, ordered by IRI for deterministic batching downstream.
  std::map<Term, ScoredCandidate> pool;
  for (const ScoredCandidate& c : sameas_scored) pool[c.relation] = c;
  for (const ScoredCandidate& c : lexical_scored) {
    auto [it, inserted] = pool.emplace(c.relation, c);
    if (!inserted) {
      // Already proposed by sameAs: remember the lexical score by folding
      // it into the prior below (stored transiently in `score`).
      it->second.score = 1.0 - (1.0 - options_.sameas_weight *
                                          it->second.score) *
                                   (1.0 - options_.lexical_weight * c.score);
    }
  }
  // Normalize single-source members into partial priors too.
  for (auto& [relation, c] : pool) {
    const bool from_both =
        std::any_of(sameas_scored.begin(), sameas_scored.end(),
                    [&](const ScoredCandidate& s) {
                      return s.relation == relation;
                    }) &&
        std::any_of(lexical_scored.begin(), lexical_scored.end(),
                    [&](const ScoredCandidate& s) {
                      return s.relation == relation;
                    });
    if (from_both) continue;  // Combined above.
    const bool from_sameas = c.cooccurrences > 0;
    const double weight =
        from_sameas ? options_.sameas_weight : options_.lexical_weight;
    c.score = weight * c.score;
  }

  // Third signal: distribution similarity over the whole pool, one batch.
  std::vector<Term> pool_terms;
  pool_terms.reserve(pool.size());
  for (const auto& [relation, c] : pool) pool_terms.push_back(relation);
  DistributionSource distribution(candidate_kb_, reference_kb_, options_);
  SOFYA_ASSIGN_OR_RETURN(std::vector<double> distribution_scores,
                         distribution.ScorePool(r, pool_terms));

  std::vector<ScoredCandidate> combined;
  combined.reserve(pool.size());
  size_t i = 0;
  for (auto& [relation, c] : pool) {
    const double prior =
        1.0 - (1.0 - c.score) *
                  (1.0 - options_.distribution_weight * distribution_scores[i]);
    ++i;
    if (prior <= 0.0) continue;
    combined.push_back(ScoredCandidate{relation, prior, c.cooccurrences});
  }
  RankAndTruncate(&combined, options_.max_candidates);
  return combined;
}

}  // namespace sofya
