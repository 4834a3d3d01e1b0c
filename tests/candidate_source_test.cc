// The candidate-source layer: refactor parity (the sameAs source must be
// candidate- and query-count-identical to the pre-refactor finder), the
// zero-links lexical path, the distribution profiles, the PARIS-style
// priors, the shared lexical-index cache, and AlignMany determinism with
// a non-default source.

#include "align/candidate_source.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_set>

#include "align/candidate_finder.h"
#include "align/relation_aligner.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "endpoint/tracking_endpoint.h"
#include "similarity/literal_matcher.h"
#include "synth/presets.h"
#include "synth/world_generator.h"
#include "util/hash.h"
#include "util/random.h"

namespace sofya {
namespace {

// ---------------------------------------------------------------------------
// Frozen pre-refactor finder (PR 7's CandidateFinder::FindCandidates body,
// copied verbatim). The refactor's contract is that the kSameAs source is
// indistinguishable from this code — same candidates, same order, same
// queries — so this copy is the regression oracle. Do not "fix" it.
// ---------------------------------------------------------------------------
StatusOr<std::vector<CandidateRelation>> LegacyFindCandidates(
    Endpoint* candidate_kb, Endpoint* reference_kb,
    const CrossKbTranslator* to_candidate,
    const CandidateFinderOptions& options, const Term& r) {
  LiteralMatcher literal_matcher(options.literal_options);
  std::vector<CandidateRelation> result;
  const TermId r_id = reference_kb->LookupTerm(r);
  if (r_id == kNullTermId) return result;

  PagedSelectOptions page_options;
  page_options.page_size = options.page_size;
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet window,
      PagedSelect(reference_kb,
                  queries::FactsOfPredicate(r_id, options.scan_limit),
                  page_options));
  if (window.rows.empty()) return result;

  std::vector<size_t> order(window.rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(options.seed ^ Fnv1a(r.lexical().data(), r.lexical().size()));
  Shuffle(rng, order);

  size_t literal_objects = 0;
  for (const auto& row : window.rows) {
    SOFYA_ASSIGN_OR_RETURN(Term obj, reference_kb->DecodeTerm(row[1]));
    if (obj.is_literal()) ++literal_objects;
  }
  const bool literal_relation = literal_objects * 2 >= window.rows.size();

  struct Probe {
    bool literal;
    Term y2;
  };
  std::vector<Probe> probes;
  std::vector<SelectQuery> probe_queries;
  for (size_t idx : order) {
    if (probes.size() >= options.sample_facts) break;
    const auto& row = window.rows[idx];
    SOFYA_ASSIGN_OR_RETURN(Term x2, reference_kb->DecodeTerm(row[0]));
    SOFYA_ASSIGN_OR_RETURN(Term y2, reference_kb->DecodeTerm(row[1]));

    auto x1 = to_candidate->Translate(x2);
    if (!x1.ok()) continue;

    if (literal_relation) {
      if (!y2.is_literal()) continue;
      const TermId x1_id = candidate_kb->LookupTerm(*x1);
      if (x1_id == kNullTermId) continue;
      probes.push_back(Probe{true, y2});
      probe_queries.push_back(queries::FactsOfSubject(x1_id));
      continue;
    }

    auto y1 = to_candidate->Translate(y2);
    if (!y1.ok()) continue;
    const TermId x1_id = candidate_kb->LookupTerm(*x1);
    const TermId y1_id = candidate_kb->LookupTerm(*y1);
    if (x1_id == kNullTermId || y1_id == kNullTermId) continue;
    probes.push_back(Probe{false, Term()});
    probe_queries.push_back(queries::PredicatesBetween(x1_id, y1_id));
  }

  std::map<Term, size_t> counts;
  SOFYA_ASSIGN_OR_RETURN(std::vector<ResultSet> probe_results,
                         candidate_kb->SelectMany(probe_queries).IntoValues());
  for (size_t i = 0; i < probes.size(); ++i) {
    const ResultSet& rows = probe_results[i];
    if (probes[i].literal) {
      std::unordered_set<TermId> credited;
      for (const auto& fact_row : rows.rows) {
        SOFYA_ASSIGN_OR_RETURN(Term obj, candidate_kb->DecodeTerm(fact_row[1]));
        if (!obj.is_literal()) continue;
        if (!literal_matcher.Matches(obj, probes[i].y2)) continue;
        if (!credited.insert(fact_row[0]).second) continue;
        SOFYA_ASSIGN_OR_RETURN(Term predicate,
                               candidate_kb->DecodeTerm(fact_row[0]));
        ++counts[predicate];
      }
      continue;
    }
    for (const auto& p_row : rows.rows) {
      SOFYA_ASSIGN_OR_RETURN(Term predicate,
                             candidate_kb->DecodeTerm(p_row[0]));
      ++counts[predicate];
    }
  }

  for (const auto& [relation, count] : counts) {
    if (count < options.min_cooccurrence) continue;
    result.push_back(CandidateRelation{relation, count});
  }
  std::stable_sort(result.begin(), result.end(),
                   [](const CandidateRelation& a, const CandidateRelation& b) {
                     if (a.cooccurrences != b.cooccurrences) {
                       return a.cooccurrences > b.cooccurrences;
                     }
                     return a.relation < b.relation;
                   });
  if (result.size() > options.max_candidates) {
    result.resize(options.max_candidates);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Refactor parity
// ---------------------------------------------------------------------------

/// Runs legacy and refactored discovery for `r` on `world` behind fresh
/// TrackingEndpoints and asserts identical candidates AND query counts.
void ExpectSameAsParity(SynthWorld* world, const Term& r) {
  LocalEndpoint cand(world->kb1.get());
  LocalEndpoint ref(world->kb2.get());
  CrossKbTranslator to_cand(&world->links, cand.base_iri());
  CandidateFinderOptions options;  // Defaults == kSameAs.

  TrackingEndpoint legacy_cand(&cand), legacy_ref(&ref);
  auto legacy =
      LegacyFindCandidates(&legacy_cand, &legacy_ref, &to_cand, options, r);
  ASSERT_TRUE(legacy.ok()) << legacy.status().ToString();

  TrackingEndpoint new_cand(&cand), new_ref(&ref);
  CandidateFinder finder(&new_cand, &new_ref, &to_cand, options);
  auto refactored = finder.FindCandidates(r);
  ASSERT_TRUE(refactored.ok()) << refactored.status().ToString();

  ASSERT_EQ(refactored->size(), legacy->size());
  for (size_t i = 0; i < legacy->size(); ++i) {
    EXPECT_EQ((*refactored)[i].relation, (*legacy)[i].relation);
    EXPECT_EQ((*refactored)[i].cooccurrences, (*legacy)[i].cooccurrences);
  }
  EXPECT_EQ(new_cand.stats().queries, legacy_cand.stats().queries);
  EXPECT_EQ(new_ref.stats().queries, legacy_ref.stats().queries);
  EXPECT_EQ(new_cand.stats().rows_returned,
            legacy_cand.stats().rows_returned);
  EXPECT_EQ(new_ref.stats().rows_returned, legacy_ref.stats().rows_returned);
}

TEST(SameAsSourceParityTest, MoviesEntityAndLiteralRelations) {
  auto world = std::move(GenerateWorld(MoviesWorldSpec())).value();
  ExpectSameAsParity(&world,
                     Term::Iri("http://kb2.sofya.org/ontology/directedBy"));
  ExpectSameAsParity(&world, Term::Iri("http://kb2.sofya.org/ontology/name"));
  ExpectSameAsParity(&world, Term::Iri("http://kb2.sofya.org/ontology/nope"));
}

TEST(SameAsSourceParityTest, MusicAllReferenceRelations) {
  auto world = std::move(GenerateWorld(MusicWorldSpec())).value();
  for (const std::string& iri : world.truth.RelationsOf("artkb")) {
    SCOPED_TRACE(iri);
    ExpectSameAsParity(&world, Term::Iri(iri));
  }
}

// ---------------------------------------------------------------------------
// Zero-links world: lexical + distribution + composite
// ---------------------------------------------------------------------------

class NoLinksFixture : public ::testing::Test {
 protected:
  NoLinksFixture()
      : world_(std::move(GenerateWorld(NoLinksWorldSpec())).value()),
        cand_(world_.kb1.get()),
        ref_(world_.kb2.get()),
        to_cand_(&world_.links, cand_.base_iri()) {}

  /// Gold kb1 equivalent of a kb2 relation, empty IRI when none.
  Term GoldEquivalent(const std::string& reference_iri) const {
    for (const std::string& c : world_.truth.RelationsOf("canon1")) {
      if (world_.truth.Classify(reference_iri, c) == AlignKind::kEquivalence) {
        return Term::Iri(c);
      }
    }
    return Term();
  }

  SynthWorld world_;
  LocalEndpoint cand_;
  LocalEndpoint ref_;
  CrossKbTranslator to_cand_;
};

TEST_F(NoLinksFixture, WorldHasNoLinksButSharedNames) {
  EXPECT_EQ(world_.links.num_links(), 0u);
  EXPECT_EQ(cand_.base_iri(), ref_.base_iri());
}

TEST_F(NoLinksFixture, LexicalRecallAtEightAboveBar) {
  CandidateFinderOptions options;
  options.source = CandidateSourceKind::kLexical;
  options.lexical_cache = std::make_shared<LexicalIndexCache>();
  CandidateFinder finder(&cand_, &ref_, &to_cand_, options);

  const std::vector<std::string> refs = world_.truth.RelationsOf("canon2");
  ASSERT_EQ(refs.size(), 20u);
  size_t hits = 0;
  for (const std::string& iri : refs) {
    const Term gold = GoldEquivalent(iri);
    ASSERT_FALSE(gold.lexical().empty()) << iri;
    auto candidates = finder.FindCandidates(Term::Iri(iri));
    ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
    EXPECT_LE(candidates->size(), options.max_candidates);
    for (const auto& c : *candidates) {
      EXPECT_GT(c.prior, 0.0);
      EXPECT_LE(c.prior, 1.0);
      if (c.relation == gold) {
        ++hits;
        break;
      }
    }
  }
  // 18/20 on this preset: only the deliberate semantic renames
  // (starring -> hasActor, written_by -> hasAuthor) escape the lexical net.
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(refs.size()), 0.8);
  // One inventory, one index: every relation after the first hits the memo.
  EXPECT_EQ(options.lexical_cache->builds(), 1u);
  EXPECT_EQ(options.lexical_cache->hits(), refs.size() - 1);
}

TEST_F(NoLinksFixture, LexicalIndexCacheInvalidatesOnDataEpoch) {
  CandidateFinderOptions options;
  options.source = CandidateSourceKind::kLexical;
  options.lexical_cache = std::make_shared<LexicalIndexCache>();
  CandidateFinder finder(&cand_, &ref_, &to_cand_, options);

  const Term r = Term::Iri("http://nolinks.sofya.org/ontology/birth_place");
  ASSERT_TRUE(finder.FindCandidates(r).ok());
  ASSERT_TRUE(finder.FindCandidates(r).ok());
  EXPECT_EQ(options.lexical_cache->builds(), 1u);
  EXPECT_EQ(options.lexical_cache->hits(), 1u);

  // A write bumps the candidate KB's data_epoch and grows the predicate
  // inventory: the cached index is stale and must be rebuilt.
  const uint64_t epoch_before = cand_.data_epoch();
  ASSERT_TRUE(world_.kb1->AddFact("entity/e0", "ontology/freshPredicate",
                                  "entity/e1"));
  EXPECT_GT(cand_.data_epoch(), epoch_before);
  ASSERT_TRUE(finder.FindCandidates(r).ok());
  EXPECT_EQ(options.lexical_cache->builds(), 2u);
}

TEST_F(NoLinksFixture, DistributionSourceSeparatesLiteralFromEntityRange) {
  DistributionSource::Profile literal_like;
  literal_like.valid = true;
  literal_like.functionality = 0.9;
  literal_like.inverse_functionality = 0.8;
  literal_like.literal_fraction = 1.0;
  literal_like.top_subject_share = 0.05;
  DistributionSource::Profile entity_like = literal_like;
  entity_like.literal_fraction = 0.0;

  EXPECT_DOUBLE_EQ(DistributionSource::Similarity(literal_like, literal_like),
                   1.0);
  EXPECT_DOUBLE_EQ(
      DistributionSource::Similarity(literal_like, entity_like), 0.0);
  EXPECT_DOUBLE_EQ(DistributionSource::Similarity({}, literal_like), 0.0);

  // End to end: profiling the candidate inventory against a literal-range
  // reference keeps literal-range relations and drops entity-range ones.
  CandidateFinderOptions options;
  options.source = CandidateSourceKind::kDistribution;
  CandidateFinder finder(&cand_, &ref_, &to_cand_, options);
  auto candidates = finder.FindCandidates(
      Term::Iri("http://nolinks.sofya.org/ontology/population_total"));
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  ASSERT_FALSE(candidates->empty());
  std::vector<std::string> proposed;
  for (const auto& c : *candidates) proposed.push_back(c.relation.lexical());
  EXPECT_NE(std::find(proposed.begin(), proposed.end(),
                      "http://nolinks.sofya.org/ontology/hasPopulation"),
            proposed.end());
  EXPECT_EQ(std::find(proposed.begin(), proposed.end(),
                      "http://nolinks.sofya.org/ontology/hasBirthPlace"),
            proposed.end());
}

TEST_F(NoLinksFixture, CompositePriorRecoversLexicalMiss) {
  // written_by -> hasAuthor is a deliberate semantic rename: invisible to
  // the lexical source. The composite still proposes it (shared-identifier
  // sameAs overlap + distribution agreement) with a meaningful prior.
  CandidateFinderOptions options;
  options.source = CandidateSourceKind::kAuto;
  CandidateFinder finder(&cand_, &ref_, &to_cand_, options);
  auto candidates = finder.FindCandidates(
      Term::Iri("http://nolinks.sofya.org/ontology/written_by"));
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  const Term gold = Term::Iri("http://nolinks.sofya.org/ontology/hasAuthor");
  const CandidateRelation* found = nullptr;
  for (const auto& c : *candidates) {
    EXPECT_GT(c.prior, 0.0);
    EXPECT_LE(c.prior, 1.0);
    if (c.relation == gold) found = &c;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_GT(found->prior, 0.5);
}

// ---------------------------------------------------------------------------
// AlignMany determinism with the lexical source + verdict priors
// ---------------------------------------------------------------------------

/// Fingerprints every verdict and the per-relation query attribution.
std::string FingerprintAlignMany(const AlignManyResult& result) {
  std::ostringstream out;
  out.precision(10);
  for (const auto& r : result.results) {
    out << r.reference_relation.lexical() << '{' << r.candidate_queries << ','
        << r.reference_queries << ',' << r.rows_shipped << '}';
    for (const auto& v : r.verdicts) {
      out << v.relation.lexical() << '|' << v.prior << '|'
          << v.rule.pca_conf << '|' << v.rule.support << '|' << v.accepted
          << '|' << v.equivalence << ';';
    }
    out << '\n';
  }
  return out.str();
}

TEST_F(NoLinksFixture, LexicalAlignManyBitIdenticalAcrossThreads) {
  AlignerOptions options;
  options.finder.source = CandidateSourceKind::kLexical;
  RelationAligner aligner(&cand_, &ref_, &world_.links, options);

  std::vector<Term> refs;
  for (const std::string& iri : world_.truth.RelationsOf("canon2")) {
    refs.push_back(Term::Iri(iri));
  }

  auto baseline = aligner.AlignMany(refs, /*num_threads=*/1);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string expected = FingerprintAlignMany(*baseline);

  // The zero-links world aligns end to end without a single sameAs link.
  size_t accepted = 0;
  for (const auto& r : baseline->results) {
    for (const auto& v : r.verdicts) {
      if (v.accepted) ++accepted;
      EXPECT_GE(v.prior, 0.0);
      EXPECT_LE(v.prior, 1.0);
    }
  }
  EXPECT_GE(accepted, 15u);

  for (const size_t threads : {size_t{2}, size_t{8}}) {
    auto run = aligner.AlignMany(refs, threads);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(FingerprintAlignMany(*run), expected) << "threads=" << threads;
  }
}

TEST(CandidateSourceKindTest, ParseAndNameRoundTrip) {
  for (const auto kind :
       {CandidateSourceKind::kSameAs, CandidateSourceKind::kLexical,
        CandidateSourceKind::kDistribution, CandidateSourceKind::kAuto}) {
    auto parsed = ParseCandidateSourceKind(CandidateSourceKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(ParseCandidateSourceKind("embedding").status().IsInvalidArgument());
}

TEST(ApplyRunSeedTest, DerivesComponentSeedsFromMasterSeed) {
  AlignerOptions defaults;
  AlignerOptions seeded = defaults;
  ApplyRunSeed(&seeded, 0);  // The unset sentinel changes nothing.
  EXPECT_EQ(seeded.finder.seed, defaults.finder.seed);
  EXPECT_EQ(seeded.sampler.seed, defaults.sampler.seed);

  ApplyRunSeed(&seeded, 42);
  EXPECT_NE(seeded.finder.seed, defaults.finder.seed);
  EXPECT_NE(seeded.sampler.seed, defaults.sampler.seed);
  EXPECT_NE(seeded.finder.seed, seeded.sampler.seed);

  AlignerOptions again = defaults;
  ApplyRunSeed(&again, 42);  // Same master seed -> same derivation.
  EXPECT_EQ(again.finder.seed, seeded.finder.seed);
  EXPECT_EQ(again.sampler.seed, seeded.sampler.seed);

  AlignerOptions other = defaults;
  ApplyRunSeed(&other, 43);
  EXPECT_NE(other.finder.seed, seeded.finder.seed);
}

}  // namespace
}  // namespace sofya
