#include "align/relation_aligner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "align/candidate_finder.h"
#include "align/on_the_fly.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/query_forms.h"
#include "synth/presets.h"
#include "synth/world_generator.h"

namespace sofya {
namespace {

class MoviesFixture : public ::testing::Test {
 protected:
  MoviesFixture()
      : world_(std::move(GenerateWorld(MoviesWorldSpec())).value()),
        cand_(world_.kb1.get()),
        ref_(world_.kb2.get()),
        to_cand_(&world_.links, &ref_, &cand_) {}

  static Term Director() {
    return Term::Iri("http://kb1.sofya.org/ontology/hasDirector");
  }
  static Term Producer() {
    return Term::Iri("http://kb1.sofya.org/ontology/hasProducer");
  }
  static Term Label() {
    return Term::Iri("http://kb1.sofya.org/ontology/label");
  }
  static Term DirectedBy() {
    return Term::Iri("http://kb2.sofya.org/ontology/directedBy");
  }
  static Term Name() {
    return Term::Iri("http://kb2.sofya.org/ontology/name");
  }

  SynthWorld world_;
  LocalEndpoint cand_;
  LocalEndpoint ref_;
  CrossKbTranslator to_cand_;
};

TEST_F(MoviesFixture, CandidateFinderDiscoversBothRelations) {
  CandidateFinder finder(&cand_, &ref_, &to_cand_);
  auto candidates = finder.FindCandidates(DirectedBy());
  ASSERT_TRUE(candidates.ok());
  ASSERT_GE(candidates->size(), 2u);
  std::vector<Term> relations;
  for (const auto& c : *candidates) {
    relations.push_back(c.relation);
    EXPECT_GE(c.cooccurrences, 1u);
  }
  EXPECT_NE(std::find(relations.begin(), relations.end(), Director()),
            relations.end());
  EXPECT_NE(std::find(relations.begin(), relations.end(), Producer()),
            relations.end());
  // Director co-occurs more often than producer (equivalence vs overlap).
  EXPECT_EQ((*candidates)[0].relation, Director());
}

TEST_F(MoviesFixture, CandidateFinderLiteralRelation) {
  CandidateFinder finder(&cand_, &ref_, &to_cand_);
  auto candidates = finder.FindCandidates(Name());
  ASSERT_TRUE(candidates.ok());
  ASSERT_FALSE(candidates->empty());
  EXPECT_EQ((*candidates)[0].relation, Label());
}

TEST_F(MoviesFixture, CandidateFinderUnknownRelationYieldsNothing) {
  CandidateFinder finder(&cand_, &ref_, &to_cand_);
  auto candidates =
      finder.FindCandidates(Term::Iri("http://kb2.sofya.org/ontology/nope"));
  ASSERT_TRUE(candidates.ok());
  EXPECT_TRUE(candidates->empty());
}

TEST_F(MoviesFixture, MaxCandidatesCapRespected) {
  CandidateFinderOptions options;
  options.max_candidates = 1;
  CandidateFinder finder(&cand_, &ref_, &to_cand_, options);
  auto candidates = finder.FindCandidates(DirectedBy());
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->size(), 1u);
}

TEST_F(MoviesFixture, AlignerAcceptsEquivalenceAndPrunesTrap) {
  AlignerOptions options;
  options.threshold = 0.3;
  options.use_ubs = true;
  options.check_equivalence = true;
  RelationAligner aligner(&cand_, &ref_, &world_.links, options);
  auto result = aligner.Align(DirectedBy());
  ASSERT_TRUE(result.ok());

  const CandidateVerdict* director = nullptr;
  const CandidateVerdict* producer = nullptr;
  for (const auto& v : result->verdicts) {
    if (v.relation == Director()) director = &v;
    if (v.relation == Producer()) producer = &v;
  }
  ASSERT_NE(director, nullptr);
  ASSERT_NE(producer, nullptr);

  EXPECT_TRUE(director->accepted);
  EXPECT_TRUE(director->equivalence);
  EXPECT_GT(director->rule.pca_conf, 0.9);

  EXPECT_TRUE(producer->passed_threshold);  // The trap fools PCA...
  EXPECT_TRUE(producer->ubs_subsumption_pruned);  // ...and UBS kills it.
  EXPECT_FALSE(producer->accepted);

  EXPECT_EQ(result->AcceptedSubsumptions(), std::vector<Term>{Director()});
  EXPECT_EQ(result->AcceptedEquivalences(), std::vector<Term>{Director()});
  EXPECT_GT(result->total_queries(), 0u);
}

TEST_F(MoviesFixture, WithoutUbsTrapSurvives) {
  AlignerOptions options;
  options.threshold = 0.3;
  options.use_ubs = false;
  options.check_equivalence = false;
  RelationAligner aligner(&cand_, &ref_, &world_.links, options);
  auto result = aligner.Align(DirectedBy());
  ASSERT_TRUE(result.ok());
  auto accepted = result->AcceptedSubsumptions();
  EXPECT_NE(std::find(accepted.begin(), accepted.end(), Producer()),
            accepted.end());
}

TEST_F(MoviesFixture, LiteralRelationAlignsAsEquivalence) {
  RelationAligner aligner(&cand_, &ref_, &world_.links);
  auto result = aligner.Align(Name());
  ASSERT_TRUE(result.ok());
  auto equivalences = result->AcceptedEquivalences();
  ASSERT_EQ(equivalences.size(), 1u);
  EXPECT_EQ(equivalences[0], Label());
}

TEST_F(MoviesFixture, MusicWorldEquivalenceDowngradedToSubsumption) {
  auto music = std::move(GenerateWorld(MusicWorldSpec())).value();
  LocalEndpoint cand(music.kb1.get());
  LocalEndpoint ref(music.kb2.get());
  RelationAligner aligner(&cand, &ref, &music.links);
  auto result =
      aligner.Align(Term::Iri("http://kb2.sofya.org/ontology/creatorOf"));
  ASSERT_TRUE(result.ok());
  // Both siblings are subsumed; neither is an accepted equivalence.
  EXPECT_EQ(result->AcceptedSubsumptions().size(), 2u);
  EXPECT_TRUE(result->AcceptedEquivalences().empty());
}

TEST_F(MoviesFixture, OnTheFlyCachesAlignments) {
  OnTheFlyAligner otf(&cand_, &ref_, &world_.links);
  ASSERT_TRUE(otf.AlignCached(DirectedBy()).ok());
  EXPECT_EQ(otf.alignments_performed(), 1u);
  EXPECT_EQ(otf.cache_size(), 1u);

  const uint64_t queries_before = cand_.stats().queries;
  auto cached = otf.AlignCached(DirectedBy());
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(otf.alignments_performed(), 1u);           // No re-run.
  EXPECT_EQ(cand_.stats().queries, queries_before);    // Zero new queries.

  otf.ClearCache();
  EXPECT_EQ(otf.cache_size(), 0u);
}

TEST_F(MoviesFixture, BestCandidatePrefersEquivalence) {
  OnTheFlyAligner otf(&cand_, &ref_, &world_.links);
  auto best = otf.BestCandidateFor(DirectedBy());
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, Director());

  auto missing =
      otf.BestCandidateFor(Term::Iri("http://kb2.sofya.org/ontology/nope"));
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(MoviesFixture, RewriteQueryTranslatesPredicatesAndEntities) {
  OnTheFlyAligner otf(&cand_, &ref_, &world_.links);

  // Pick a reference fact whose subject has a sameAs link.
  const TermId directed_by_id = ref_.LookupTerm(DirectedBy());
  auto facts = ref_.Select(queries::FactsOfPredicate(directed_by_id, 50));
  ASSERT_TRUE(facts.ok());
  CrossKbTranslator to_cand(&world_.links, &ref_, &cand_);
  TermId subject_id = kNullTermId;
  for (const auto& row : facts->rows) {
    Term s = ref_.DecodeTerm(row[0]).value();
    if (to_cand.Translate(s).ok()) {
      subject_id = row[0];
      break;
    }
  }
  ASSERT_NE(subject_id, kNullTermId);

  SelectQuery q;
  const VarId who = q.NewVar("who");
  q.Where(NodeRef::Constant(subject_id), NodeRef::Constant(directed_by_id),
          NodeRef::Variable(who));
  q.Select({who});

  auto rewritten = otf.RewriteQuery(q);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  // The rewritten query must reference the candidate KB's relation.
  const PatternClause& clause = rewritten->clauses()[0];
  EXPECT_FALSE(clause.predicate.is_var());
  EXPECT_EQ(cand_.DecodeTerm(clause.predicate.term()).value(), Director());

  // And it must execute on the candidate endpoint.
  auto rows = cand_.Select(*rewritten);
  ASSERT_TRUE(rows.ok());
}

TEST_F(MoviesFixture, RewriteQueryFailsWithoutAlignment) {
  OnTheFlyAligner otf(&cand_, &ref_, &world_.links);
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x),
          NodeRef::Constant(ref_.EncodeTerm(
              Term::Iri("http://kb2.sofya.org/ontology/unalignable"))),
          NodeRef::Variable(y));
  EXPECT_TRUE(otf.RewriteQuery(q).status().IsNotFound());
}

TEST_F(MoviesFixture, MinSupportGateRejectsThinRules) {
  AlignerOptions options;
  options.min_support = 1000000;  // Impossible support.
  RelationAligner aligner(&cand_, &ref_, &world_.links, options);
  auto result = aligner.Align(DirectedBy());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->AcceptedSubsumptions().empty());
}

}  // namespace
}  // namespace sofya
