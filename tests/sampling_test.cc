#include "sampling/simple_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "endpoint/endpoint.h"
#include "endpoint/local_endpoint.h"
#include "mining/confidence.h"
#include "sampling/unbiased_sampler.h"
#include "synth/presets.h"
#include "synth/world_generator.h"

namespace sofya {
namespace {

/// Hand-built micro world with exactly known evidence:
///   K' (cand):  a1 r' x1 ; a1 r' q1(unlinked) ; b1 r' y1 ; c1 r' z1
///   K  (ref):   a2 r  x2 ; b2 r  w2           ; (c2 has no r facts)
///   links: a1≡a2, b1≡b2, c1≡c2, x1≡x2, y1≡y2, z1≡z2  (q1 unlinked)
/// Expected SSE evidence vs (r' => r):
///   (a2,x2) confirmed, a has r           -> support
///   (b2,y2) unconfirmed, b has r (w2)    -> pca denominator
///   (c2,z2) unconfirmed, c has no r      -> cwa-only
///   => cwa = 1/3, pca = 1/2.
class MicroWorld {
 public:
  MicroWorld()
      : cand_kb_("cand", "http://c.org/"), ref_kb_("ref", "http://r.org/") {
    cand_kb_.AddFact("a1", "rp", "x1");
    cand_kb_.AddFact("a1", "rp", "q1");
    cand_kb_.AddFact("b1", "rp", "y1");
    cand_kb_.AddFact("c1", "rp", "z1");
    ref_kb_.AddFact("a2", "r", "x2");
    ref_kb_.AddFact("b2", "r", "w2");
    for (const auto& [l, r] : std::initializer_list<
             std::pair<const char*, const char*>>{{"a1", "a2"},
                                                  {"b1", "b2"},
                                                  {"c1", "c2"},
                                                  {"x1", "x2"},
                                                  {"y1", "y2"},
                                                  {"z1", "z2"}}) {
      links_.AddLink(Term::Iri(std::string("http://c.org/") + l),
                     Term::Iri(std::string("http://r.org/") + r));
    }
  }

  KnowledgeBase cand_kb_, ref_kb_;
  SameAsIndex links_;
};

TEST(SimpleSamplerTest, MicroWorldEvidenceMatchesHandComputation) {
  MicroWorld world;
  LocalEndpoint cand(&world.cand_kb_);
  LocalEndpoint ref(&world.ref_kb_);
  CrossKbTranslator to_ref(&world.links_, &cand, &ref);
  SamplerOptions options;
  options.sample_size = 10;
  SimpleSampler sampler(&cand, &ref, &to_ref, options);

  auto evidence = sampler.CollectEvidence(Term::Iri("http://c.org/rp"),
                                          Term::Iri("http://r.org/r"));
  ASSERT_TRUE(evidence.ok());
  EXPECT_EQ(evidence->total_pairs(), 3u);  // q1 ignored (no link).
  EXPECT_EQ(evidence->support(), 1u);
  EXPECT_EQ(evidence->pca_body_size(), 2u);
  EXPECT_DOUBLE_EQ(CwaConfidence(*evidence), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(PcaConfidence(*evidence), 0.5);
}

// A subject or object whose sameAs image K's dictionary lacks is sampled
// like any other: it gets no probe and never confirms, but it counts as a
// pair of its own, once per image term (two subjects linked to one absent
// image are one pair).
//   K' (cand):  a1 rp x1 ; a1 rp m1 ; d1 rp x1 ; e1 rp x1 ; f1 rp x1
//   K  (ref):   a2 r x2                (m2, d2, n2 are not in K)
//   links: a1≡a2, x1≡x2, m1≡m2, d1≡d2, e1≡n2, f1≡n2
//   pairs: (a2,x2) confirmed ; (a2,m2) a has r ; (d2,x2) ; (n2,x2)
//   => 4 pairs, support 1, pca body 2.
TEST(SimpleSamplerTest, AbsentImagesStayDistinctPairs) {
  KnowledgeBase cand_kb("cand", "http://c.org/");
  KnowledgeBase ref_kb("ref", "http://r.org/");
  for (const char* s : {"a1", "d1", "e1", "f1"}) cand_kb.AddFact(s, "rp", "x1");
  cand_kb.AddFact("a1", "rp", "m1");
  ref_kb.AddFact("a2", "r", "x2");
  SameAsIndex links;
  for (const auto& [l, r] : std::initializer_list<
           std::pair<const char*, const char*>>{{"a1", "a2"},
                                                {"x1", "x2"},
                                                {"m1", "m2"},
                                                {"d1", "d2"},
                                                {"e1", "n2"},
                                                {"f1", "n2"}}) {
    links.AddLink(Term::Iri(std::string("http://c.org/") + l),
                  Term::Iri(std::string("http://r.org/") + r));
  }
  LocalEndpoint cand(&cand_kb);
  LocalEndpoint ref(&ref_kb);
  CrossKbTranslator to_ref(&links, &cand, &ref);
  SimpleSampler sampler(&cand, &ref, &to_ref);

  auto sample = sampler.DrawSample(Term::Iri("http://c.org/rp"));
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ(sample->subjects.size(), 4u);
  const uint64_t ref_queries = ref.stats().queries;
  auto evidence = sampler.ScoreAgainst(*sample, Term::Iri("http://r.org/r"));
  ASSERT_TRUE(evidence.ok());
  EXPECT_EQ(ref.stats().queries - ref_queries, 1u);  // a2's probe only.
  EXPECT_EQ(evidence->total_pairs(), 4u);
  EXPECT_EQ(evidence->support(), 1u);
  EXPECT_EQ(evidence->pca_body_size(), 2u);
  EXPECT_DOUBLE_EQ(CwaConfidence(*evidence), 0.25);

  // Each absent image is one subject of its own: d2 and n2 (e1 and f1 both
  // map to n2), neither with r-facts nor confirmed pairs.
  std::set<TermId> subjects;
  size_t without_r = 0;
  for (const PairEvidence& pair : evidence->observations()) {
    subjects.insert(pair.x);
    if (!pair.x_has_r) {
      ++without_r;
      EXPECT_FALSE(pair.confirmed);
    }
  }
  EXPECT_EQ(subjects.size(), 3u);  // a2, d2, n2.
  EXPECT_EQ(without_r, 2u);
  EXPECT_EQ(ref_kb.dict().Lookup(Term::Iri("http://r.org/n2")), kNullTermId);
}

TEST(SimpleSamplerTest, SampleSizeLimitsSubjects) {
  MicroWorld world;
  LocalEndpoint cand(&world.cand_kb_);
  LocalEndpoint ref(&world.ref_kb_);
  CrossKbTranslator to_ref(&world.links_, &cand, &ref);
  SamplerOptions options;
  options.sample_size = 2;
  SimpleSampler sampler(&cand, &ref, &to_ref, options);
  auto sample = sampler.DrawSample(Term::Iri("http://c.org/rp"));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->subjects.size(), 2u);
  EXPECT_EQ(sample->kind, RelationKind::kEntityEntity);
}

TEST(SimpleSamplerTest, UnknownRelationYieldsEmptySample) {
  MicroWorld world;
  LocalEndpoint cand(&world.cand_kb_);
  LocalEndpoint ref(&world.ref_kb_);
  CrossKbTranslator to_ref(&world.links_, &cand, &ref);
  SimpleSampler sampler(&cand, &ref, &to_ref);
  auto sample = sampler.DrawSample(Term::Iri("http://c.org/absent"));
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->kind, RelationKind::kEmpty);
  EXPECT_TRUE(sample->subjects.empty());

  auto evidence = sampler.ScoreAgainst(*sample, Term::Iri("http://r.org/r"));
  ASSERT_TRUE(evidence.ok());
  EXPECT_TRUE(evidence->empty());
}

TEST(SimpleSamplerTest, ProbeKindDetectsLiteralRelations) {
  KnowledgeBase kb("k", "http://k.org/");
  kb.AddLiteralFact("s1", "label", "one");
  kb.AddLiteralFact("s2", "label", "two");
  kb.AddFact("s1", "rel", "s2");
  LocalEndpoint ep(&kb);
  SameAsIndex links;
  CrossKbTranslator translator(&links, &ep, &ep);
  SimpleSampler sampler(&ep, &ep, &translator);
  EXPECT_EQ(sampler.ProbeKind(Term::Iri("http://k.org/label")).value(),
            RelationKind::kEntityLiteral);
  EXPECT_EQ(sampler.ProbeKind(Term::Iri("http://k.org/rel")).value(),
            RelationKind::kEntityEntity);
  EXPECT_EQ(sampler.ProbeKind(Term::Iri("http://k.org/none")).value(),
            RelationKind::kEmpty);
}

TEST(SimpleSamplerTest, LiteralRelationScoredThroughMatcher) {
  KnowledgeBase cand("cand", "http://c.org/");
  KnowledgeBase ref("ref", "http://r.org/");
  cand.AddLiteralFact("a1", "label", "Frank Sinatra");
  cand.AddLiteralFact("b1", "label", "Dean Martin");
  ref.AddLiteralFact("a2", "name", "frank sinatra");  // Case-noised twin.
  ref.AddLiteralFact("b2", "name", "Someone Else");
  SameAsIndex links;
  links.AddLink(Term::Iri("http://c.org/a1"), Term::Iri("http://r.org/a2"));
  links.AddLink(Term::Iri("http://c.org/b1"), Term::Iri("http://r.org/b2"));

  LocalEndpoint cand_ep(&cand);
  LocalEndpoint ref_ep(&ref);
  CrossKbTranslator to_ref(&links, &cand_ep, &ref_ep);
  SimpleSampler sampler(&cand_ep, &ref_ep, &to_ref);
  auto evidence = sampler.CollectEvidence(Term::Iri("http://c.org/label"),
                                          Term::Iri("http://r.org/name"));
  ASSERT_TRUE(evidence.ok());
  EXPECT_EQ(evidence->total_pairs(), 2u);
  EXPECT_EQ(evidence->support(), 1u);       // Only Sinatra matches.
  EXPECT_EQ(evidence->pca_body_size(), 2u); // Both subjects have name facts.
}

TEST(SimpleSamplerTest, DeterministicUnderSeed) {
  auto world = std::move(GenerateWorld(MoviesWorldSpec())).value();
  LocalEndpoint cand(world.kb1.get());
  LocalEndpoint ref(world.kb2.get());
  CrossKbTranslator to_ref(&world.links, &cand, &ref);
  SamplerOptions options;
  options.seed = 99;
  const Term r_sub = Term::Iri("http://kb1.sofya.org/ontology/hasDirector");

  SimpleSampler s1(&cand, &ref, &to_ref, options);
  SimpleSampler s2(&cand, &ref, &to_ref, options);
  auto a = s1.DrawSample(r_sub);
  auto b = s2.DrawSample(r_sub);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->subjects.size(), b->subjects.size());
  for (size_t i = 0; i < a->subjects.size(); ++i) {
    EXPECT_EQ(a->subjects[i].subject_candidate,
              b->subjects[i].subject_candidate);
  }
}

TEST(SimpleSamplerTest, DifferentRelationsDrawDifferentSubjects) {
  auto world = std::move(GenerateWorld(MoviesWorldSpec())).value();
  LocalEndpoint cand(world.kb1.get());
  LocalEndpoint ref(world.kb2.get());
  CrossKbTranslator to_ref(&world.links, &cand, &ref);
  SimpleSampler sampler(&cand, &ref, &to_ref);
  auto a = sampler.DrawSample(Term::Iri("http://kb1.sofya.org/ontology/hasDirector"));
  auto b = sampler.DrawSample(Term::Iri("http://kb1.sofya.org/ontology/hasProducer"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Shuffle seed is relation-keyed: subject sets should not be identical.
  ASSERT_FALSE(a->subjects.empty());
  ASSERT_FALSE(b->subjects.empty());
  bool any_difference = a->subjects.size() != b->subjects.size();
  for (size_t i = 0; !any_difference && i < a->subjects.size(); ++i) {
    any_difference = !(a->subjects[i].subject_candidate ==
                       b->subjects[i].subject_candidate);
  }
  EXPECT_TRUE(any_difference);
}

class UbsFixture : public ::testing::Test {
 protected:
  UbsFixture()
      : world_(std::move(GenerateWorld(MoviesWorldSpec())).value()),
        cand_(world_.kb1.get()),
        ref_(world_.kb2.get()),
        to_ref_(&world_.links, &cand_, &ref_),
        to_cand_(&world_.links, &ref_, &cand_) {}

  Term Director() const {
    return Term::Iri("http://kb1.sofya.org/ontology/hasDirector");
  }
  Term Producer() const {
    return Term::Iri("http://kb1.sofya.org/ontology/hasProducer");
  }
  Term DirectedBy() const {
    return Term::Iri("http://kb2.sofya.org/ontology/directedBy");
  }

  SynthWorld world_;
  LocalEndpoint cand_;
  LocalEndpoint ref_;
  CrossKbTranslator to_ref_;
  CrossKbTranslator to_cand_;
};

TEST_F(UbsFixture, ProbeFindsContradictionsAgainstTrapOnly) {
  UnbiasedSampler ubs(&cand_, &ref_, &to_ref_, &to_cand_);
  auto report = ubs.Probe(DirectedBy(), {Director(), Producer()});
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->SubsumptionHits(Producer()), 2u);
  EXPECT_EQ(report->SubsumptionHits(Director()), 0u);
  EXPECT_GT(report->rows_examined, 0u);
  EXPECT_GE(report->pairs_probed, 2u);
}

TEST_F(UbsFixture, FullyDisabledProbesCostNothing) {
  SamplerOptions options;
  UbsOptions ubs_options;
  ubs_options.enable_equivalence_filter = false;
  ubs_options.enable_subsumption_filter = false;
  UnbiasedSampler ubs(&cand_, &ref_, &to_ref_, &to_cand_, options,
                      ubs_options);
  const uint64_t before = cand_.stats().queries;
  auto report = ubs.Probe(DirectedBy(), {Director(), Producer()});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_examined, 0u);
  EXPECT_EQ(cand_.stats().queries, before);
}

TEST_F(UbsFixture, SubsumptionFilterAblationKeepsEquivalenceSide) {
  SamplerOptions options;
  UbsOptions ubs_options;
  ubs_options.enable_subsumption_filter = false;
  UnbiasedSampler ubs(&cand_, &ref_, &to_ref_, &to_cand_, options,
                      ubs_options);
  auto report = ubs.Probe(DirectedBy(), {Director(), Producer()});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->SubsumptionHits(Producer()), 0u);
}

TEST_F(UbsFixture, SingleCandidateProducesNoPairProbes) {
  UnbiasedSampler ubs(&cand_, &ref_, &to_ref_, &to_cand_);
  auto report = ubs.Probe(DirectedBy(), {Producer()});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->pairs_probed, 0u);
}

TEST_F(UbsFixture, ReferenceSiblingProbeCatchesReverseTrap) {
  // Mirrored direction: head = kb1 hasProducer, candidate = kb2 directedBy.
  // directedBy => hasProducer is wrong; the reference siblings of
  // directedBy in kb1 include hasDirector, whose disagreements with
  // hasProducer expose it.
  UnbiasedSampler ubs(&ref_, &cand_, &to_cand_, &to_ref_);
  UbsReport report;
  ASSERT_TRUE(ubs.ProbeReferenceSiblings(Producer(), DirectedBy(),
                                         {Director()}, &report)
                  .ok());
  EXPECT_GT(report.SubsumptionHits(DirectedBy()), 0u);
}

/// Records each distinct term LookupTerm is asked for, in the order of the
/// first request.
class LookupRecorder : public EndpointDecorator {
 public:
  explicit LookupRecorder(Endpoint* inner) : EndpointDecorator(inner) {}

  TermId LookupTerm(const Term& term) const override {
    const std::string text = term.ToNTriples();
    if (std::find(asked_.begin(), asked_.end(), text) == asked_.end()) {
      asked_.push_back(text);
    }
    return inner_->LookupTerm(term);
  }

  const std::vector<std::string>& asked() const { return asked_; }

 private:
  mutable std::vector<std::string> asked_;
};

/// Literal-valued micro world for UBS: every disagreement row has a literal
/// y2, so the literal branches (object lists matched by similarity) decide.
///   K' (cand): name1 / name2
///     a1 "Alpha" / "Beta" ; b1 "Gamma" / "Delta" ;
///     c1 "Eps", "Zeta" / "zeta" ; e1 "Eta" / "Theta" ; d1 "X" / "Y"
///   K  (ref):  name
///     a2 "alpha", "beta" ; b2 "Gamma" ; c2 "eps", "zeta" ; e2 "Theta"
///   links: a1≡a2, b1≡b2, c1≡c2, e1≡e2  (d1 unlinked)
class LiteralUbsWorld : public ::testing::Test {
 protected:
  LiteralUbsWorld()
      : cand_kb_("cand", "http://c.org/"),
        ref_kb_("ref", "http://r.org/"),
        cand_local_(&cand_kb_),
        ref_local_(&ref_kb_),
        cand_(&cand_local_),
        ref_(&ref_local_),
        to_ref_(&links_, &cand_, &ref_),
        to_cand_(&links_, &ref_, &cand_) {
    for (const auto& [s, one, two] :
         std::initializer_list<std::tuple<const char*, const char*,
                                          const char*>>{
             {"a1", "Alpha", "Beta"},
             {"b1", "Gamma", "Delta"},
             {"c1", "Eps", "zeta"},
             {"e1", "Eta", "Theta"},
             {"d1", "X", "Y"}}) {
      cand_kb_.AddLiteralFact(s, "name1", one);
      cand_kb_.AddLiteralFact(s, "name2", two);
    }
    cand_kb_.AddLiteralFact("c1", "name1", "Zeta");
    for (const auto& [s, name] :
         std::initializer_list<std::pair<const char*, const char*>>{
             {"a2", "alpha"},
             {"a2", "beta"},
             {"b2", "Gamma"},
             {"c2", "eps"},
             {"c2", "zeta"},
             {"e2", "Theta"}}) {
      ref_kb_.AddLiteralFact(s, "name", name);
    }
    for (const char* s : {"a", "b", "c", "e"}) {
      links_.AddLink(Term::Iri(std::string("http://c.org/") + s + "1"),
                     Term::Iri(std::string("http://r.org/") + s + "2"));
    }
  }

  static Term Cand(const char* local) {
    return Term::Iri(std::string("http://c.org/") + local);
  }
  static Term Ref(const char* local) {
    return Term::Iri(std::string("http://r.org/") + local);
  }

  KnowledgeBase cand_kb_, ref_kb_;
  SameAsIndex links_;
  LocalEndpoint cand_local_, ref_local_;
  LookupRecorder cand_, ref_;
  CrossKbTranslator to_ref_, to_cand_;
};

TEST_F(LiteralUbsWorld, ProbeMatchesLiteralObjects) {
  // (name1, name2) rows: a's "Beta" is in K with "Alpha" -> equivalence
  // counter-example for name1; b's "Delta" is not, "Gamma" is -> subsumption
  // counter-example for name2; c's "zeta" rows are dropped, because c1's
  // name1 "Zeta" matches it; e's "Eta" is not in K. (name2, name1) rows:
  // a -> equivalence for name2; c ("zeta", "Eps") -> equivalence for name2,
  // "eps" matching "Eps"; e ("Theta", "Eta") -> subsumption for name1; b's
  // "Delta" is not in K. d has no sameAs image.
  UnbiasedSampler ubs(&cand_, &ref_, &to_ref_, &to_cand_);
  auto report = ubs.Probe(Ref("name"), {Cand("name1"), Cand("name2")});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->pairs_probed, 2u);
  EXPECT_EQ(report->rows_examined, 12u);
  EXPECT_EQ(report->EquivalenceHits(Cand("name1")), 1u);
  EXPECT_EQ(report->EquivalenceHits(Cand("name2")), 2u);
  EXPECT_EQ(report->SubsumptionHits(Cand("name1")), 1u);
  EXPECT_EQ(report->SubsumptionHits(Cand("name2")), 1u);
  EXPECT_EQ(cand_local_.stats().queries, 12u);
  EXPECT_EQ(ref_local_.stats().queries, 4u);
  EXPECT_EQ(cand_.asked(),
            (std::vector<std::string>{"<http://c.org/name1>",
                                      "<http://c.org/name2>",
                                      "<http://c.org/a1>", "<http://c.org/b1>",
                                      "<http://c.org/c1>", "<http://c.org/e1>",
                                      "<http://c.org/d1>"}));
  EXPECT_EQ(ref_.asked(),
            (std::vector<std::string>{"<http://r.org/a2>",
                                      "<http://r.org/name>",
                                      "<http://r.org/b2>",
                                      "<http://r.org/e2>",
                                      "<http://r.org/c2>"}));
}

TEST_F(LiteralUbsWorld, ReferenceSiblingsMatchLiteralObjects) {
  // Mirrored: the head name1 and its sibling name2 live in K'; the
  // candidate is K's name. a: K has "Beta" -> subsumption counter-example;
  // e: K has "Theta" but lacks "Eta" -> one of each; b: K lacks "Delta"
  // and has "Gamma" -> none; c's rows are dropped ("Zeta" matches "zeta");
  // d has no sameAs image.
  UnbiasedSampler ubs(&ref_, &cand_, &to_cand_, &to_ref_);
  UbsReport report;
  ASSERT_TRUE(ubs.ProbeReferenceSiblings(Cand("name1"), Ref("name"),
                                         {Cand("name2")}, &report)
                  .ok());
  EXPECT_EQ(report.pairs_probed, 1u);
  EXPECT_EQ(report.rows_examined, 6u);
  EXPECT_EQ(report.SubsumptionHits(Ref("name")), 2u);
  EXPECT_EQ(report.EquivalenceHits(Ref("name")), 1u);
  EXPECT_EQ(cand_local_.stats().queries, 6u);
  EXPECT_EQ(ref_local_.stats().queries, 3u);
  EXPECT_EQ(cand_.asked(),
            (std::vector<std::string>{"<http://c.org/name1>",
                                      "<http://c.org/name2>",
                                      "<http://c.org/a1>", "<http://c.org/b1>",
                                      "<http://c.org/c1>", "<http://c.org/e1>",
                                      "<http://c.org/d1>"}));
  EXPECT_EQ(ref_.asked(),
            (std::vector<std::string>{"<http://r.org/a2>",
                                      "<http://r.org/name>",
                                      "<http://r.org/b2>",
                                      "<http://r.org/e2>"}));
}

}  // namespace
}  // namespace sofya
