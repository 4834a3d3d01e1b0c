#include "mining/confidence.h"

#include <gtest/gtest.h>

#include <tuple>

#include "mining/evidence.h"
#include "mining/rule.h"
#include "rdf/dictionary.h"
#include "util/random.h"

namespace sofya {
namespace {

/// Pairs hold dictionary ids; one dictionary names every test term.
TermId Id(const Term& term) {
  static Dictionary* dict = new Dictionary();
  return dict->Intern(term);
}

PairEvidence Make(const std::string& x, const std::string& y, bool confirmed,
                  bool x_has_r) {
  PairEvidence e;
  e.x = Id(Term::Iri(x));
  e.y = Id(Term::Iri(y));
  e.confirmed = confirmed;
  e.x_has_r = x_has_r;
  return e;
}

TEST(EvidenceSetTest, CountersTrackObservations) {
  EvidenceSet ev;
  EXPECT_TRUE(ev.empty());
  EXPECT_TRUE(ev.Add(Make("x1", "y1", true, true)));
  EXPECT_TRUE(ev.Add(Make("x1", "y2", false, true)));
  EXPECT_TRUE(ev.Add(Make("x2", "y1", false, false)));
  EXPECT_EQ(ev.total_pairs(), 3u);
  EXPECT_EQ(ev.support(), 1u);
  EXPECT_EQ(ev.pca_body_size(), 2u);
}

TEST(EvidenceSetTest, DuplicatePairsIgnored) {
  EvidenceSet ev;
  EXPECT_TRUE(ev.Add(Make("x", "y", true, true)));
  EXPECT_FALSE(ev.Add(Make("x", "y", false, false)));  // First wins.
  EXPECT_EQ(ev.total_pairs(), 1u);
  EXPECT_EQ(ev.support(), 1u);
}

TEST(EvidenceSetTest, PairIdentityDistinguishesLiteralsFromIris) {
  EvidenceSet ev;
  PairEvidence a = Make("x", "y", false, false);
  PairEvidence b = a;
  b.y = Id(Term::Literal("y"));
  EXPECT_TRUE(ev.Add(a));
  EXPECT_TRUE(ev.Add(b));
  EXPECT_EQ(ev.total_pairs(), 2u);
}

TEST(ConfidenceTest, CwaFormulaEq1) {
  // 3 confirmed of 5 pairs => cwa = 0.6.
  EvidenceSet ev;
  ev.Add(Make("a", "1", true, true));
  ev.Add(Make("a", "2", true, true));
  ev.Add(Make("b", "1", true, true));
  ev.Add(Make("c", "1", false, false));
  ev.Add(Make("d", "1", false, false));
  EXPECT_DOUBLE_EQ(CwaConfidence(ev), 0.6);
}

TEST(ConfidenceTest, PcaFormulaEq2) {
  // Same evidence: PCA denominator only counts subjects with r-facts
  // (3 confirmed + 1 unconfirmed-but-known = 4) => pca = 3/4.
  EvidenceSet ev;
  ev.Add(Make("a", "1", true, true));
  ev.Add(Make("a", "2", true, true));
  ev.Add(Make("b", "1", true, true));
  ev.Add(Make("b", "2", false, true));  // b has r-facts; this pair missing.
  ev.Add(Make("c", "1", false, false));  // c unknown to r: not counted.
  EXPECT_DOUBLE_EQ(PcaConfidence(ev), 0.75);
  EXPECT_DOUBLE_EQ(CwaConfidence(ev), 0.6);
}

TEST(ConfidenceTest, EmptyEvidenceScoresZero) {
  EvidenceSet ev;
  EXPECT_DOUBLE_EQ(CwaConfidence(ev), 0.0);
  EXPECT_DOUBLE_EQ(PcaConfidence(ev), 0.0);
}

TEST(ConfidenceTest, PcaZeroWhenNoSubjectKnown) {
  EvidenceSet ev;
  ev.Add(Make("a", "1", false, false));
  EXPECT_DOUBLE_EQ(PcaConfidence(ev), 0.0);
  EXPECT_DOUBLE_EQ(CwaConfidence(ev), 0.0);
}

TEST(ConfidenceTest, SelectorDispatches) {
  EvidenceSet ev;
  ev.Add(Make("a", "1", true, true));
  ev.Add(Make("b", "1", false, false));
  EXPECT_DOUBLE_EQ(Confidence(ConfidenceMeasure::kCwa, ev), 0.5);
  EXPECT_DOUBLE_EQ(Confidence(ConfidenceMeasure::kPca, ev), 1.0);
}

TEST(ConfidenceTest, MeasureNames) {
  EXPECT_STREQ(ConfidenceMeasureName(ConfidenceMeasure::kCwa), "cwaconf");
  EXPECT_STREQ(ConfidenceMeasureName(ConfidenceMeasure::kPca), "pcaconf");
}

TEST(RuleTest, PopulateRuleStatsCopiesEverything) {
  EvidenceSet ev;
  ev.Add(Make("a", "1", true, true));
  ev.Add(Make("b", "1", false, true));
  ev.Add(Make("c", "1", false, false));
  Rule rule;
  rule.body = Term::Iri("kb1:r1");
  rule.head = Term::Iri("kb2:r2");
  PopulateRuleStats(ev, &rule);
  EXPECT_EQ(rule.support, 1u);
  EXPECT_EQ(rule.body_size, 3u);
  EXPECT_EQ(rule.pca_body_size, 2u);
  EXPECT_DOUBLE_EQ(rule.cwa_conf, 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(rule.pca_conf, 0.5);
  const std::string text = rule.ToString();
  EXPECT_NE(text.find("kb1:r1"), std::string::npos);
  EXPECT_NE(text.find("=>"), std::string::npos);
}

TEST(RuleTest, AlignKindNames) {
  EXPECT_STREQ(AlignKindName(AlignKind::kNone), "none");
  EXPECT_STREQ(AlignKindName(AlignKind::kSubsumption), "subsumption");
  EXPECT_STREQ(AlignKindName(AlignKind::kEquivalence), "equivalence");
}

// Property: 0 <= cwa <= pca <= 1 for any evidence set (PCA's denominator is
// a subset of CWA's), and support <= pca_body <= pairs.
class ConfidenceInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConfidenceInvariants, OrderingHoldsOnRandomEvidence) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    EvidenceSet ev;
    const int n = 1 + static_cast<int>(rng.Below(30));
    for (int i = 0; i < n; ++i) {
      const bool x_has_r = rng.Bernoulli(0.6);
      // confirmed implies the subject has r-facts.
      const bool confirmed = x_has_r && rng.Bernoulli(0.5);
      ev.Add(Make("x" + std::to_string(rng.Below(8)),
                  "y" + std::to_string(i), confirmed, x_has_r));
    }
    const double cwa = CwaConfidence(ev);
    const double pca = PcaConfidence(ev);
    EXPECT_GE(cwa, 0.0);
    EXPECT_LE(cwa, pca + 1e-12);
    EXPECT_LE(pca, 1.0);
    EXPECT_LE(ev.support(), ev.pca_body_size());
    EXPECT_LE(ev.pca_body_size(), ev.total_pairs());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfidenceInvariants,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL));

}  // namespace
}  // namespace sofya
