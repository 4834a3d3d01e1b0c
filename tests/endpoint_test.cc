#include "endpoint/endpoint.h"

#include <gtest/gtest.h>

#include "endpoint/local_endpoint.h"
#include "endpoint/paged_select.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/query_forms.h"
#include "endpoint/throttled_endpoint.h"
#include "rdf/knowledge_base.h"

namespace sofya {
namespace {

/// Fixture: one KB with 10 facts of predicate p plus a label.
class EndpointTest : public ::testing::Test {
 protected:
  EndpointTest() : kb_("testkb", "http://t.org/") {
    for (int i = 0; i < 10; ++i) {
      kb_.AddFact("s" + std::to_string(i), "p", "o" + std::to_string(i % 3));
    }
    kb_.AddLiteralFact("s0", "label", "zero");
    p_ = kb_.RelationId("ontology/p");
    // Relations are minted under base + local in AddFact; RelationId uses
    // base + local, so look the predicate up directly.
    p_ = kb_.dict().LookupIri("http://t.org/p");
  }

  KnowledgeBase kb_;
  TermId p_ = kNullTermId;
};

TEST_F(EndpointTest, SelectCountsQueriesAndRows) {
  LocalEndpoint ep(&kb_);
  auto result = ep.Select(queries::FactsOfPredicate(p_));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(ep.stats().queries, 1u);
  EXPECT_EQ(ep.stats().rows_returned, 10u);
  // Each row ships <http://t.org/sN> and <http://t.org/oK>: 17 bytes of
  // N-Triples plus one separator per cell.
  EXPECT_EQ(ep.stats().bytes_estimated, 10u * 2u * (17u + 1u));
}

TEST_F(EndpointTest, ResetStatsClears) {
  LocalEndpoint ep(&kb_);
  ASSERT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  ep.ResetStats();
  EXPECT_EQ(ep.stats().queries, 0u);
  EXPECT_EQ(ep.stats().rows_returned, 0u);
}

TEST_F(EndpointTest, AskReturnsExistence) {
  LocalEndpoint ep(&kb_);
  auto yes = ep.Ask(queries::FactsOfPredicate(p_));
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = ep.Ask(queries::FactsOfPredicate(
      ep.EncodeTerm(Term::Iri("http://t.org/absent"))));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST_F(EndpointTest, EncodeLookupDecode) {
  LocalEndpoint ep(&kb_);
  const Term t = Term::Iri("http://elsewhere/x");
  EXPECT_EQ(ep.LookupTerm(t), kNullTermId);
  const TermId id = ep.EncodeTerm(t);
  EXPECT_NE(id, kNullTermId);
  EXPECT_EQ(ep.LookupTerm(t), id);
  auto decoded = ep.DecodeTerm(id);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, t);
  EXPECT_TRUE(ep.DecodeTerm(999999).status().IsNotFound());
}

TEST_F(EndpointTest, NameAndBaseIri) {
  LocalEndpoint ep(&kb_);
  EXPECT_EQ(ep.name(), "testkb");
  EXPECT_EQ(ep.base_iri(), "http://t.org/");
}

TEST_F(EndpointTest, ThrottledBudgetExhausts) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.query_budget = 2;
  options.failure_rate = 0.0;
  ThrottledEndpoint ep(&inner, options);

  EXPECT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  EXPECT_EQ(ep.remaining_budget(), 1u);
  EXPECT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  auto denied = ep.Select(queries::FactsOfPredicate(p_));
  EXPECT_TRUE(denied.status().IsResourceExhausted());
  EXPECT_EQ(ep.remaining_budget(), 0u);
}

TEST_F(EndpointTest, ThrottledRowCapTruncates) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.max_rows_per_query = 4;
  ThrottledEndpoint ep(&inner, options);
  auto result = ep.Select(queries::FactsOfPredicate(p_));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 4u);
}

TEST_F(EndpointTest, ThrottledRowCapRespectsTighterClientLimit) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.max_rows_per_query = 4;
  ThrottledEndpoint ep(&inner, options);
  auto result = ep.Select(queries::FactsOfPredicate(p_, /*limit=*/2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(EndpointTest, ThrottledLatencyAccumulates) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.base_latency_ms = 100.0;
  options.per_row_latency_ms = 1.0;
  options.jitter_ms = 0.0;
  ThrottledEndpoint ep(&inner, options);
  ASSERT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  EXPECT_DOUBLE_EQ(ep.stats().simulated_latency_ms, 110.0);
}

TEST_F(EndpointTest, FailureInjectionIsSeededAndCharged) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.failure_rate = 1.0;
  ThrottledEndpoint ep(&inner, options);
  auto result = ep.Select(queries::FactsOfPredicate(p_));
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(ep.stats().failures_injected, 1u);
  EXPECT_EQ(ep.queries_issued(), 1u);  // Budget charged on failure.
}

TEST_F(EndpointTest, FailureInjectionDeterministicUnderSeed) {
  auto run = [&](uint64_t seed) {
    LocalEndpoint inner(&kb_);
    ThrottleOptions options;
    options.failure_rate = 0.5;
    options.seed = seed;
    ThrottledEndpoint ep(&inner, options);
    std::vector<bool> outcomes;
    for (int i = 0; i < 20; ++i) {
      outcomes.push_back(ep.Select(queries::FactsOfPredicate(p_)).ok());
    }
    return outcomes;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST_F(EndpointTest, RetryingEndpointAbsorbsTransientFailures) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.failure_rate = 0.5;
  options.seed = 11;
  ThrottledEndpoint flaky(&inner, options);
  RetryOptions retry;
  retry.max_retries = 20;
  retry.initial_backoff_ms = 0.0;  // Deterministic injector; don't wait.
  RetryingEndpoint ep(&flaky, retry);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  }
  EXPECT_GT(ep.retries_performed(), 0u);
}

TEST_F(EndpointTest, RetryingEndpointDoesNotRetryNonTransient) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.query_budget = 1;
  ThrottledEndpoint limited(&inner, options);
  RetryingEndpoint ep(&limited);
  ASSERT_TRUE(ep.Select(queries::FactsOfPredicate(p_)).ok());
  auto denied = ep.Select(queries::FactsOfPredicate(p_));
  EXPECT_TRUE(denied.status().IsResourceExhausted());
  EXPECT_EQ(ep.retries_performed(), 0u);  // Budget errors never retried.
}

TEST_F(EndpointTest, RetryingEndpointGivesUpAfterMaxRetries) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.failure_rate = 1.0;
  ThrottledEndpoint dead(&inner, options);
  RetryOptions retry;
  retry.max_retries = 2;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&dead, retry);
  auto result = ep.Select(queries::FactsOfPredicate(p_));
  EXPECT_TRUE(result.status().IsUnavailable());
  EXPECT_EQ(ep.retries_performed(), 2u);
}

TEST_F(EndpointTest, PagedSelectMergesAllPages) {
  LocalEndpoint ep(&kb_);
  PagedSelectOptions options;
  options.page_size = 3;
  auto merged = PagedSelect(&ep, queries::FactsOfPredicate(p_), options);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows.size(), 10u);
  // 10 rows at page size 3 => 4 requests (last one short).
  EXPECT_EQ(ep.stats().queries, 4u);
}

TEST_F(EndpointTest, PagedSelectHonorsMaxRowsAndQueryLimit) {
  LocalEndpoint ep(&kb_);
  PagedSelectOptions options;
  options.page_size = 3;
  options.max_rows = 5;
  auto merged = PagedSelect(&ep, queries::FactsOfPredicate(p_), options);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows.size(), 5u);

  auto limited =
      PagedSelect(&ep, queries::FactsOfPredicate(p_, /*limit=*/4), options);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->rows.size(), 4u);
}

TEST_F(EndpointTest, PagedSelectRetriesTransientFailures) {
  LocalEndpoint inner(&kb_);
  ThrottleOptions options;
  options.failure_rate = 0.45;
  options.seed = 3;
  ThrottledEndpoint flaky(&inner, options);
  PagedSelectOptions page_options;
  page_options.page_size = 3;
  page_options.retry.max_retries = 10;
  page_options.retry.initial_backoff_ms = 0.0;  // Keep the test instant.
  auto merged = PagedSelect(&flaky, queries::FactsOfPredicate(p_),
                            page_options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->rows.size(), 10u);
}

TEST_F(EndpointTest, PagedSelectRejectsZeroPageSize) {
  LocalEndpoint ep(&kb_);
  PagedSelectOptions options;
  options.page_size = 0;
  EXPECT_TRUE(PagedSelect(&ep, queries::FactsOfPredicate(p_), options)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EndpointTest, QueryFormsShapes) {
  LocalEndpoint ep(&kb_);
  const TermId s0 = ep.LookupTerm(Term::Iri("http://t.org/s0"));
  ASSERT_NE(s0, kNullTermId);

  auto objects = ep.Select(queries::ObjectsOf(s0, p_));
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(objects->rows.size(), 1u);

  auto facts = ep.Select(queries::FactsOfSubject(s0));
  ASSERT_TRUE(facts.ok());
  EXPECT_EQ(facts->rows.size(), 2u);  // p fact + label.

  const TermId o0 = ep.LookupTerm(Term::Iri("http://t.org/o0"));
  auto predicates = ep.Select(queries::PredicatesBetween(s0, o0));
  ASSERT_TRUE(predicates.ok());
  EXPECT_EQ(predicates->rows.size(), 1u);
  EXPECT_EQ(predicates->rows[0][0], p_);

  auto distinct_subjects = ep.Select(queries::SubjectsOfPredicate(p_));
  ASSERT_TRUE(distinct_subjects.ok());
  EXPECT_EQ(distinct_subjects->rows.size(), 10u);
}

}  // namespace
}  // namespace sofya
