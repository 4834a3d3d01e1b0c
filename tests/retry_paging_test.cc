// Hardening tests for the retry/paging layer: backoff schedules, retry
// storms, batch forwarding, and misbehaving servers that over-deliver rows.
// The misbehaving-server cases are regression tests: before the fixes,
// PagedSelect's cap arithmetic wrapped (runaway loop) and every retry loop
// re-issued with zero delay.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "endpoint/endpoint.h"
#include "endpoint/paged_select.h"
#include "endpoint/retry_policy.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/tracking_endpoint.h"
#include "rdf/dictionary.h"

namespace sofya {
namespace {

/// Scriptable endpoint: Select/Ask behavior comes from injected handlers;
/// batch entry points count their invocations so tests can assert whether
/// a decorator forwarded the batch or fell back to per-query calls.
class ScriptedEndpoint : public Endpoint {
 public:
  using SelectHandler =
      std::function<StatusOr<ResultSet>(const SelectQuery&)>;
  using AskHandler = std::function<StatusOr<bool>(const SelectQuery&)>;

  const std::string& name() const override { return name_; }
  const std::string& base_iri() const override { return base_iri_; }

  StatusOr<ResultSet> Select(const SelectQuery& query) override {
    ++select_calls_;
    return select_handler_(query);
  }

  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override {
    ++select_many_calls_;
    return Endpoint::SelectMany(queries);
  }

  StatusOr<bool> Ask(const SelectQuery& query) override {
    ++ask_calls_;
    return ask_handler_(query);
  }

  AskBatchResult AskMany(std::span<const SelectQuery> queries) override {
    ++ask_many_calls_;
    return Endpoint::AskMany(queries);
  }

  TermId EncodeTerm(const Term& term) override { return dict_.Intern(term); }
  TermId LookupTerm(const Term& term) const override {
    return dict_.Lookup(term);
  }
  StatusOr<Term> DecodeTerm(TermId id) const override {
    return dict_.TryDecode(id);
  }
  EndpointStats stats() const override { return EndpointStats(); }
  void ResetStats() override {}

  SelectHandler select_handler_ = [](const SelectQuery&) {
    return ResultSet();
  };
  AskHandler ask_handler_ = [](const SelectQuery&) { return true; };
  int select_calls_ = 0;
  int select_many_calls_ = 0;
  int ask_calls_ = 0;
  int ask_many_calls_ = 0;

 private:
  std::string name_ = "scripted";
  std::string base_iri_ = "http://scripted.test/";
  Dictionary dict_;
};

/// A one-clause query (contents are irrelevant to these tests).
SelectQuery ProbeQuery(TermId p = 1) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p),
              NodeRef::Variable(o));
  return query;
}

/// A result with `n` single-column rows.
ResultSet Rows(size_t n) {
  ResultSet result;
  result.var_names = {"s"};
  for (size_t i = 0; i < n; ++i) {
    result.rows.push_back({static_cast<TermId>(i + 1)});
  }
  return result;
}

// ----------------------------------------------------------- backoff math

TEST(RetryPolicyTest, BackoffGrowsExponentiallyAndCaps) {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 40.0;
  options.jitter = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 1, rng), 10.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 2, rng), 20.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 3, rng), 40.0);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 4, rng), 40.0);  // Capped.
}

TEST(RetryPolicyTest, JitterStaysWithinFractionAndIsSeeded) {
  RetryOptions options;
  options.initial_backoff_ms = 100.0;
  options.jitter = 0.5;
  Rng rng_a(7);
  Rng rng_b(7);
  Rng rng_c(8);
  const double a = RetryBackoffMs(options, 1, rng_a);
  EXPECT_GE(a, 50.0);
  EXPECT_LT(a, 150.0);
  EXPECT_DOUBLE_EQ(a, RetryBackoffMs(options, 1, rng_b));  // Same seed.
  EXPECT_NE(a, RetryBackoffMs(options, 1, rng_c));         // Decorrelated.
}

TEST(RetryPolicyTest, ZeroInitialBackoffDisablesWaiting) {
  RetryOptions options;
  options.initial_backoff_ms = 0.0;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 3, rng), 0.0);
}

TEST(RetryPolicyTest, RetryAfterHintFloorsTheBackoff) {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.jitter = 0.0;
  Rng rng(1);
  const Status hinted =
      Status::Unavailable("503").WithRetryAfterMs(2000.0);
  // The server's pacing wins while the client's own schedule is below it...
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 1, rng, hinted), 2000.0);
  // ...and the client's schedule wins once it has escalated past the hint.
  options.initial_backoff_ms = 4000.0;
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 1, rng, hinted), 4000.0);
}

TEST(RetryPolicyTest, RetryAfterHintIsClampedAndOptional) {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.jitter = 0.0;
  options.max_retry_after_ms = 500.0;
  Rng rng(1);
  const Status hinted =
      Status::Unavailable("503").WithRetryAfterMs(60000.0);
  // A confused server cannot stall the pipeline past the clamp.
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 1, rng, hinted), 500.0);
  options.honor_retry_after = false;
  EXPECT_DOUBLE_EQ(RetryBackoffMs(options, 1, rng, hinted), 10.0);
  // No hint attached: plain schedule.
  EXPECT_DOUBLE_EQ(
      RetryBackoffMs(options, 1, rng, Status::Unavailable("503")), 10.0);
}

TEST(RetryPolicyTest, RetryAfterHintSurvivesContext) {
  const Status hinted =
      Status::Unavailable("503").WithRetryAfterMs(750.0).WithContext("ep");
  ASSERT_TRUE(hinted.has_retry_after());
  EXPECT_DOUBLE_EQ(hinted.retry_after_ms(), 750.0);
  EXPECT_FALSE(Status::OK().WithRetryAfterMs(750.0).has_retry_after());
}

// ---------------------------------------------------- retry-storm hardening

TEST(RetryStormTest, RetryingEndpointWaitsBetweenReissues) {
  ScriptedEndpoint inner;
  int failures_left = 2;
  inner.select_handler_ = [&](const SelectQuery&) -> StatusOr<ResultSet> {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return Rows(1);
  };
  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 10.0;
  retry.jitter = 0.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(&inner, retry);

  ASSERT_TRUE(ep.Select(ProbeQuery()).ok());
  EXPECT_EQ(ep.retries_performed(), 2u);
  // The storm fix: every re-issue waited, exponentially longer each time.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 10.0);
  EXPECT_DOUBLE_EQ(delays[1], 20.0);
}

TEST(RetryStormTest, ServerRetryAfterHintPinsTheSchedule) {
  ScriptedEndpoint inner;
  int failures_left = 2;
  inner.select_handler_ = [&](const SelectQuery&) -> StatusOr<ResultSet> {
    if (failures_left > 0) {
      --failures_left;
      // An overloaded server saying "come back in 2 seconds".
      return Status::Unavailable("503").WithRetryAfterMs(2000.0);
    }
    return Rows(1);
  };
  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 10.0;
  retry.jitter = 0.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(&inner, retry);

  ASSERT_TRUE(ep.Select(ProbeQuery()).ok());
  // Both waits are the server's 2000 ms, not the blind 10/20 ms schedule.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 2000.0);
  EXPECT_DOUBLE_EQ(delays[1], 2000.0);
}

TEST(RetryStormTest, MaxRetryAfterClampBoundsHostileHints) {
  ScriptedEndpoint inner;
  int failures_left = 1;
  inner.select_handler_ = [&](const SelectQuery&) -> StatusOr<ResultSet> {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503").WithRetryAfterMs(3600000.0);
    }
    return Rows(1);
  };
  std::vector<double> delays;
  RetryOptions retry;
  retry.initial_backoff_ms = 10.0;
  retry.jitter = 0.0;
  retry.max_retry_after_ms = 250.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(&inner, retry);

  ASSERT_TRUE(ep.Select(ProbeQuery()).ok());
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_DOUBLE_EQ(delays[0], 250.0);  // Hour-long hint, clamped.
}

TEST(RetryStormTest, PagedSelectRoutesThroughSharedPolicy) {
  ScriptedEndpoint inner;
  int failures_left = 2;
  inner.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return Rows(query.limit() == kNoLimit ? 1 : 0);
  };
  std::vector<double> delays;
  PagedSelectOptions options;
  options.page_size = 4;
  options.retry.max_retries = 3;
  options.retry.initial_backoff_ms = 5.0;
  options.retry.jitter = 0.0;
  options.retry.sleeper = [&delays](double ms) { delays.push_back(ms); };

  ASSERT_TRUE(PagedSelect(&inner, ProbeQuery(), options).ok());
  // PagedSelect's inner loop is the same backoff policy, not a zero-delay
  // copy: both re-issues waited.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 5.0);
  EXPECT_DOUBLE_EQ(delays[1], 10.0);
}

TEST(RetryStormTest, NonTransientErrorsAreNeverRetried) {
  ScriptedEndpoint inner;
  inner.select_handler_ = [](const SelectQuery&) -> StatusOr<ResultSet> {
    return Status::ResourceExhausted("budget");
  };
  std::vector<double> delays;
  RetryOptions retry;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(&inner, retry);
  EXPECT_TRUE(ep.Select(ProbeQuery()).status().IsResourceExhausted());
  EXPECT_EQ(ep.retries_performed(), 0u);
  EXPECT_TRUE(delays.empty());
  EXPECT_EQ(inner.select_calls_, 1);
}

// ------------------------------------------------------- batch forwarding

TEST(RetryBatchTest, SelectManyForwardsTheBatchToInner) {
  ScriptedEndpoint inner;
  inner.select_handler_ = [](const SelectQuery&) { return Rows(2); };
  RetryingEndpoint ep(&inner);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3)};
  SelectBatchResult results = ep.SelectMany(batch);
  ASSERT_TRUE(results.all_ok());
  EXPECT_EQ(results.size(), 3u);
  // The batch reached the inner endpoint as a batch — a batching/caching
  // inner layer keeps its intra-batch dedup. (The inherited default would
  // leave this at 0 and issue three bare Selects.)
  EXPECT_EQ(inner.select_many_calls_, 1);
}

TEST(RetryBatchTest, SelectManyNeverReExecutesRecoveredSubQueries) {
  ScriptedEndpoint inner;
  // Query #2 fails twice (in the batch and once in recovery), then
  // recovers. Queries #1/#3 always succeed.
  const std::string flaky = ProbeQuery(2).Fingerprint();
  std::map<std::string, int> select_counts;
  int failures_left = 2;
  inner.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    ++select_counts[query.Fingerprint()];
    if (query.Fingerprint() == flaky && failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return Rows(1);
  };
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);

  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3)};
  SelectBatchResult results = ep.SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(ep.retries_performed(), 2u);  // Only the flaky sub-query.
  // The per-sub-query contract's whole point: answers that succeeded in
  // the batch are NEVER bought again. Exactly one execution each.
  EXPECT_EQ(select_counts[ProbeQuery(1).Fingerprint()], 1);
  EXPECT_EQ(select_counts[ProbeQuery(3).Fingerprint()], 1);
  EXPECT_EQ(select_counts[flaky], 3);  // Fail (batch), fail, succeed.
}

TEST(RetryBatchTest, TrackedRequestCountProvesNoReExecution) {
  // The acceptance-criterion form of the assertion above: a
  // TrackingEndpoint *between* the retry layer and the flaky server counts
  // every request the recovery actually issued — k batch sub-queries plus
  // one re-issue per failure, never k + k.
  ScriptedEndpoint server;
  const std::string flaky = ProbeQuery(2).Fingerprint();
  int failures_left = 1;
  server.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    if (query.Fingerprint() == flaky && failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return Rows(1);
  };
  TrackingEndpoint tracked(&server);
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&tracked, retry);

  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3), ProbeQuery(4)};
  SelectBatchResult results = ep.SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  // 4 unique sub-queries in the batch + exactly 1 recovery re-issue.
  EXPECT_EQ(tracked.stats().queries, 5u);
  EXPECT_EQ(ep.retries_performed(), 1u);  // First recovery attempt sufficed.
}

TEST(RetryBatchTest, FailedSlotsGoAgainAsOneBatch) {
  // Slots 2 and 4 fail once, slot 3 fails for good with a non-transient
  // error: one re-issue carries slots 2 and 4 together, and every slot
  // keeps its own outcome.
  ScriptedEndpoint inner;
  std::map<std::string, int> select_counts;
  inner.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    const int seen = select_counts[query.Fingerprint()]++;
    if (query.Fingerprint() == ProbeQuery(3).Fingerprint()) {
      return Status::InvalidArgument("malformed");
    }
    if ((query.Fingerprint() == ProbeQuery(2).Fingerprint() ||
         query.Fingerprint() == ProbeQuery(4).Fingerprint()) &&
        seen == 0) {
      return Status::Unavailable("503");
    }
    return Rows(1);
  };
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3), ProbeQuery(4)};
  SelectBatchResult results = ep.SelectMany(batch);
  EXPECT_TRUE(results.statuses[0].ok());
  EXPECT_TRUE(results.statuses[1].ok());
  EXPECT_TRUE(results.statuses[2].IsInvalidArgument());
  EXPECT_TRUE(results.statuses[3].ok());
  EXPECT_EQ(inner.select_many_calls_, 2);  // The batch + one re-issue.
  EXPECT_EQ(ep.retries_performed(), 2u);   // Two slots re-issued.
  EXPECT_EQ(select_counts[ProbeQuery(1).Fingerprint()], 1);
  EXPECT_EQ(select_counts[ProbeQuery(2).Fingerprint()], 2);
  EXPECT_EQ(select_counts[ProbeQuery(3).Fingerprint()], 1);
  EXPECT_EQ(select_counts[ProbeQuery(4).Fingerprint()], 2);
}

TEST(RetryBatchTest, HardDownEndpointShortCircuitsBatchRecovery) {
  // An attempt that answers nothing is followed by a one-slot canary, not
  // by the whole batch again: when the canary exhausts the backoff schedule
  // and is STILL Unavailable, the endpoint is down, not flaky, and the
  // remaining slots keep their Unavailable statuses without being sent
  // again (a 200-probe batch against a dead server must not retry 200
  // times).
  ScriptedEndpoint inner;
  inner.select_handler_ = [](const SelectQuery&) -> StatusOr<ResultSet> {
    return Status::Unavailable("503");
  };
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3), ProbeQuery(4),
                                    ProbeQuery(5)};
  SelectBatchResult results = ep.SelectMany(batch);
  EXPECT_EQ(results.num_failed(), 5u);
  for (const Status& status : results.statuses) {
    EXPECT_TRUE(status.IsUnavailable());
  }
  // 5 batch sub-queries + ONE exhausted recovery schedule (3 retries after
  // the batch attempt), not five schedules.
  EXPECT_EQ(inner.select_calls_, 5 + 3);
  EXPECT_EQ(ep.retries_performed(), 3u);
}

TEST(RetryBatchTest, CanaryThatRecoversIsFollowedByTheRestAsOneBatch) {
  // The whole batch fails once (a failed folded request looks like this):
  // slot 1 goes alone as the canary, and once it is answered the other
  // slots go again together.
  ScriptedEndpoint inner;
  int failures_left = 4;
  inner.select_handler_ = [&](const SelectQuery&) -> StatusOr<ResultSet> {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return Rows(1);
  };
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3), ProbeQuery(4)};
  SelectBatchResult results = ep.SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(inner.select_many_calls_, 1 + 1 + 1);  // Batch, canary, rest.
  EXPECT_EQ(inner.select_calls_, 4 + 1 + 3);
  EXPECT_EQ(ep.retries_performed(), 4u);
}

TEST(RetryBatchTest, NonTransientSlotFailuresPassThroughUntouched) {
  ScriptedEndpoint inner;
  inner.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    if (query.Fingerprint() == ProbeQuery(2).Fingerprint()) {
      return Status::InvalidArgument("malformed");
    }
    return Rows(1);
  };
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3)};
  SelectBatchResult results = ep.SelectMany(batch);
  EXPECT_TRUE(results.statuses[0].ok());
  EXPECT_TRUE(results.statuses[1].IsInvalidArgument());
  EXPECT_TRUE(results.statuses[2].ok());
  EXPECT_EQ(ep.retries_performed(), 0u);  // InvalidArgument: never retried.
  EXPECT_EQ(inner.select_calls_, 3);      // No recovery pass at all.
}

TEST(RetryBatchTest, AskManyForwardsTheBatchToInner) {
  ScriptedEndpoint inner;
  RetryingEndpoint ep(&inner);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2)};
  AskBatchResult results = ep.AskMany(batch);
  ASSERT_TRUE(results.all_ok());
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(inner.ask_many_calls_, 1);
}

TEST(RetryBatchTest, AskManyRecoversPerSubQuery) {
  ScriptedEndpoint inner;
  int failures_left = 3;
  inner.ask_handler_ = [&](const SelectQuery&) -> StatusOr<bool> {
    if (failures_left > 0) {
      --failures_left;
      return Status::Unavailable("503");
    }
    return true;
  };
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint ep(&inner, retry);
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2)};
  AskBatchResult results = ep.AskMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(results.values, (std::vector<bool>{true, true}));
  EXPECT_GT(ep.retries_performed(), 0u);
}

// ------------------------------------------------- misbehaving-server paging

TEST(PagedSelectHardeningTest, OverLongPageIsClampedAndPagingStops) {
  ScriptedEndpoint inner;
  inner.select_handler_ =
      [](const SelectQuery& query) -> StatusOr<ResultSet> {
    // Misbehaving server: always over-delivers the requested LIMIT by 3.
    const uint64_t limit = query.limit() == kNoLimit ? 5 : query.limit();
    return Rows(limit + 3);
  };
  PagedSelectOptions options;
  options.page_size = 4;
  options.max_rows = 10;
  auto merged = PagedSelect(&inner, ProbeQuery(), options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Before the fix, total_cap - merged.rows.size() wrapped once the
  // over-delivery pushed past the cap and the loop ran away. Now: one
  // request, its over-long page truncated to what was asked, stop.
  EXPECT_EQ(merged->rows.size(), 4u);
  EXPECT_EQ(inner.select_calls_, 1);
}

TEST(PagedSelectHardeningTest, OverLongPageRespectsQueryLimit) {
  ScriptedEndpoint inner;
  inner.select_handler_ =
      [](const SelectQuery& query) -> StatusOr<ResultSet> {
    const uint64_t limit = query.limit() == kNoLimit ? 5 : query.limit();
    return Rows(limit + 100);
  };
  PagedSelectOptions options;
  options.page_size = 50;
  SelectQuery query = ProbeQuery();
  query.Limit(7);
  auto merged = PagedSelect(&inner, query, options);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows.size(), 7u);  // The query's own LIMIT holds.
}

TEST(PagedSelectHardeningTest, BatchedFirstPageOverdeliveryIsClamped) {
  ScriptedEndpoint inner;
  inner.select_handler_ =
      [](const SelectQuery& query) -> StatusOr<ResultSet> {
    const uint64_t limit = query.limit() == kNoLimit ? 5 : query.limit();
    return Rows(limit + 2);
  };
  PagedSelectOptions options;
  options.page_size = 3;
  options.max_rows = 8;
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2)};
  SelectBatchResult results = BatchedPagedSelect(&inner, batch, options);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  for (const ResultSet& result : results.values) {
    EXPECT_EQ(result.rows.size(), 3u);  // Clamped to the first page.
  }
}

TEST(PagedSelectHardeningTest, BatchedPagingIsolatesPerSubQueryFailures) {
  ScriptedEndpoint inner;
  // The second first-page request (query #2's — the batch loops in order,
  // and paging rewrites LIMIT, so matching by fingerprint would miss) is
  // permanently unavailable; #1 and #3 answer fine.
  int call = 0;
  inner.select_handler_ =
      [&](const SelectQuery& query) -> StatusOr<ResultSet> {
    if (++call == 2) return Status::Unavailable("503");
    return Rows(query.limit() == kNoLimit ? 1 : 0);
  };
  PagedSelectOptions options;
  options.page_size = 4;
  options.retry.max_retries = 1;
  options.retry.initial_backoff_ms = 0.0;
  std::vector<SelectQuery> batch = {ProbeQuery(1), ProbeQuery(2),
                                    ProbeQuery(3)};
  SelectBatchResult results = BatchedPagedSelect(&inner, batch, options);
  EXPECT_TRUE(results.statuses[0].ok());
  EXPECT_TRUE(results.statuses[1].IsUnavailable());
  EXPECT_TRUE(results.statuses[2].ok());
  EXPECT_EQ(results.num_failed(), 1u);
}

TEST(PagedSelectHardeningTest, WellBehavedPagingIsUnchanged) {
  ScriptedEndpoint inner;
  inner.select_handler_ =
      [](const SelectQuery& query) -> StatusOr<ResultSet> {
    // 10 rows total, honest LIMIT/OFFSET.
    const uint64_t total = 10;
    if (query.offset() >= total) return Rows(0);
    const uint64_t want =
        std::min<uint64_t>(query.limit(), total - query.offset());
    return Rows(want);
  };
  PagedSelectOptions options;
  options.page_size = 4;
  auto merged = PagedSelect(&inner, ProbeQuery(), options);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rows.size(), 10u);
  EXPECT_EQ(inner.select_calls_, 3);  // 4 + 4 + 2 (short page stops).
}

}  // namespace
}  // namespace sofya
