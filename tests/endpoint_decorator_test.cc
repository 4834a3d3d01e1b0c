// Single/batch parity for every endpoint decorator. A decorator implements
// batches only; Select(q)/Ask(q) are one-slot SelectMany/AskMany batches.
// Each test drives one stack through the single calls and a twin stack
// through one-slot batches with the same script, and requires identical
// outcomes, stats, decorator counters, retry delays, throttle streams and
// cassette digests.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "endpoint/caching_endpoint.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/query_forms.h"
#include "endpoint/recording_endpoint.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/throttled_endpoint.h"
#include "endpoint/tracking_endpoint.h"
#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"

namespace sofya {
namespace {

// ------------------------------------------------------------ fixtures

/// One step of a script: a SELECT or an ASK of `query`.
struct Op {
  SelectQuery query;
  bool ask = false;
};

/// Runs `op` on `single` as Select/Ask and on `batched` as a one-slot
/// SelectMany/AskMany, and expects the same outcome.
void ExpectSameOutcome(Endpoint& single, Endpoint& batched, const Op& op) {
  const std::span<const SelectQuery> slot(&op.query, 1);
  if (op.ask) {
    StatusOr<bool> one = single.Ask(op.query);
    AskBatchResult many = batched.AskMany(slot);
    ASSERT_EQ(many.size(), 1u);
    EXPECT_EQ(one.status(), many.statuses[0]);
    if (one.ok() && many.statuses[0].ok()) {
      EXPECT_EQ(*one, static_cast<bool>(many.values[0]));
    }
    return;
  }
  StatusOr<ResultSet> one = single.Select(op.query);
  SelectBatchResult many = batched.SelectMany(slot);
  ASSERT_EQ(many.size(), 1u);
  EXPECT_EQ(one.status(), many.statuses[0]);
  if (one.ok() && many.statuses[0].ok()) {
    EXPECT_EQ(one->var_names, many.values[0].var_names);
    EXPECT_EQ(one->rows, many.values[0].rows);
  }
}

void ExpectSameStats(const EndpointStats& a, const EndpointStats& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.rows_returned, b.rows_returned);
  EXPECT_EQ(a.bytes_estimated, b.bytes_estimated);
  EXPECT_EQ(a.index_probes, b.index_probes);
  EXPECT_EQ(a.triples_scanned, b.triples_scanned);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_EQ(a.failures_injected, b.failures_injected);
  EXPECT_EQ(a.replans, b.replans);
  EXPECT_DOUBLE_EQ(a.simulated_latency_ms, b.simulated_latency_ms);
}

/// Runs the whole script on both stacks, then compares their stats.
void RunScript(Endpoint& single, Endpoint& batched,
               const std::vector<Op>& script) {
  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE("script step " + std::to_string(i));
    ExpectSameOutcome(single, batched, script[i]);
  }
  ExpectSameStats(single.stats(), batched.stats());
}

/// A small KB and a script over it that repeats queries (cache hits),
/// varies solution modifiers (ASK normalization), and mixes SELECT/ASK.
class DecoratorParityTest : public ::testing::Test {
 protected:
  DecoratorParityTest() : kb_("paritykb", "http://parity.test/") {
    for (int i = 0; i < 12; ++i) {
      const std::string s = "s" + std::to_string(i);
      kb_.AddFact(s, "p", "o" + std::to_string(i % 5));
      if (i % 3 == 0) kb_.AddFact(s, "q", "o" + std::to_string(i));
    }
    const TermId p = kb_.dict().LookupIri("http://parity.test/p");
    const TermId q = kb_.dict().LookupIri("http://parity.test/q");
    const TermId s0 = kb_.dict().LookupIri("http://parity.test/s0");
    const TermId s1 = kb_.dict().LookupIri("http://parity.test/s1");
    const TermId o0 = kb_.dict().LookupIri("http://parity.test/o0");
    script_ = {
        {queries::FactsOfPredicate(p)},
        {queries::FactsOfPredicate(q, 2)},
        {queries::FactsOfPredicate(p)},  // Repeat.
        {queries::ObjectsOf(s0, q), /*ask=*/true},
        {queries::ObjectsOf(s1, q), /*ask=*/true},  // No solution.
        {queries::ObjectsOf(s0, q).Limit(5), /*ask=*/true},  // Same probe.
        {queries::SubjectsOfPredicate(p, 4, 2)},
        {queries::PredicatesBetween(s0, o0)},
        {queries::AllPredicates()},
        {queries::FactsOfPredicate(q, 2)},  // Repeat.
        {queries::FactsOfSubject(s1)},
        {queries::ObjectsOf(s1, q), /*ask=*/true},  // Repeat.
    };
  }

  KnowledgeBase kb_;
  std::vector<Op> script_;
};

/// Scriptable base endpoint: Select/Ask answers come from handlers.
class ScriptedEndpoint : public Endpoint {
 public:
  const std::string& name() const override { return name_; }
  const std::string& base_iri() const override { return base_iri_; }
  StatusOr<ResultSet> Select(const SelectQuery& query) override {
    return select_handler(query);
  }
  StatusOr<bool> Ask(const SelectQuery& query) override {
    return ask_handler(query);
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

  std::function<StatusOr<ResultSet>(const SelectQuery&)> select_handler;
  std::function<StatusOr<bool>(const SelectQuery&)> ask_handler;

 private:
  std::string name_ = "scripted";
  std::string base_iri_ = "http://scripted.test/";
  Dictionary dict_;
};

/// A base that fails `failures` times with Unavailable, then answers.
struct FlakyBase {
  explicit FlakyBase(int failures) : failures_left(failures) {
    endpoint.select_handler = [this](const SelectQuery&) -> StatusOr<ResultSet> {
      if (failures_left > 0) {
        --failures_left;
        return Status::Unavailable("503");
      }
      ResultSet result;
      result.var_names = {"s"};
      result.rows = {{1}};
      return result;
    };
    endpoint.ask_handler = [this](const SelectQuery&) -> StatusOr<bool> {
      if (failures_left > 0) {
        --failures_left;
        return Status::Unavailable("503");
      }
      return true;
    };
  }

  int failures_left;
  ScriptedEndpoint endpoint;
};

/// The retry options of RetryStormTest.RetryingEndpointWaitsBetweenReissues,
/// collecting the backoff delays into `delays`.
RetryOptions CollectingRetry(std::vector<double>* delays) {
  RetryOptions retry;
  retry.max_retries = 5;
  retry.initial_backoff_ms = 10.0;
  retry.jitter = 0.0;
  retry.sleeper = [delays](double ms) { delays->push_back(ms); };
  return retry;
}

// ------------------------------------------------------------ per decorator

TEST_F(DecoratorParityTest, Caching) {
  for (bool cache_asks : {true, false}) {
    SCOPED_TRACE(cache_asks ? "cache_asks" : "asks bypass the cache");
    LocalEndpoint base_a(&kb_);
    LocalEndpoint base_b(&kb_);
    CacheOptions options;
    options.capacity = 4;  // Small enough to evict mid-script.
    options.cache_asks = cache_asks;
    CachingEndpoint single(&base_a, options);
    CachingEndpoint batched(&base_b, options);
    RunScript(single, batched, script_);
    EXPECT_GT(single.hits(), 0u);
    EXPECT_GT(single.evictions(), 0u);
    EXPECT_EQ(single.hits(), batched.hits());
    EXPECT_EQ(single.misses(), batched.misses());
    EXPECT_EQ(single.evictions(), batched.evictions());
    EXPECT_EQ(single.size(), batched.size());
  }
}

TEST_F(DecoratorParityTest, Tracking) {
  LocalEndpoint base_a(&kb_);
  LocalEndpoint base_b(&kb_);
  TrackingEndpoint single(&base_a);
  TrackingEndpoint batched(&base_b);
  RunScript(single, batched, script_);
  EXPECT_EQ(single.stats().queries, script_.size());
  // Over an undecorated base the tracked counts are the server's.
  ExpectSameStats(base_a.stats(), base_b.stats());
  EXPECT_EQ(single.stats().queries, base_a.stats().queries);
}

TEST_F(DecoratorParityTest, ThrottledLatencyAndFailureStream) {
  LocalEndpoint base_a(&kb_);
  LocalEndpoint base_b(&kb_);
  ThrottleOptions options;
  options.query_budget = 20;
  options.max_rows_per_query = 3;
  options.jitter_ms = 10.0;
  options.failure_rate = 0.3;
  options.seed = 7;
  ThrottledEndpoint single(&base_a, options);
  ThrottledEndpoint batched(&base_b, options);
  // Twice through the script: the budget runs out on the second pass.
  std::vector<Op> script = script_;
  script.insert(script.end(), script_.begin(), script_.end());
  RunScript(single, batched, script);
  EXPECT_GT(single.stats().failures_injected, 0u);
  EXPECT_EQ(single.queries_issued(), options.query_budget);
  EXPECT_EQ(single.queries_issued(), batched.queries_issued());
  EXPECT_EQ(single.remaining_budget(), batched.remaining_budget());
  ExpectSameStats(base_a.stats(), base_b.stats());
}

TEST_F(DecoratorParityTest, Recording) {
  LocalEndpoint base_a(&kb_);
  LocalEndpoint base_b(&kb_);
  RecordingEndpoint single(&base_a);
  RecordingEndpoint batched(&base_b);
  RunScript(single, batched, script_);
  EXPECT_GT(single.num_entries(), 0u);
  EXPECT_EQ(single.num_entries(), batched.num_entries());
  EXPECT_EQ(single.conflicts(), batched.conflicts());
  EXPECT_EQ(single.digest(), batched.digest());
}

TEST(RetryingParityTest, SameScheduleOnBothPaths) {
  for (bool ask : {false, true}) {
    SCOPED_TRACE(ask ? "ASK" : "SELECT");
    FlakyBase base_a(/*failures=*/2);
    FlakyBase base_b(/*failures=*/2);
    std::vector<double> delays_a;
    std::vector<double> delays_b;
    RetryingEndpoint single(&base_a.endpoint, CollectingRetry(&delays_a));
    RetryingEndpoint batched(&base_b.endpoint, CollectingRetry(&delays_b));
    Op op{SelectQuery(), ask};
    op.query.Where(NodeRef::Variable(op.query.NewVar("s")),
                   NodeRef::Constant(1),
                   NodeRef::Variable(op.query.NewVar("o")));
    ExpectSameOutcome(single, batched, op);
    // The batch is attempt 1; every re-issue waited its backoff.
    EXPECT_EQ(delays_a, (std::vector<double>{10.0, 20.0}));
    EXPECT_EQ(delays_b, delays_a);
    EXPECT_EQ(single.retries_performed(), 2u);
    EXPECT_EQ(batched.retries_performed(), single.retries_performed());
  }
}

TEST(RetryingParityTest, ExhaustedScheduleMatches) {
  FlakyBase base_a(/*failures=*/100);
  FlakyBase base_b(/*failures=*/100);
  std::vector<double> delays_a;
  std::vector<double> delays_b;
  RetryOptions retry_a = CollectingRetry(&delays_a);
  RetryOptions retry_b = CollectingRetry(&delays_b);
  retry_a.max_retries = retry_b.max_retries = 3;
  RetryingEndpoint single(&base_a.endpoint, retry_a);
  RetryingEndpoint batched(&base_b.endpoint, retry_b);
  Op op;
  op.query.Where(NodeRef::Variable(op.query.NewVar("s")), NodeRef::Constant(1),
                 NodeRef::Variable(op.query.NewVar("o")));
  ExpectSameOutcome(single, batched, op);
  // Attempt 1 plus max_retries re-issues, each after its backoff.
  EXPECT_EQ(delays_a, (std::vector<double>{10.0, 20.0, 40.0}));
  EXPECT_EQ(delays_b, delays_a);
  EXPECT_EQ(base_a.failures_left, 100 - 4);
  EXPECT_EQ(base_b.failures_left, base_a.failures_left);
  EXPECT_EQ(single.retries_performed(), 3u);
  EXPECT_EQ(batched.retries_performed(), single.retries_performed());
}

// ------------------------------------------------------------ whole stack

/// The facade's composition, outermost first: cache -> retry -> throttle
/// -> record -> base.
struct FullStack {
  FullStack(KnowledgeBase* kb, const ThrottleOptions& throttle_options,
            const RetryOptions& retry_options)
      : base(kb),
        recording(&base),
        throttled(&recording, throttle_options),
        retrying(&throttled, retry_options),
        caching(&retrying) {}

  LocalEndpoint base;
  RecordingEndpoint recording;
  ThrottledEndpoint throttled;
  RetryingEndpoint retrying;
  CachingEndpoint caching;
};

TEST_F(DecoratorParityTest, FullStackUnderInjectedFailures) {
  ThrottleOptions throttle;
  throttle.failure_rate = 0.4;
  throttle.seed = 11;
  throttle.max_rows_per_query = 4;
  std::vector<double> delays_a;
  std::vector<double> delays_b;
  RetryOptions retry_a = CollectingRetry(&delays_a);
  RetryOptions retry_b = CollectingRetry(&delays_b);
  retry_a.jitter = retry_b.jitter = 0.2;
  retry_a.seed = retry_b.seed = 5;  // Seeded jitter: comparable delays.
  FullStack single(&kb_, throttle, retry_a);
  FullStack batched(&kb_, throttle, retry_b);
  RunScript(single.caching, batched.caching, script_);
  EXPECT_FALSE(delays_a.empty());
  EXPECT_EQ(delays_a, delays_b);
  EXPECT_EQ(single.retrying.retries_performed(),
            batched.retrying.retries_performed());
  EXPECT_EQ(single.throttled.queries_issued(),
            batched.throttled.queries_issued());
  EXPECT_EQ(single.caching.hits(), batched.caching.hits());
  EXPECT_EQ(single.caching.misses(), batched.caching.misses());
  EXPECT_EQ(single.recording.digest(), batched.recording.digest());
}

}  // namespace
}  // namespace sofya
