// Contract suite for HttpSparqlEndpoint against the in-process loopback
// SPARQL server — the whole wire path (HTTP framing, SPARQL serialization,
// results-JSON parsing, status mapping, pooling) with zero real network.

#include "endpoint/http_sparql_endpoint.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/facade.h"
#include "endpoint/paged_select.h"
#include "endpoint/query_forms.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/retrying_endpoint.h"
#include "endpoint/sparql_server.h"
#include "loopback_sparql_server.h"
#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"
#include "sparql/results_json.h"
#include "synth/presets.h"
#include "synth/world_generator.h"

namespace sofya {
namespace {

/// Fixture: a KB with 10 facts of predicate p served over loopback HTTP.
class HttpSparqlEndpointTest : public ::testing::Test {
 protected:
  HttpSparqlEndpointTest() : kb_("httpkb", "http://t.org/") {
    for (int i = 0; i < 10; ++i) {
      kb_.AddFact("s" + std::to_string(i), "p", "o" + std::to_string(i % 3));
    }
    kb_.AddLiteralFact("s0", "label", "zero");
    server_ = std::make_unique<MockSparqlServer>(&kb_);
    transport_ = server_->MakeTransport();
    endpoint_ = MakeEndpoint(4);
  }

  std::unique_ptr<HttpSparqlEndpoint> MakeEndpoint(size_t max_connections) {
    HttpSparqlEndpointOptions options;
    options.name = "httpkb";
    options.base_iri = "http://t.org/";
    options.max_connections = max_connections;
    return std::make_unique<HttpSparqlEndpoint>(
        ParseUrl("http://mock.test/sparql").value(), transport_.get(),
        options);
  }

  /// The test predicate in the *client's* id space.
  TermId ClientP() { return endpoint_->EncodeTerm(Term::Iri("http://t.org/p")); }

  KnowledgeBase kb_;
  std::unique_ptr<MockSparqlServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<HttpSparqlEndpoint> endpoint_;
};

TEST_F(HttpSparqlEndpointTest, SelectRoundTripsBindings) {
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  ASSERT_EQ(result->var_names.size(), 2u);

  // Decoded terms match the server's data (distinct id spaces, same terms).
  std::set<std::string> objects;
  for (const auto& row : result->rows) {
    auto term = endpoint_->DecodeTerm(row[1]);
    ASSERT_TRUE(term.ok());
    objects.insert(term->lexical());
  }
  EXPECT_EQ(objects, (std::set<std::string>{"http://t.org/o0",
                                            "http://t.org/o1",
                                            "http://t.org/o2"}));

  const EndpointStats stats = endpoint_->stats();
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.rows_returned, 10u);
  EXPECT_GT(stats.bytes_estimated, 0u);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(HttpSparqlEndpointTest, LiteralBindingsSurviveTheWire) {
  const TermId s0 = endpoint_->EncodeTerm(Term::Iri("http://t.org/s0"));
  const TermId label =
      endpoint_->EncodeTerm(Term::Iri("http://t.org/label"));
  auto result = endpoint_->Select(queries::ObjectsOf(s0, label));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  auto term = endpoint_->DecodeTerm(result->rows[0][0]);
  ASSERT_TRUE(term.ok());
  EXPECT_TRUE(term->is_literal());
  EXPECT_EQ(term->lexical(), "zero");
}

TEST_F(HttpSparqlEndpointTest, AskShipsOneBooleanNoRows) {
  auto yes = endpoint_->Ask(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  EXPECT_TRUE(*yes);

  auto no = endpoint_->Ask(queries::FactsOfPredicate(
      endpoint_->EncodeTerm(Term::Iri("http://t.org/absent"))));
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);

  EXPECT_EQ(endpoint_->stats().rows_returned, 0u);
  // The wire really carried ASK, not a LIMIT-1 SELECT.
  const std::vector<std::string> queries = server_->queries_received();
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].rfind("ASK", 0), 0u) << queries[0];
}

TEST_F(HttpSparqlEndpointTest, RetryAfterHeaderDrivesTheHonoredDelay) {
  // The server sheds two requests with 503 + "Retry-After: 3". The hint
  // must ride the Status into the retry policy: both waits are the
  // server's 3000 ms, not the client's own 5/10 ms schedule.
  server_->FailNextRequests(2, 503, /*retry_after_s=*/3);
  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 5.0;
  retry.jitter = 0.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(endpoint_.get(), retry);

  auto result = ep.Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 3000.0);
  EXPECT_DOUBLE_EQ(delays[1], 3000.0);
}

TEST_F(HttpSparqlEndpointTest, OmittedRetryAfterFallsBackToOwnSchedule) {
  server_->FailNextRequests(2, 503, /*retry_after_s=*/-1);  // No header.
  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 5.0;
  retry.jitter = 0.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint ep(endpoint_.get(), retry);

  ASSERT_TRUE(ep.Select(queries::FactsOfPredicate(ClientP())).ok());
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 5.0);
  EXPECT_DOUBLE_EQ(delays[1], 10.0);
}

TEST_F(HttpSparqlEndpointTest, PagedSelectComposesOverHttp) {
  PagedSelectOptions options;
  options.page_size = 3;
  auto merged =
      PagedSelect(endpoint_.get(), queries::FactsOfPredicate(ClientP()),
                  options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged->rows.size(), 10u);
  // 10 rows at page size 3 => 4 requests (last one short), all over HTTP.
  EXPECT_EQ(server_->requests_served(), 4u);
  // The pages really went out with OFFSET/LIMIT on the wire.
  const std::vector<std::string> queries = server_->queries_received();
  EXPECT_NE(queries[1].find("OFFSET 3"), std::string::npos) << queries[1];
  EXPECT_NE(queries[1].find("LIMIT 3"), std::string::npos);
}

TEST_F(HttpSparqlEndpointTest, OverLongPageIsTruncatedAndStops) {
  server_->OverdeliverRows(5);  // Server ignores LIMIT by up to 5 rows.
  PagedSelectOptions options;
  options.page_size = 3;
  options.max_rows = 6;
  auto merged =
      PagedSelect(endpoint_.get(), queries::FactsOfPredicate(ClientP()),
                  options);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Clamped to the page it asked for, then stopped: no runaway loop, no
  // blowing through max_rows.
  EXPECT_EQ(merged->rows.size(), 3u);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(HttpSparqlEndpointTest, RetryingEndpointRecovers503Burst) {
  server_->FailNextRequests(2);  // 503, 503, then healthy.
  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 10.0;
  retry.jitter = 0.0;
  retry.sleeper = [&delays](double ms) { delays.push_back(ms); };
  RetryingEndpoint retrying(endpoint_.get(), retry);

  auto result = retrying.Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(retrying.retries_performed(), 2u);
  EXPECT_EQ(server_->requests_served(), 3u);
  // Exponential, not zero-delay: the client waited before each re-issue.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 10.0);
  EXPECT_DOUBLE_EQ(delays[1], 20.0);
}

TEST_F(HttpSparqlEndpointTest, StatusMapping) {
  const SelectQuery query = queries::FactsOfPredicate(ClientP());
  server_->FailNextRequests(1, 429);
  EXPECT_TRUE(endpoint_->Select(query).status().IsUnavailable());
  server_->FailNextRequests(1, 503);
  EXPECT_TRUE(endpoint_->Select(query).status().IsUnavailable());
  server_->FailNextRequests(1, 504);
  EXPECT_TRUE(endpoint_->Select(query).status().IsUnavailable());
  server_->FailNextRequests(1, 400);
  EXPECT_TRUE(endpoint_->Select(query).status().IsInvalidArgument());
  server_->FailNextRequests(1, 404);
  EXPECT_TRUE(endpoint_->Select(query).status().IsNotFound());
  server_->FailNextRequests(1, 500);
  EXPECT_TRUE(endpoint_->Select(query).status().IsInternal());
  // Healthy again afterwards.
  EXPECT_TRUE(endpoint_->Select(query).ok());
}

TEST_F(HttpSparqlEndpointTest, ConnectFailureIsUnavailable) {
  transport_->FailNextConnects(1);
  auto first = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  EXPECT_TRUE(first.status().IsUnavailable()) << first.status().ToString();
  // And retryable: the next attempt connects fresh and succeeds.
  EXPECT_TRUE(endpoint_->Select(queries::FactsOfPredicate(ClientP())).ok());
}

TEST_F(HttpSparqlEndpointTest, MalformedResultsAreParseErrors) {
  server_->CorruptNextResponses(1);
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  EXPECT_TRUE(result.status().IsParseError()) << result.status().ToString();
}

TEST_F(HttpSparqlEndpointTest, KeepAliveReusesOneConnection) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        endpoint_->Select(queries::FactsOfPredicate(ClientP())).ok());
  }
  EXPECT_EQ(transport_->connections_opened(), 1u);
}

TEST_F(HttpSparqlEndpointTest, ConnectionCloseForcesReconnect) {
  server_->CloseAfterEachResponse(true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        endpoint_->Select(queries::FactsOfPredicate(ClientP())).ok());
  }
  EXPECT_EQ(transport_->connections_opened(), 3u);
}

TEST_F(HttpSparqlEndpointTest, SelectManyPipelinesOverBoundedPool) {
  endpoint_ = MakeEndpoint(/*max_connections=*/2);
  std::vector<SelectQuery> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(queries::FactsOfPredicate(ClientP(), /*limit=*/i + 1));
  }
  SelectBatchResult results = endpoint_->SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  ASSERT_EQ(results.size(), batch.size());
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results.values[i].rows.size(), static_cast<size_t>(i + 1))
        << "batch position " << i;
  }
  EXPECT_EQ(server_->requests_served(), 8u);
  // Pipelined over at most max_connections sockets.
  EXPECT_LE(transport_->connections_opened(), 2u);
  EXPECT_EQ(endpoint_->stats().queries, 8u);
}

TEST_F(HttpSparqlEndpointTest, AskManyPipelines) {
  std::vector<SelectQuery> batch;
  batch.push_back(queries::FactsOfPredicate(ClientP()));
  batch.push_back(queries::FactsOfPredicate(
      endpoint_->EncodeTerm(Term::Iri("http://t.org/absent"))));
  batch.push_back(queries::FactsOfPredicate(ClientP()));
  AskBatchResult results = endpoint_->AskMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(results.values, (std::vector<bool>{true, false, true}));
  EXPECT_LE(transport_->connections_opened(), 4u);
}

TEST_F(HttpSparqlEndpointTest, KilledConnectionFailsOnlyItsSubQuery) {
  // One connection, sequential batch, first request's connection killed
  // before a single response byte: slot 0 reports Unavailable, every other
  // sub-query keeps its answer — the fail-fast contract would have thrown
  // all of them away.
  endpoint_ = MakeEndpoint(/*max_connections=*/1);
  server_->KillConnectionOnNextRequests(1);
  std::vector<SelectQuery> batch;
  for (int i = 0; i < 4; ++i) {
    batch.push_back(queries::FactsOfPredicate(ClientP(), /*limit=*/i + 1));
  }
  SelectBatchResult results = endpoint_->SelectMany(batch);
  EXPECT_TRUE(results.statuses[0].IsUnavailable())
      << results.statuses[0].ToString();
  for (size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results.statuses[i].ok()) << "slot " << i;
    EXPECT_EQ(results.values[i].rows.size(), i + 1);
  }
  EXPECT_EQ(results.num_failed(), 1u);
}

TEST_F(HttpSparqlEndpointTest, RecoveryRetriesOnlyTheKilledSubQuery) {
  // Pipelined batch over 2 sockets with a retry layer on top. The server
  // kills one connection mid-pipeline; the batch still comes back fully
  // answered, and the server log shows exactly ONE re-issued query — the
  // killed one — never a re-execution of a sub-query that had already
  // succeeded. (Whether the re-issue came from the client's stale-reuse
  // guard or the retry layer's per-slot recovery, the query text crosses
  // the wire exactly twice.)
  endpoint_ = MakeEndpoint(/*max_connections=*/2);
  RetryOptions retry;
  retry.max_retries = 3;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint recovering(endpoint_.get(), retry);

  server_->KillConnectionOnNextRequests(1);
  std::vector<SelectQuery> batch;
  for (int i = 0; i < 6; ++i) {
    batch.push_back(queries::FactsOfPredicate(ClientP(), /*limit=*/i + 1));
  }
  SelectBatchResult results = recovering.SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results.values[i].rows.size(), i + 1) << "slot " << i;
  }
  // 6 sub-queries + exactly 1 re-issue of the killed one.
  EXPECT_EQ(server_->requests_served(), 7u);
  std::map<std::string, int> times_seen;
  for (const std::string& text : server_->queries_received()) {
    ++times_seen[text];
  }
  int re_issued = 0;
  for (const auto& [text, count] : times_seen) {
    ASSERT_LE(count, 2) << "re-executed more than once: " << text;
    if (count == 2) ++re_issued;
  }
  EXPECT_EQ(re_issued, 1);  // Only the in-flight casualty.
}

TEST_F(HttpSparqlEndpointTest, FollowsSameOriginRedirectPreservingPost) {
  server_->RedirectNextRequests(1, 307, "/sparql-moved");
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  // The query was re-POSTed at the new target: same body, twice.
  const std::vector<std::string> queries = server_->queries_received();
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0], queries[1]);
  // One client-visible query; the extra hop is transport plumbing.
  EXPECT_EQ(endpoint_->stats().queries, 1u);
}

TEST_F(HttpSparqlEndpointTest, FollowsAbsoluteSameOriginRedirect) {
  server_->RedirectNextRequests(1, 301, "http://mock.test/sparql-v2");
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(HttpSparqlEndpointTest, RejectsCrossOriginRedirect) {
  server_->RedirectNextRequests(1, 302, "http://elsewhere.test/sparql");
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  // The query body was never re-sent off-origin.
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(HttpSparqlEndpointTest, SchemeRelativeRedirectIsCrossOriginChecked) {
  // "//host/path" is a network-path reference, not an origin-form path: it
  // must go through the same-origin gate, not be pasted into the request
  // target of the configured origin.
  server_->RedirectNextRequests(1, 302, "//elsewhere.test/sparql");
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_EQ(server_->requests_served(), 1u);

  // The same-origin form of the reference IS followed.
  server_->RedirectNextRequests(1, 302, "//mock.test/sparql-alt");
  auto followed = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(followed.ok()) << followed.status().ToString();
  EXPECT_EQ(followed->rows.size(), 10u);
}

TEST_F(HttpSparqlEndpointTest, Rejects303ForQueryPosts) {
  server_->RedirectNextRequests(1, 303, "/results/42");
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  EXPECT_NE(result.status().message().find("303"), std::string::npos);
}

TEST_F(HttpSparqlEndpointTest, RedirectChainsAreBounded) {
  server_->RedirectNextRequests(100, 308, "/sparql");  // Endless loop.
  auto result = endpoint_->Select(queries::FactsOfPredicate(ClientP()));
  ASSERT_TRUE(result.status().IsInvalidArgument())
      << result.status().ToString();
  // Default bound: the original request + max_redirects (5) hops.
  EXPECT_EQ(server_->requests_served(), 6u);
}

TEST_F(HttpSparqlEndpointTest, FacadeStacksDecoratorsOverHttp) {
  // The full client stack — cache over retry over the HTTP endpoint —
  // composed by the facade's remote constructor.
  auto world = std::move(GenerateWorld(TinyWorldSpec())).value();
  MockSparqlServer candidate_server(world.kb1.get());
  MockSparqlServer reference_server(world.kb2.get());
  auto candidate_transport = candidate_server.MakeTransport();
  auto reference_transport = reference_server.MakeTransport();

  HttpSparqlEndpointOptions c_options;
  c_options.name = world.kb1->name();
  c_options.base_iri = world.kb1->base_iri();
  HttpSparqlEndpointOptions r_options;
  r_options.name = world.kb2->name();
  r_options.base_iri = world.kb2->base_iri();
  auto candidate = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb1.test/sparql").value(), candidate_transport.get(),
      c_options);
  auto reference = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb2.test/sparql").value(), reference_transport.get(),
      r_options);

  SofyaOptions options;
  options.retry.initial_backoff_ms = 0.0;
  Sofya remote(std::move(candidate), std::move(reference), &world.links,
               options);

  // Remote relation discovery costs one SELECT DISTINCT query.
  auto relations = remote.ReferenceRelations();
  ASSERT_TRUE(relations.ok()) << relations.status().ToString();
  ASSERT_FALSE(relations->empty());

  // Alignment over the wire agrees with alignment in-process.
  Sofya local(world.kb1.get(), world.kb2.get(), &world.links, options);
  auto local_relations = local.ReferenceRelations();
  ASSERT_TRUE(local_relations.ok());
  EXPECT_EQ(*relations, *local_relations);

  const std::string relation = relations->front();
  auto remote_result = remote.Align(relation);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
  auto local_result = local.Align(relation);
  ASSERT_TRUE(local_result.ok());
  ASSERT_EQ((*remote_result)->verdicts.size(),
            (*local_result)->verdicts.size());
  for (size_t i = 0; i < (*remote_result)->verdicts.size(); ++i) {
    EXPECT_EQ((*remote_result)->verdicts[i].relation,
              (*local_result)->verdicts[i].relation);
    EXPECT_EQ((*remote_result)->verdicts[i].accepted,
              (*local_result)->verdicts[i].accepted);
  }
  EXPECT_GT(candidate_server.requests_served(), 0u);
  EXPECT_GT(reference_server.requests_served(), 0u);
}

TEST_F(HttpSparqlEndpointTest, PartialBatchRecoveryKeepsVerdictParity) {
  // The end-to-end form of the recovery guarantee: connections die
  // mid-alignment on BOTH endpoints, the retry layer re-buys only the
  // casualties, and the verdicts are bit-identical to a clean local run.
  auto world = std::move(GenerateWorld(MoviesWorldSpec())).value();
  MockSparqlServer candidate_server(world.kb1.get());
  MockSparqlServer reference_server(world.kb2.get());
  auto candidate_transport = candidate_server.MakeTransport();
  auto reference_transport = reference_server.MakeTransport();

  HttpSparqlEndpointOptions c_options;
  c_options.name = world.kb1->name();
  c_options.base_iri = world.kb1->base_iri();
  HttpSparqlEndpointOptions r_options;
  r_options.name = world.kb2->name();
  r_options.base_iri = world.kb2->base_iri();
  auto candidate = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb1.test/sparql").value(), candidate_transport.get(),
      c_options);
  auto reference = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb2.test/sparql").value(), reference_transport.get(),
      r_options);

  SofyaOptions options;
  options.retry.initial_backoff_ms = 0.0;
  Sofya remote(std::move(candidate), std::move(reference), &world.links,
               options);

  // Kill a few connections up front on both servers: the first alignment
  // batches lose in-flight sub-queries and must recover surgically.
  candidate_server.KillConnectionOnNextRequests(2);
  reference_server.KillConnectionOnNextRequests(2);

  const std::string relation = "http://kb2.sofya.org/ontology/directedBy";
  auto remote_result = remote.Align(relation);
  ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();

  Sofya local(world.kb1.get(), world.kb2.get(), &world.links, options);
  auto local_result = local.Align(relation);
  ASSERT_TRUE(local_result.ok());
  ASSERT_EQ((*remote_result)->verdicts.size(),
            (*local_result)->verdicts.size());
  for (size_t i = 0; i < (*remote_result)->verdicts.size(); ++i) {
    const CandidateVerdict& r = (*remote_result)->verdicts[i];
    const CandidateVerdict& l = (*local_result)->verdicts[i];
    EXPECT_EQ(r.relation, l.relation);
    EXPECT_EQ(r.accepted, l.accepted) << r.relation.lexical();
    EXPECT_EQ(r.equivalence, l.equivalence) << r.relation.lexical();
    EXPECT_DOUBLE_EQ(r.rule.pca_conf, l.rule.pca_conf);
  }
}

// ------------------------------------------------------- batch folding

/// Fixture: a SparqlServer (which speaks VALUES) behind a loopback handler
/// that logs request bodies and can fail the next requests with 503.
/// Subjects a, b, c, d hold 10, 3, 2 and 0 objects of p.
class FoldingTest : public ::testing::Test {
 protected:
  FoldingTest() : kb_("foldkb", "http://f.org/"), server_(&kb_) {
    const std::pair<const char*, int> subjects[] = {
        {"a", 10}, {"b", 3}, {"c", 2}};
    for (const auto& [subject, objects] : subjects) {
      for (int i = 0; i < objects; ++i) {
        kb_.AddFact(subject, "p", std::string(subject) + std::to_string(i));
      }
    }
    kb_.AddFact("d", "q", "a0");
    transport_ = std::make_unique<LoopbackTransport>(
        [this](const HttpRequest& request) {
          bool reverse = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            bodies_.push_back(request.body);
            if (fail_next_ > 0) {
              --fail_next_;
              HttpResponse failed;
              failed.status_code = fail_status_;
              failed.reason = "Injected";
              return failed;
            }
            reverse = reverse_slots_;
          }
          if (reverse && request.body.find("VALUES") != std::string::npos) {
            return ReverseSlotOrder(request);
          }
          return server_.Handle(request, HttpServerClient{"client", 0});
        });
    endpoint_ = MakeEndpoint();
  }

  std::unique_ptr<HttpSparqlEndpoint> MakeEndpoint() {
    HttpSparqlEndpointOptions options;
    options.name = "foldkb";
    options.max_connections = 2;
    return std::make_unique<HttpSparqlEndpoint>(
        ParseUrl("http://fold.test/sparql").value(), transport_.get(),
        options);
  }

  /// The next `n` requests get `status` instead of an answer.
  void FailNext(int n, int status) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_next_ = n;
    fail_status_ = status;
  }

  /// From now on folded requests are answered as by a conforming server
  /// that emits the slots' rows last slot first.
  void ReverseSlots() {
    std::lock_guard<std::mutex> lock(mu_);
    reverse_slots_ = true;
  }

  /// The server's answer to `request` without its LIMIT, regrouped by the
  /// first column (a VALUES column) with the groups in reverse order, then
  /// cut at the LIMIT: the rows a server evaluating VALUES in another order
  /// might send. Each slot keeps its own rows' order.
  HttpResponse ReverseSlotOrder(HttpRequest request) {
    uint64_t limit = kNoLimit;
    const size_t at = request.body.rfind(" LIMIT ");
    if (at != std::string::npos) {
      limit = std::stoull(request.body.substr(at + 7));
      request.body.erase(at);
    }
    HttpResponse response =
        server_.Handle(request, HttpServerClient{"client", 0});
    Dictionary terms;
    auto rows = ParseSparqlResultsJson(
        response.body, [&](const Term& t) { return terms.Intern(t); });
    if (response.status_code != 200 || !rows.ok()) return response;
    std::vector<std::vector<std::vector<TermId>>> blocks;
    std::map<TermId, size_t> block_of;
    for (std::vector<TermId>& row : rows->rows) {
      auto [it, inserted] = block_of.emplace(row[0], blocks.size());
      if (inserted) blocks.emplace_back();
      blocks[it->second].push_back(std::move(row));
    }
    rows->rows.clear();
    for (auto block = blocks.rbegin(); block != blocks.rend(); ++block) {
      for (std::vector<TermId>& row : *block) {
        if (rows->rows.size() < limit) rows->rows.push_back(std::move(row));
      }
    }
    response.body = WriteSparqlResultsJson(*rows, [&](TermId id) {
                      return terms.TryDecode(id);
                    }).value();
    return response;
  }

  TermId Iri(const std::string& local) {
    return endpoint_->EncodeTerm(Term::Iri("http://f.org/" + local));
  }

  /// ObjectsOf(subject, p) LIMIT `limit`, for each subject.
  std::vector<SelectQuery> ObjectProbes(std::vector<std::string> subjects,
                                        uint64_t limit) {
    std::vector<SelectQuery> batch;
    for (const std::string& subject : subjects) {
      batch.push_back(queries::ObjectsOf(Iri(subject), Iri("p")).Limit(limit));
    }
    return batch;
  }

  size_t requests() {
    std::lock_guard<std::mutex> lock(mu_);
    return bodies_.size();
  }

  /// Each slot's outcome equals the same query sent on its own.
  void ExpectSinglesAgree(const std::vector<SelectQuery>& batch,
                          const SelectBatchResult& results) {
    ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
    for (size_t i = 0; i < batch.size(); ++i) {
      auto single = endpoint_->Select(batch[i]);
      ASSERT_TRUE(single.ok()) << single.status().ToString();
      EXPECT_EQ(results.values[i].var_names, single->var_names) << i;
      EXPECT_EQ(results.values[i].rows, single->rows) << "slot " << i;
    }
  }

  KnowledgeBase kb_;
  SparqlServer server_;
  std::mutex mu_;
  std::vector<std::string> bodies_;  // Guarded by mu_.
  int fail_next_ = 0;                // Guarded by mu_.
  int fail_status_ = 503;            // Guarded by mu_.
  bool reverse_slots_ = false;       // Guarded by mu_.
  std::unique_ptr<LoopbackTransport> transport_;
  std::unique_ptr<HttpSparqlEndpoint> endpoint_;
};

TEST_F(FoldingTest, OneShapeIsOneRequestAndCountsLogicalQueries) {
  const std::vector<SelectQuery> batch =
      ObjectProbes({"b", "d", "c", "nobody"}, kNoLimit);
  SelectBatchResult results = endpoint_->SelectMany(batch);
  EXPECT_EQ(requests(), 1u);
  EXPECT_NE(bodies_[0].find("VALUES"), std::string::npos) << bodies_[0];
  EXPECT_EQ(endpoint_->stats().queries, 4u);
  EXPECT_EQ(endpoint_->stats().rows_returned, 5u);
  EXPECT_EQ(server_.queries_answered(), 4u);
  ExpectSinglesAgree(batch, results);
}

TEST_F(FoldingTest, SlotWithMoreRowsThanItsLimitIsCut) {
  // LIMIT 2 each, total LIMIT 6: b ships its 3 rows, c its 2, d none. The
  // total is not reached, so nothing is re-sent, and b is cut to 2.
  const std::vector<SelectQuery> batch = ObjectProbes({"b", "c", "d"}, 2);
  SelectBatchResult results = endpoint_->SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(requests(), 1u);
  EXPECT_EQ(results.values[0].rows.size(), 2u);
  EXPECT_EQ(results.values[1].rows.size(), 2u);
  EXPECT_EQ(results.values[2].rows.size(), 0u);
  ExpectSinglesAgree(batch, results);
}

TEST_F(FoldingTest, ReachedTotalLimitResendsEverySlotBelowItsLimit) {
  // LIMIT 4 each, total 12: the response holds a's 10 rows and b's first
  // 2, so b may be cut short (2 < 4) and c went unanswered. a is complete
  // (its 4 rows are in), so b and c — and only they — go out again, folded.
  const std::vector<SelectQuery> batch = ObjectProbes({"a", "b", "c"}, 4);
  SelectBatchResult results = endpoint_->SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(requests(), 2u);
  EXPECT_NE(bodies_[1].find("VALUES"), std::string::npos) << bodies_[1];
  EXPECT_EQ(results.values[0].rows.size(), 4u);
  EXPECT_EQ(results.values[1].rows.size(), 3u);
  EXPECT_EQ(results.values[2].rows.size(), 2u);
  EXPECT_EQ(endpoint_->stats().queries, 3u);  // Logical, not requests.
  ExpectSinglesAgree(batch, results);

  // LIMIT 5, total 10, all of them a's: a is complete at its own LIMIT,
  // so only d goes out again, on its own.
  const size_t before = requests();
  const std::vector<SelectQuery> full = ObjectProbes({"a", "d"}, 5);
  SelectBatchResult filled = endpoint_->SelectMany(full);
  EXPECT_EQ(requests() - before, 2u);
  ExpectSinglesAgree(full, filled);
}

TEST_F(FoldingTest, SplitDoesNotAssumeBlockOrder) {
  // LIMIT 4 each, total 12, answered last slot first: a's 10 rows, then
  // c's 2, and b's 3 never fit. The last row is c's, yet b, before it, got
  // nothing: every slot below its LIMIT goes again, wherever it sits.
  ReverseSlots();
  const std::vector<SelectQuery> batch = ObjectProbes({"b", "c", "a"}, 4);
  SelectBatchResult results = endpoint_->SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(requests(), 2u);  // The fold, then b and c folded again.
  EXPECT_EQ(results.values[0].rows.size(), 3u);
  EXPECT_EQ(results.values[1].rows.size(), 2u);
  EXPECT_EQ(results.values[2].rows.size(), 4u);
  EXPECT_EQ(endpoint_->stats().queries, 3u);
  ExpectSinglesAgree(batch, results);
}

TEST_F(FoldingTest, FailedFoldedRequestFailsEverySlotAndRetryRecovers) {
  const std::vector<SelectQuery> batch =
      ObjectProbes({"a", "b", "c", "d"}, kNoLimit);
  FailNext(1, 503);
  SelectBatchResult failed = endpoint_->SelectMany(batch);
  EXPECT_EQ(failed.num_failed(), batch.size());
  for (const Status& status : failed.statuses) {
    EXPECT_TRUE(status.IsUnavailable()) << status.ToString();
  }

  RetryOptions retry;
  retry.max_retries = 2;
  retry.initial_backoff_ms = 0.0;
  RetryingEndpoint recovering(endpoint_.get(), retry);
  FailNext(1, 503);
  const size_t before = requests();
  SelectBatchResult recovered = recovering.SelectMany(batch);
  // The failed folded request, then the first slot alone as a canary, then
  // the other three folded again: the retry layer recovers a fold folded.
  EXPECT_EQ(requests() - before, 1u + 1u + 1u);
  ExpectSinglesAgree(batch, recovered);
}

TEST_F(FoldingTest, RefusedFoldGoesSinglyAndFoldingStops) {
  // 400 and 501 refuse VALUES itself: the slots go out one by one, and once
  // they succeed the endpoint sends no more folded requests.
  for (int status : {400, 501}) {
    endpoint_ = MakeEndpoint();
    const std::vector<SelectQuery> batch =
        ObjectProbes({"a", "b", "c", "d"}, kNoLimit);
    FailNext(1, status);
    size_t before = requests();
    SelectBatchResult results = endpoint_->SelectMany(batch);
    EXPECT_EQ(requests() - before, 1 + batch.size()) << status;
    EXPECT_EQ(endpoint_->stats().queries, batch.size()) << status;
    ExpectSinglesAgree(batch, results);

    before = requests();
    ASSERT_TRUE(endpoint_->SelectMany(batch).all_ok());
    EXPECT_EQ(requests() - before, batch.size()) << status;
  }
}

TEST_F(FoldingTest, TooLargeFoldGoesInHalvesAndFoldingGoesOn) {
  // 413 and 414 refuse one request for its size, not VALUES: the group
  // goes again in two folded halves, and later batches still fold.
  for (int status : {413, 414}) {
    endpoint_ = MakeEndpoint();
    const std::vector<SelectQuery> batch =
        ObjectProbes({"a", "b", "c", "d"}, kNoLimit);
    FailNext(1, status);
    size_t before = requests();
    SelectBatchResult results = endpoint_->SelectMany(batch);
    EXPECT_EQ(requests() - before, 3u) << status;
    EXPECT_EQ(endpoint_->stats().queries, batch.size()) << status;
    ExpectSinglesAgree(batch, results);

    // The first half refused too: its two slots go singly.
    FailNext(2, status);
    before = requests();
    results = endpoint_->SelectMany(batch);
    EXPECT_EQ(requests() - before, 5u) << status;
    ExpectSinglesAgree(batch, results);

    before = requests();
    ASSERT_TRUE(endpoint_->SelectMany(batch).all_ok());
    EXPECT_EQ(requests() - before, 1u) << status;
  }
}

TEST_F(FoldingTest, AskGroupsFold) {
  // ASK { <s> <p> ?y FILTER(?y = <o>) }: both the subject and the filter
  // constant differ across the group.
  std::vector<SelectQuery> batch;
  const std::pair<const char*, const char*> probes[] = {
      {"a", "a3"}, {"a", "b1"}, {"b", "b1"}, {"d", "a0"}, {"c", "c1"}};
  for (const auto& [subject, object] : probes) {
    SelectQuery probe = queries::ObjectsOf(Iri(subject), Iri("p"));
    probe.Filter(FilterExpr::VarEqTerm(0, Iri(object)));
    batch.push_back(probe);
  }
  AskBatchResult results = endpoint_->AskMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(requests(), 1u);
  EXPECT_EQ(results.values,
            (std::vector<bool>{true, false, true, false, true}));
  EXPECT_EQ(endpoint_->stats().queries, batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    auto single = endpoint_->Ask(batch[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(*single, results.values[i]) << "slot " << i;
  }
}

TEST_F(HttpSparqlEndpointTest, ServerWithoutValuesGetsSlotsSingly) {
  // MockSparqlServer refuses VALUES with 400: the folded request's slots
  // go out one by one with the same answers, and once they succeed the
  // endpoint stops folding — the next batch sends no refused request.
  LocalEndpoint local(&kb_);
  std::vector<SelectQuery> batch;
  std::vector<SelectQuery> local_batch;
  for (int i = 0; i < 4; ++i) {
    const std::string s = "http://t.org/s" + std::to_string(i);
    batch.push_back(queries::ObjectsOf(endpoint_->EncodeTerm(Term::Iri(s)),
                                       ClientP()));
    local_batch.push_back(queries::ObjectsOf(
        local.LookupTerm(Term::Iri(s)),
        local.LookupTerm(Term::Iri("http://t.org/p"))));
  }
  SelectBatchResult results = endpoint_->SelectMany(batch);
  ASSERT_TRUE(results.all_ok()) << results.FirstError().ToString();
  EXPECT_EQ(server_->requests_served(), 5u);  // Refused fold + 4 singles.
  SelectBatchResult expected = local.SelectMany(local_batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results.values[i].rows.size(), expected.values[i].rows.size());
    for (size_t r = 0; r < expected.values[i].rows.size(); ++r) {
      EXPECT_EQ(endpoint_->DecodeTerm(results.values[i].rows[r][0])->lexical(),
                local.DecodeTerm(expected.values[i].rows[r][0])->lexical());
    }
  }
  EXPECT_EQ(endpoint_->stats().queries, 4u);

  ASSERT_TRUE(endpoint_->SelectMany(batch).all_ok());
  EXPECT_EQ(server_->requests_served(), 9u);  // 4 singles, no VALUES try.
}

}  // namespace
}  // namespace sofya
