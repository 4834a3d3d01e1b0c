// SparqlServer end-to-end: the SPARQL 1.1 Protocol bindings (GET ?query=,
// POST application/sparql-query, form POST), admission control (503/429
// shedding + Retry-After honored by the client retry stack), and the parity
// guarantee — an alignment through the server, over loopback AND over a
// real socket, is bit-identical to the same alignment on the local KB.

#include "endpoint/sparql_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/facade.h"
#include "endpoint/http_sparql_endpoint.h"
#include "endpoint/query_forms.h"
#include "endpoint/retrying_endpoint.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/loopback_transport.h"
#include "rdf/knowledge_base.h"
#include "sparql/results_json.h"
#include "synth/presets.h"
#include "synth/world_generator.h"

namespace sofya {
namespace {

/// Fixture: a small KB served by a SparqlServer, reachable through a
/// loopback transport exactly like a remote endpoint.
class SparqlServerTest : public ::testing::Test {
 protected:
  SparqlServerTest() : kb_("served", "http://t.org/") {
    for (int i = 0; i < 10; ++i) {
      kb_.AddFact("s" + std::to_string(i), "p", "o" + std::to_string(i % 3));
    }
    kb_.AddLiteralFact("s0", "label", "zero");
  }

  void StartServer(SparqlServerOptions options = {}) {
    server_ = std::make_unique<SparqlServer>(&kb_, std::move(options));
    transport_ = std::make_unique<LoopbackTransport>(
        server_->LoopbackHandler("client-a"));
  }

  std::unique_ptr<HttpSparqlEndpoint> MakeEndpoint(bool use_get = false) {
    HttpSparqlEndpointOptions options;
    options.name = "served";
    options.base_iri = "http://t.org/";
    options.use_get = use_get;
    return std::make_unique<HttpSparqlEndpoint>(
        ParseUrl("http://served.test/sparql").value(), transport_.get(),
        options);
  }

  /// A protocol request assembled by hand (for routing/negative cases).
  HttpResponse Dispatch(HttpRequest request,
                        const std::string& client = "client-a") {
    return server_->Handle(request, HttpServerClient{client, 0});
  }

  /// A POST of `sparql` as application/sparql-query.
  HttpResponse Post(const std::string& sparql,
                    const std::string& client = "client-a") {
    HttpRequest request;
    request.method = "POST";
    request.target = "/sparql";
    request.headers = {{"Content-Type", "application/sparql-query"}};
    request.body = sparql;
    return Dispatch(request, client);
  }

  /// The rows of a SELECT response, decoded through a private dictionary
  /// and spelled in N-Triples.
  std::vector<std::vector<std::string>> Rows(const HttpResponse& response) {
    Dictionary dict;
    auto results = ParseSparqlResultsJson(
        response.body, [&dict](const Term& t) { return dict.Intern(t); });
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    std::vector<std::vector<std::string>> rows;
    if (!results.ok()) return rows;
    for (const auto& row : results->rows) {
      rows.emplace_back();
      for (TermId id : row) {
        rows.back().push_back(id == kNullTermId ? "-"
                                                : dict.Decode(id).ToNTriples());
      }
    }
    return rows;
  }

  TermId ClientP(HttpSparqlEndpoint* ep) {
    return ep->EncodeTerm(Term::Iri("http://t.org/p"));
  }

  KnowledgeBase kb_;
  std::unique_ptr<SparqlServer> server_;
  std::unique_ptr<LoopbackTransport> transport_;
};

TEST_F(SparqlServerTest, PostBindingRoundTrips) {
  StartServer();
  auto endpoint = MakeEndpoint();
  auto result = endpoint->Select(queries::FactsOfPredicate(ClientP(
      endpoint.get())));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  EXPECT_EQ(server_->queries_answered(), 1u);
}

TEST_F(SparqlServerTest, GetBindingRoundTripsThroughPercentCodec) {
  // use_get routes the query through FormUrlEncode on the client and
  // ParseQueryString on the server — SPARQL text full of spaces, '?', '<',
  // '{' survives the round trip or this returns nothing.
  StartServer();
  auto endpoint = MakeEndpoint(/*use_get=*/true);
  auto result = endpoint->Select(queries::FactsOfPredicate(ClientP(
      endpoint.get())));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);

  auto ask = endpoint->Ask(queries::FactsOfPredicate(ClientP(
      endpoint.get())));
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_TRUE(*ask);
}

TEST_F(SparqlServerTest, FormPostBindingIsAccepted) {
  StartServer();
  HttpRequest request;
  request.method = "POST";
  request.target = "/sparql";
  request.headers = {
      {"Content-Type", "application/x-www-form-urlencoded"}};
  request.body =
      "query=" +
      FormUrlEncode("SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }");
  HttpResponse response = Dispatch(request);
  ASSERT_EQ(response.status_code, 200) << response.body;

  Dictionary dict;
  auto rows = ParseSparqlResultsJson(
      response.body, [&dict](const Term& t) { return dict.Intern(t); });
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 10u);
}

TEST_F(SparqlServerTest, RoutingAndNegotiationErrors) {
  StartServer();

  HttpRequest wrong_path;
  wrong_path.method = "GET";
  wrong_path.target = "/other?query=x";
  EXPECT_EQ(Dispatch(wrong_path).status_code, 404);

  HttpRequest no_query;
  no_query.method = "GET";
  no_query.target = "/sparql?other=1";
  EXPECT_EQ(Dispatch(no_query).status_code, 400);

  HttpRequest bad_escape;
  bad_escape.method = "GET";
  bad_escape.target = "/sparql?query=%zz";
  EXPECT_EQ(Dispatch(bad_escape).status_code, 400);

  HttpRequest bad_media;
  bad_media.method = "POST";
  bad_media.target = "/sparql";
  bad_media.headers = {{"Content-Type", "text/plain"}};
  bad_media.body = "SELECT ?s WHERE { ?s ?p ?o }";
  EXPECT_EQ(Dispatch(bad_media).status_code, 415);

  HttpRequest bad_method;
  bad_method.method = "DELETE";
  bad_method.target = "/sparql";
  EXPECT_EQ(Dispatch(bad_method).status_code, 405);

  HttpRequest bad_sparql;
  bad_sparql.method = "POST";
  bad_sparql.target = "/sparql";
  bad_sparql.headers = {{"Content-Type", "application/sparql-query"}};
  bad_sparql.body = "SELEKT nope";
  EXPECT_EQ(Dispatch(bad_sparql).status_code, 400);

  // Content-Type parameters do not break negotiation.
  HttpRequest with_charset;
  with_charset.method = "POST";
  with_charset.target = "/sparql";
  with_charset.headers = {
      {"Content-Type", "application/sparql-query; charset=UTF-8"}};
  with_charset.body = "SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }";
  EXPECT_EQ(Dispatch(with_charset).status_code, 200);
}

TEST_F(SparqlServerTest, StatusEndpointReportsJsonCounters) {
  StartServer();

  HttpRequest status;
  status.method = "GET";
  status.target = "/status";
  HttpResponse before = Dispatch(status);
  ASSERT_EQ(before.status_code, 200) << before.body;
  EXPECT_NE(before.body.find("\"requests\""), std::string::npos);
  EXPECT_NE(before.body.find("\"admission\""), std::string::npos);
  EXPECT_NE(before.body.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(before.body.find("\"store\""), std::string::npos);
  EXPECT_NE(before.body.find("\"answered\":0"), std::string::npos);
  // The store section reports the served KB's true size.
  EXPECT_NE(before.body.find("\"triples\":" + std::to_string(kb_.store().size())),
            std::string::npos);

  // Introspection is not a SPARQL query: it must not consume quota or
  // concurrency, and the query counters only move for real queries.
  auto endpoint = MakeEndpoint();
  ASSERT_TRUE(endpoint->Select(queries::FactsOfPredicate(ClientP(
      endpoint.get()))).ok());
  HttpResponse after = Dispatch(status);
  ASSERT_EQ(after.status_code, 200);
  EXPECT_NE(after.body.find("\"answered\":1"), std::string::npos);

  // Writes are not part of the protocol: anything but GET is rejected.
  HttpRequest post_status = status;
  post_status.method = "POST";
  HttpResponse rejected = Dispatch(post_status);
  EXPECT_EQ(rejected.status_code, 405);
}

TEST_F(SparqlServerTest, QuotaShedsWith429AndRetryAfter) {
  SparqlServerOptions options;
  options.per_client_query_quota = 2;
  options.retry_after_seconds = 7.0;
  StartServer(std::move(options));

  HttpRequest request;
  request.method = "POST";
  request.target = "/sparql";
  request.headers = {{"Content-Type", "application/sparql-query"}};
  request.body = "SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }";

  EXPECT_EQ(Dispatch(request).status_code, 200);
  EXPECT_EQ(Dispatch(request).status_code, 200);
  HttpResponse shed = Dispatch(request);
  EXPECT_EQ(shed.status_code, 429);
  const std::string* retry_after = FindHeader(shed.headers, "Retry-After");
  ASSERT_NE(retry_after, nullptr);
  EXPECT_EQ(*retry_after, "7");
  EXPECT_EQ(server_->shed_quota(), 1u);

  // The quota is per client: another client still gets answers.
  EXPECT_EQ(Dispatch(request, "client-b").status_code, 200);
}

TEST_F(SparqlServerTest, OverflowingLimitIsRefusedAndServingGoesOn) {
  // A LIMIT past 2^64 once threw out of the parser and took the whole
  // process down; now it is a 400 like any other malformed query.
  StartServer();
  HttpResponse refused = Post(
      "SELECT ?s WHERE { ?s <http://t.org/p> ?o } "
      "LIMIT 99999999999999999999999");
  EXPECT_EQ(refused.status_code, 400) << refused.body;
  EXPECT_NE(refused.body.find("out of range"), std::string::npos);
  HttpResponse answered =
      Post("SELECT ?s WHERE { ?s <http://t.org/p> ?o } LIMIT 3");
  ASSERT_EQ(answered.status_code, 200) << answered.body;
  EXPECT_EQ(Rows(answered).size(), 3u);
}

TEST_F(SparqlServerTest, ValuesQueryAnswersRowsInBlockOrder) {
  StartServer();
  HttpResponse response = Post(
      "SELECT ?s ?o WHERE { VALUES (?s) { (<http://t.org/s4>) "
      "(<http://t.org/nobody>) (<http://t.org/s2>) } ?s <http://t.org/p> ?o }");
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_EQ(Rows(response),
            (std::vector<std::vector<std::string>>{
                {"<http://t.org/s4>", "<http://t.org/o1>"},
                {"<http://t.org/s2>", "<http://t.org/o2>"}}));
  // One answered query per VALUES row.
  EXPECT_EQ(server_->queries_answered(), 3u);
  EXPECT_EQ(server_->requests_received(), 1u);
}

TEST_F(SparqlServerTest, ValuesVariableOutsideEveryPatternIsRefused) {
  StartServer();
  // ?x is in no pattern and equals no pattern variable: an unknown cell
  // would have to be shipped back, so the query is refused.
  EXPECT_EQ(Post("SELECT ?x ?s WHERE { VALUES (?x) { (<http://t.org/zz>) } "
                 "?s <http://t.org/p> ?o }")
                .status_code,
            400);
  EXPECT_EQ(Post("SELECT ?x ?s WHERE { VALUES (?x) { (<http://t.org/zz>) } "
                 "?s <http://t.org/p> ?o FILTER(?o != ?x) }")
                .status_code,
            400);
  // `= ?x` to a pattern variable is allowed: an unknown cell never matches.
  HttpResponse eq = Post(
      "SELECT ?x ?s WHERE { VALUES (?x) { (<http://t.org/zz>) "
      "(<http://t.org/o0>) } ?s <http://t.org/p> ?o FILTER(?o = ?x) }");
  ASSERT_EQ(eq.status_code, 200) << eq.body;
  EXPECT_EQ(Rows(eq).size(), 4u);  // s0, s3, s6, s9 have o0.
}

TEST_F(SparqlServerTest, UnknownConstantsDoNotGrowTheServedDictionary) {
  StartServer();
  const size_t dict_size = kb_.dict().size();
  const std::string known =
      Post("SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }").body;
  for (int i = 0; i < 1000; ++i) {
    const std::string unseen = "<http://t.org/unseen" + std::to_string(i) + ">";
    HttpResponse pattern =
        Post("SELECT ?o WHERE { " + unseen + " <http://t.org/p> ?o }");
    ASSERT_EQ(pattern.status_code, 200) << pattern.body;
    ASSERT_TRUE(Rows(pattern).empty());
    if (i % 100 == 0) {
      // `= <unknown>` fails for every row, `!= <unknown>` holds for all.
      const std::string body = "{ ?s <http://t.org/p> ?o FILTER(?o ";
      EXPECT_TRUE(Rows(Post("SELECT ?s WHERE " + body + "= " + unseen + ") }"))
                      .empty());
      EXPECT_EQ(Rows(Post("SELECT ?s WHERE " + body + "!= " + unseen + ") }"))
                    .size(),
                10u);
    }
  }
  EXPECT_EQ(kb_.dict().size(), dict_size);
  EXPECT_EQ(Post("SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }").body, known);
}

TEST_F(SparqlServerTest, QuotaChargesEveryValuesRow) {
  SparqlServerOptions options;
  options.per_client_query_quota = 3;
  StartServer(std::move(options));
  const std::string two_rows =
      "SELECT ?s WHERE { VALUES (?o) { (<http://t.org/o0>) "
      "(<http://t.org/o1>) } ?s <http://t.org/p> ?o }";
  const std::string one_row = "SELECT ?s WHERE { ?s <http://t.org/p> ?o }";
  EXPECT_EQ(Post(two_rows).status_code, 200);  // 2 of 3 spent.
  // Two more rows would pass the quota: the whole request is refused.
  HttpResponse over = Post(two_rows);
  EXPECT_EQ(over.status_code, 429);
  EXPECT_NE(FindHeader(over.headers, "Retry-After"), nullptr);
  EXPECT_EQ(Post(one_row).status_code, 200);  // 3 of 3: exactly at quota.
  EXPECT_EQ(Post(one_row).status_code, 429);
  EXPECT_EQ(server_->shed_quota(), 2u);
  EXPECT_EQ(server_->queries_answered(), 3u);

  HttpRequest status;
  status.method = "GET";
  status.target = "/status";
  const std::string json = Dispatch(status).body;
  EXPECT_NE(json.find("\"served\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"remaining_quota\":0"), std::string::npos) << json;
}

TEST_F(SparqlServerTest, ConcurrencyCapSheds503ThenRecovers) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool inside = false;
  SparqlServerOptions options;
  options.max_concurrent = 1;
  options.pre_evaluate_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    inside = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartServer(std::move(options));

  HttpRequest request;
  request.method = "POST";
  request.target = "/sparql";
  request.headers = {{"Content-Type", "application/sparql-query"}};
  request.body = "SELECT ?s ?o WHERE { ?s <http://t.org/p> ?o }";

  // One query parks inside evaluation, holding the only slot...
  std::thread blocked([&] { EXPECT_EQ(Dispatch(request).status_code, 200); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inside; });
  }
  // ...so the next request is shed with 503 + Retry-After.
  HttpResponse shed = Dispatch(request, "client-b");
  EXPECT_EQ(shed.status_code, 503);
  EXPECT_NE(FindHeader(shed.headers, "Retry-After"), nullptr);
  EXPECT_EQ(server_->shed_concurrency(), 1u);

  // Release the slot: the server recovers, no restart needed.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  blocked.join();
  options.pre_evaluate_hook = nullptr;
  HttpResponse recovered = Dispatch(request, "client-b");
  EXPECT_EQ(recovered.status_code, 200);
}

TEST_F(SparqlServerTest, AtCapacityARequestIsShedBeforeItIsParsed) {
  // The caps are checked before the parse: with the only slot taken, a
  // malformed query is shed 503, not answered 400, and costs no quota.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool inside = false;
  SparqlServerOptions options;
  options.max_concurrent = 1;
  options.per_client_query_quota = 2;
  options.pre_evaluate_hook = [&] {
    std::unique_lock<std::mutex> lock(mu);
    inside = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartServer(std::move(options));

  std::thread blocked([&] {
    EXPECT_EQ(Post("SELECT ?s WHERE { ?s <http://t.org/p> ?o }").status_code,
              200);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inside; });
  }
  EXPECT_EQ(Post("SELECT ?s WHERE { ?s", "client-b").status_code, 503);
  EXPECT_EQ(server_->shed_concurrency(), 1u);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  blocked.join();

  // With the slot free, the same request is parsed: a 400, still free.
  EXPECT_EQ(Post("SELECT ?s WHERE { ?s", "client-b").status_code, 400);
  EXPECT_EQ(Post("SELECT ?s WHERE { ?s <http://t.org/p> ?o }", "client-b")
                .status_code,
            200);
  EXPECT_EQ(Post("SELECT ?s WHERE { ?s <http://t.org/p> ?o }", "client-b")
                .status_code,
            200);
  EXPECT_EQ(server_->shed_quota(), 0u);
}

TEST_F(SparqlServerTest, ShedResponsesDriveTheClientRetrySchedule) {
  // End to end: a 503 shed's Retry-After is honored by RetryingEndpoint.
  // The first request parks a slot via the hook, the probe is shed with
  // Retry-After: 2, the retry stack sleeps exactly 2000 ms (collected, not
  // slept) and succeeds once the slot frees.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  bool inside = false;
  std::atomic<bool> hook_armed{true};
  SparqlServerOptions options;
  options.max_concurrent = 1;
  options.retry_after_seconds = 2.0;
  options.pre_evaluate_hook = [&] {
    if (!hook_armed.exchange(false)) return;  // Only the first query parks.
    std::unique_lock<std::mutex> lock(mu);
    inside = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  StartServer(std::move(options));
  auto endpoint = MakeEndpoint();

  std::thread blocked([&] {
    auto result = endpoint->Select(
        queries::FactsOfPredicate(ClientP(endpoint.get())));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return inside; });
  }

  std::vector<double> delays;
  RetryOptions retry;
  retry.max_retries = 10;
  retry.initial_backoff_ms = 5.0;
  retry.jitter = 0.0;
  retry.sleeper = [&](double ms) {
    delays.push_back(ms);
    // First shed observed: free the parked slot so a retry can succeed.
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
      cv.notify_all();
    }
    // Give the parked query a beat to finish and return its slot (the
    // asserted schedule is `delays`, not wall time).
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  RetryingEndpoint retrying(endpoint.get(), retry);
  auto result = retrying.Select(
      queries::FactsOfPredicate(ClientP(endpoint.get())));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 10u);
  blocked.join();

  ASSERT_FALSE(delays.empty());
  // The honored delay is the server's hint, not the 5 ms schedule.
  EXPECT_DOUBLE_EQ(delays[0], 2000.0);
}

// ------------------------------------------------------------ parity suite

/// Builds the facade over two SparqlServers reachable through `transports`
/// (loopback or socket endpoints built by the caller).
void ExpectAlignmentParity(Sofya& remote, Sofya& local) {
  auto remote_relations = remote.ReferenceRelations();
  ASSERT_TRUE(remote_relations.ok())
      << remote_relations.status().ToString();
  auto local_relations = local.ReferenceRelations();
  ASSERT_TRUE(local_relations.ok());
  EXPECT_EQ(*remote_relations, *local_relations);
  ASSERT_FALSE(remote_relations->empty());

  for (const std::string& relation : *remote_relations) {
    auto remote_result = remote.Align(relation);
    ASSERT_TRUE(remote_result.ok()) << remote_result.status().ToString();
    auto local_result = local.Align(relation);
    ASSERT_TRUE(local_result.ok());
    ASSERT_EQ((*remote_result)->verdicts.size(),
              (*local_result)->verdicts.size())
        << relation;
    for (size_t i = 0; i < (*remote_result)->verdicts.size(); ++i) {
      EXPECT_EQ((*remote_result)->verdicts[i].relation,
                (*local_result)->verdicts[i].relation);
      EXPECT_EQ((*remote_result)->verdicts[i].accepted,
                (*local_result)->verdicts[i].accepted);
      EXPECT_EQ((*remote_result)->verdicts[i].equivalence,
                (*local_result)->verdicts[i].equivalence);
    }
  }
}

TEST(SparqlServerParityTest, LoopbackAlignmentMatchesLocalBitForBit) {
  auto world = std::move(GenerateWorld(TinyWorldSpec())).value();
  SparqlServer candidate_server(world.kb1.get());
  SparqlServer reference_server(world.kb2.get());
  LoopbackTransport candidate_transport(
      candidate_server.LoopbackHandler("aligner"));
  LoopbackTransport reference_transport(
      reference_server.LoopbackHandler("aligner"));

  HttpSparqlEndpointOptions c_options;
  c_options.name = world.kb1->name();
  c_options.base_iri = world.kb1->base_iri();
  HttpSparqlEndpointOptions r_options;
  r_options.name = world.kb2->name();
  r_options.base_iri = world.kb2->base_iri();
  auto candidate = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb1.test/sparql").value(), &candidate_transport,
      c_options);
  auto reference = std::make_unique<HttpSparqlEndpoint>(
      ParseUrl("http://kb2.test/sparql").value(), &reference_transport,
      r_options);

  SofyaOptions options;
  options.retry.initial_backoff_ms = 0.0;
  Sofya remote(std::move(candidate), std::move(reference), &world.links,
               options);
  Sofya local(world.kb1.get(), world.kb2.get(), &world.links, options);
  ExpectAlignmentParity(remote, local);

  // The server really answered the alignment's queries.
  EXPECT_GT(candidate_server.queries_answered(), 0u);
  EXPECT_GT(reference_server.queries_answered(), 0u);
  // And the wire added exactly one query of cost: ReferenceRelations()
  // enumerates the schema query-free on a local KB but costs one
  // SELECT DISTINCT ?p against a remote base. Everything else — probes,
  // batch dedup, paging — is query-for-query identical, because
  // HttpSparqlEndpoint dedups batch envelopes exactly like LocalEndpoint.
  EXPECT_EQ(remote.TotalCost().queries, local.TotalCost().queries + 1);
}

TEST(SparqlServerParityTest, RealSocketAlignmentMatchesLocalBitForBit) {
  // The full production path: two HttpServers on real ephemeral ports,
  // endpoints built from URLs via HttpSparqlEndpoint::Create (socket
  // transport), alignment verdicts identical to the in-process run.
  auto world = std::move(GenerateWorld(TinyWorldSpec())).value();
  SparqlServer candidate_server(world.kb1.get());
  SparqlServer reference_server(world.kb2.get());
  HttpServer candidate_http(candidate_server.HttpHandler());
  HttpServer reference_http(reference_server.HttpHandler());
  ASSERT_TRUE(candidate_http.Start().ok());
  ASSERT_TRUE(reference_http.Start().ok());

  HttpSparqlEndpointOptions c_options;
  c_options.name = world.kb1->name();
  c_options.base_iri = world.kb1->base_iri();
  HttpSparqlEndpointOptions r_options;
  r_options.name = world.kb2->name();
  r_options.base_iri = world.kb2->base_iri();
  auto candidate = HttpSparqlEndpoint::Create(
      "http://127.0.0.1:" + std::to_string(candidate_http.port()) +
          "/sparql",
      c_options);
  ASSERT_TRUE(candidate.ok()) << candidate.status().ToString();
  auto reference = HttpSparqlEndpoint::Create(
      "http://127.0.0.1:" + std::to_string(reference_http.port()) +
          "/sparql",
      r_options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  SofyaOptions options;
  options.retry.initial_backoff_ms = 0.0;
  Sofya remote(std::move(*candidate), std::move(*reference), &world.links,
               options);
  Sofya local(world.kb1.get(), world.kb2.get(), &world.links, options);
  ExpectAlignmentParity(remote, local);

  EXPECT_GT(candidate_http.requests_served(), 0u);
  EXPECT_GT(reference_http.requests_served(), 0u);
  candidate_http.Stop();
  reference_http.Stop();
}

}  // namespace
}  // namespace sofya
