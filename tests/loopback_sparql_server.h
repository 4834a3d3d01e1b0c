// Test fixture: an in-process mock SPARQL server behind LoopbackTransport.
//
// The server side of the wire is real in every layer that matters: requests
// arrive as HTTP bytes, the SPARQL text in the body is parsed with the
// production parser, evaluated on a LocalEndpoint over a KnowledgeBase, and
// the ResultSet is serialized with the production
// application/sparql-results+json writer. On top of that sit the
// misbehaviors the hardening tests need: 503 bursts, over-long pages
// (a server that ignores LIMIT), connection drops, and a request log. Like a
// SPARQL 1.0 endpoint it does not speak inline data: a query with a VALUES
// block is refused 400, so clients that fold batches fall back to singles.
//
// Thread-safe: HttpSparqlEndpoint's SelectMany fans requests out across
// pool threads, so every knob and counter is mutex-guarded.

#ifndef SOFYA_TESTS_LOOPBACK_SPARQL_SERVER_H_
#define SOFYA_TESTS_LOOPBACK_SPARQL_SERVER_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "net/http.h"
#include "net/loopback_transport.h"
#include "rdf/knowledge_base.h"
#include "sparql/parser.h"
#include "sparql/results_json.h"
#include "util/string_util.h"

namespace sofya {

/// Mock SPARQL-protocol server; see file comment. The KnowledgeBase is
/// borrowed and must outlive the server.
class MockSparqlServer {
 public:
  explicit MockSparqlServer(KnowledgeBase* kb) : kb_(kb), local_(kb) {}

  /// A transport whose connections terminate at this server. The server
  /// must outlive every transport it hands out.
  std::unique_ptr<LoopbackTransport> MakeTransport() {
    return std::make_unique<LoopbackTransport>(
        [this](const HttpRequest& request) { return Handle(request); });
  }

  // ------------------------------------------------------------- knobs

  /// The next `n` requests fail with `http_status` (default: a 503 burst).
  /// `retry_after_s` >= 0 attaches a Retry-After hint; the default omits
  /// the header, so clients fall back to their own backoff schedule.
  void FailNextRequests(int n, int http_status = 503,
                        int retry_after_s = -1) {
    std::lock_guard<std::mutex> lock(mu_);
    fail_requests_remaining_ = n;
    fail_status_ = http_status;
    fail_retry_after_s_ = retry_after_s;
  }

  /// Misbehave: every SELECT response carries up to `extra` rows *beyond*
  /// the query's LIMIT (a server that ignores LIMIT). 0 restores sanity.
  void OverdeliverRows(size_t extra) {
    std::lock_guard<std::mutex> lock(mu_);
    extra_rows_ = extra;
  }

  /// Answer the next `n` requests with truncated garbage ("Connection:
  /// close" + half a JSON document) to exercise client parse-error paths.
  void CorruptNextResponses(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    corrupt_responses_remaining_ = n;
  }

  /// Close the connection after each response (keep-alive off), forcing
  /// the client through its reconnect path.
  void CloseAfterEachResponse(bool close) {
    std::lock_guard<std::mutex> lock(mu_);
    close_after_response_ = close;
  }

  /// Kill the connection (no response bytes at all) on the next `n`
  /// requests — a server process dying mid-pipeline. Only the sub-queries
  /// in flight on the killed connection are affected.
  void KillConnectionOnNextRequests(int n) {
    std::lock_guard<std::mutex> lock(mu_);
    kill_requests_remaining_ = n;
  }

  /// Answer the next `n` requests with `http_status` + a Location header —
  /// redirect drills. Pass an absolute URL or an origin-form path.
  void RedirectNextRequests(int n, int http_status,
                            const std::string& location) {
    std::lock_guard<std::mutex> lock(mu_);
    redirect_requests_remaining_ = n;
    redirect_status_ = http_status;
    redirect_location_ = location;
  }

  // ---------------------------------------------------------- counters

  size_t requests_served() const {
    std::lock_guard<std::mutex> lock(mu_);
    return requests_served_;
  }

  /// Raw SPARQL query texts, in arrival order.
  std::vector<std::string> queries_received() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queries_received_;
  }

  LocalEndpoint& local() { return local_; }

 private:
  HttpResponse Handle(const HttpRequest& request) {
    bool corrupt = false;
    bool close = false;
    bool kill = false;
    int fail_status = 0;
    int fail_retry_after_s = -1;
    int redirect_status = 0;
    std::string redirect_location;
    size_t extra_rows = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++requests_served_;
      queries_received_.push_back(request.body);
      if (fail_requests_remaining_ > 0) {
        --fail_requests_remaining_;
        fail_status = fail_status_;
        fail_retry_after_s = fail_retry_after_s_;
      }
      if (kill_requests_remaining_ > 0) {
        --kill_requests_remaining_;
        kill = true;
      }
      if (redirect_requests_remaining_ > 0) {
        --redirect_requests_remaining_;
        redirect_status = redirect_status_;
        redirect_location = redirect_location_;
      }
      if (corrupt_responses_remaining_ > 0) {
        --corrupt_responses_remaining_;
        corrupt = true;
      }
      close = close_after_response_;
      extra_rows = extra_rows_;
    }

    HttpResponse response;
    if (kill) {
      response.status_code = LoopbackTransport::kKillConnection;
      return response;
    }
    if (redirect_status != 0) {
      response.status_code = redirect_status;
      response.reason = "Redirect";
      response.headers.push_back({"Location", redirect_location});
      return response;
    }
    if (close) response.headers.push_back({"Connection", "close"});
    if (fail_status != 0) {
      response.status_code = fail_status;
      response.reason = "Service Unavailable";
      if (fail_retry_after_s >= 0) {
        response.headers.push_back(
            {"Retry-After", std::to_string(fail_retry_after_s)});
      }
      response.body = "try later";
      return response;
    }
    if (corrupt) {
      response.headers = {{"Connection", "close"},
                          {"Content-Type",
                           "application/sparql-results+json"}};
      response.body = "{\"head\":{\"vars\":[\"s\"";  // Half a document.
      return response;
    }

    // Wrong protocol use is a client bug worth failing loudly on.
    if (request.method != "POST" ||
        FindHeader(request.headers, "Content-Type") == nullptr) {
      response.status_code = 400;
      response.reason = "Bad Request";
      response.body = "POST application/sparql-query expected";
      return response;
    }

    const std::string& text = request.body;
    const bool is_ask = StartsWith(text, "ASK");
    // The production parser only speaks SELECT; evaluate ASK bodies as
    // `SELECT *` and ship the boolean.
    const std::string parse_text =
        is_ask ? "SELECT *" + text.substr(3) : text;
    auto query = ParseSelectQuery(
        parse_text, [this](const Term& t) { return local_.EncodeTerm(t); });
    if (!query.ok() || query->has_values()) {
      response.status_code = 400;
      response.reason = "Bad Request";
      response.body = query.ok() ? "VALUES is not supported"
                                 : query.status().ToString();
      return response;
    }

    response.headers.push_back(
        {"Content-Type", "application/sparql-results+json"});
    if (is_ask) {
      auto result = local_.Ask(*query);
      if (!result.ok()) return ServerError(result.status());
      response.body = WriteSparqlAskJson(*result);
      return response;
    }

    SelectQuery effective = *query;
    if (extra_rows > 0 && effective.limit() != kNoLimit) {
      effective.Limit(effective.limit() + extra_rows);  // Ignore LIMIT.
    }
    auto rows = local_.Select(effective);
    if (!rows.ok()) return ServerError(rows.status());
    auto body = WriteSparqlResultsJson(
        *rows, [this](TermId id) { return local_.DecodeTerm(id); });
    if (!body.ok()) return ServerError(body.status());
    response.body = std::move(*body);
    return response;
  }

  static HttpResponse ServerError(const Status& status) {
    HttpResponse response;
    response.status_code = 500;
    response.reason = "Internal Server Error";
    response.body = status.ToString();
    return response;
  }

  KnowledgeBase* kb_;  // Not owned.
  LocalEndpoint local_;

  mutable std::mutex mu_;
  int fail_requests_remaining_ = 0;
  int fail_status_ = 503;
  int fail_retry_after_s_ = -1;
  int kill_requests_remaining_ = 0;
  int redirect_requests_remaining_ = 0;
  int redirect_status_ = 0;
  std::string redirect_location_;
  int corrupt_responses_remaining_ = 0;
  bool close_after_response_ = false;
  size_t extra_rows_ = 0;
  size_t requests_served_ = 0;
  std::vector<std::string> queries_received_;
};

}  // namespace sofya

#endif  // SOFYA_TESTS_LOOPBACK_SPARQL_SERVER_H_
