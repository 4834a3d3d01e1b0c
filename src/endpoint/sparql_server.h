// SparqlServer: a SPARQL 1.1 Protocol query endpoint over a KnowledgeBase.
//
// This is the production counterpart of the test-only MockSparqlServer: one
// request handler that speaks the protocol's query operation — GET with a
// percent-encoded ?query= parameter, POST with an application/sparql-query
// body, or POST with an application/x-www-form-urlencoded form — evaluates
// the query on a LocalEndpoint (full Engine: join-order planner, plan
// cache), and answers in the W3C
// application/sparql-results+json format that HttpSparqlEndpoint already
// parses. The handler is transport-agnostic: plug it into HttpServer for a
// real socket endpoint (`sofya_cli serve`) or into LoopbackTransport for
// in-process CI parity runs — both paths execute the identical code.
//
// Admission control mirrors ThrottledEndpoint's semantics, server-side:
// a global in-flight concurrency cap and a per-client one shed excess load
// with 503 + Retry-After (transient back-pressure the client's retry stack
// honors and recovers from), while an exhausted per-client query quota is
// answered 429 + Retry-After (the budget regime of the paper's "few
// queries" claim, enforced at the server door).
//
// Thread safety: Handle() is safe to call concurrently (HttpServer's threads
// do); evaluation is lock-free over the store, admission state takes
// a small mutex.

#ifndef SOFYA_ENDPOINT_SPARQL_SERVER_H_
#define SOFYA_ENDPOINT_SPARQL_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include "endpoint/local_endpoint.h"
#include "net/http.h"
#include "net/http_server.h"
#include "net/loopback_transport.h"
#include "rdf/knowledge_base.h"

namespace sofya {

/// Server-side endpoint knobs.
struct SparqlServerOptions {
  /// Request path the query operation is served on; anything else is 404.
  std::string service_path = "/sparql";

  /// GET-only introspection resource: one JSON document with the request/
  /// shed counters, live admission state, plan-cache hit rate and store
  /// shape. Cheap enough to poll; never touches the query path's locks for
  /// longer than a counter read.
  std::string status_path = "/status";

  /// Global in-flight query cap; requests beyond it are shed with
  /// 503 + Retry-After. 0 disables the cap.
  size_t max_concurrent = 32;

  /// In-flight cap per client (keyed by peer IP); 0 disables.
  size_t max_concurrent_per_client = 8;

  /// Lifetime served-query budget per client. A request is charged one
  /// query per VALUES row (one without a block) and is admitted only when
  /// the whole charge fits in what is left; otherwise it is answered
  /// 429 + Retry-After. 0 disables (no quota).
  uint64_t per_client_query_quota = 0;

  /// The Retry-After hint (delta seconds, rounded up on the wire) attached
  /// to every 503/429 shed.
  double retry_after_seconds = 1.0;

  /// Test/fault-drill hook: runs after admission, before evaluation, while
  /// the in-flight slot is held. Lets tests pin deterministic overload
  /// (block one query here, assert the next is shed) the same way
  /// ThrottleOptions injects failures client-side. Unset in production.
  std::function<void()> pre_evaluate_hook;
};

/// SPARQL 1.1 Protocol handler; see file comment. The KnowledgeBase is
/// borrowed and must outlive the server.
class SparqlServer {
 public:
  explicit SparqlServer(KnowledgeBase* kb, SparqlServerOptions options = {});

  /// Maps one protocol request to a response; safe to call concurrently.
  HttpResponse Handle(const HttpRequest& request,
                      const HttpServerClient& client);

  /// This server as an HttpServer handler (real socket mode). The server
  /// must outlive the HttpServer using it.
  HttpServer::Handler HttpHandler();

  /// This server as a LoopbackTransport handler (in-process mode, CI).
  /// `client_label` stands in for the peer address in admission keying, so
  /// two loopback transports with distinct labels are distinct clients.
  LoopbackTransport::Handler LoopbackHandler(std::string client_label);

  /// The served endpoint (stats, EXPLAIN, plan-cache accounting).
  LocalEndpoint& local() { return local_; }
  const LocalEndpoint& local() const { return local_; }

  // Counters (tests / ops).
  uint64_t requests_received() const {
    return requests_received_.load(std::memory_order_relaxed);
  }
  /// Logical queries answered: a request with a VALUES block counts one per
  /// row, as the quota does.
  uint64_t queries_answered() const {
    return queries_answered_.load(std::memory_order_relaxed);
  }
  uint64_t shed_concurrency() const {  ///< 503s from concurrency caps.
    return shed_concurrency_.load(std::memory_order_relaxed);
  }
  uint64_t shed_quota() const {  ///< 429s from the per-client quota.
    return shed_quota_.load(std::memory_order_relaxed);
  }

 private:
  /// Scoped admission ticket: acquired before evaluation, released on
  /// destruction. `admitted` tells whether evaluation may proceed.
  struct Admission;

  HttpResponse HandleQuery(const std::string& query_text,
                           const HttpServerClient& client);
  HttpResponse Evaluate(const SelectQuery& query, bool is_ask);

  /// The /status JSON document.
  std::string StatusJson();

  /// 503/429 shed response with the configured Retry-After.
  HttpResponse ShedResponse(int status_code, const char* reason,
                            const char* detail) const;

  SparqlServerOptions options_;
  LocalEndpoint local_;

  std::mutex admission_mu_;
  size_t inflight_ = 0;  // Guarded by admission_mu_.
  std::unordered_map<std::string, size_t> inflight_by_client_;
  std::unordered_map<std::string, uint64_t> served_by_client_;

  std::atomic<uint64_t> requests_received_{0};
  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> shed_concurrency_{0};
  std::atomic<uint64_t> shed_quota_{0};
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_SPARQL_SERVER_H_
