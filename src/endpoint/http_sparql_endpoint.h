// HttpSparqlEndpoint: an Endpoint speaking the real SPARQL 1.1 protocol
// over HTTP — the piece that lets every alignment path run against live
// DBpedia/Wikidata instead of an in-process KnowledgeBase.
//
// Queries are serialized with SelectQuery::ToSparql / ToSparqlAsk, POSTed
// as application/sparql-query, and answered as
// application/sparql-results+json; bindings are re-interned into this
// endpoint's own Dictionary (the wire is the string boundary the Endpoint
// contract describes). HTTP/transport failures map onto the canonical
// Status space — 503/429/timeouts become Unavailable — so the existing
// RetryingEndpoint / PagedSelect machinery composes unchanged: stack this
// under caching/throttling/retry exactly like a LocalEndpoint.
//
// SelectMany/AskMany send each same-shape group of a batch as one request:
// slots that differ only in their constants fold into one SPARQL 1.1
// inline-data query (`VALUES`), and the rows are split back to their slots
// by the VALUES columns. A batch of k probes of one shape costs one
// request, not k. The requests of a batch's groups fan out over a bounded
// set of keep-alive connections (options.max_connections). The split
// assumes no row order: when a folded SELECT reaches its total LIMIT, every
// slot still below its own LIMIT goes again. A server that refuses the
// VALUES query (400/501) gets the slots singly, and once those succeed the
// endpoint stops folding; one that refuses it for its size (413/414) gets
// the group in halves, each folded again.
//
// Thread safety: fully safe for concurrent callers (dictionary is
// synchronized, the connection pool is locked, stats sit behind a mutex).

#ifndef SOFYA_ENDPOINT_HTTP_SPARQL_ENDPOINT_H_
#define SOFYA_ENDPOINT_HTTP_SPARQL_ENDPOINT_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "endpoint/endpoint.h"
#include "net/http_client.h"
#include "net/http_transport.h"
#include "rdf/dictionary.h"
#include "util/thread_pool.h"

namespace sofya {

/// Remote-endpoint knobs.
struct HttpSparqlEndpointOptions {
  /// Dataset name for reports/logs.
  std::string name = "remote";

  /// The dataset's entity namespace (directs sameAs translation); e.g.
  /// "http://dbpedia.org/" for DBpedia.
  std::string base_iri;

  /// Connection-pool bound; also the SelectMany/AskMany fan-out width.
  size_t max_connections = 4;

  /// Transport timeouts (socket transport only).
  double connect_timeout_ms = 5000.0;
  double io_timeout_ms = 30000.0;

  /// Response size guard.
  size_t max_response_bytes = 64u << 20;

  std::string user_agent = "sofya-sparql/1.0";

  /// Use the protocol's GET binding (?query=<percent-encoded>) instead of
  /// POSTing an application/sparql-query body. POST is the default (no URL
  /// length limits); GET exercises the other mandated binding and lets
  /// intermediaries cache.
  bool use_get = false;
};

/// The real-protocol endpoint; see file comment.
class HttpSparqlEndpoint : public Endpoint {
 public:
  /// Production constructor: parses `url` (http:// only) and speaks over a
  /// blocking socket transport owned by the endpoint.
  static StatusOr<std::unique_ptr<HttpSparqlEndpoint>> Create(
      const std::string& url, HttpSparqlEndpointOptions options = {});

  /// Injectable-transport constructor (tests pass a LoopbackTransport, so
  /// the whole client stack runs with zero real network). `transport` is
  /// not owned and must outlive the endpoint.
  HttpSparqlEndpoint(ParsedUrl url, HttpTransport* transport,
                     HttpSparqlEndpointOptions options = {});

  const std::string& name() const override { return options_.name; }
  const std::string& base_iri() const override { return options_.base_iri; }

  StatusOr<ResultSet> Select(const SelectQuery& query) override;

  /// Folded batch: each same-shape group goes out as one VALUES request,
  /// the groups fan out across the connection pool, and each sub-query
  /// reports its own outcome (a dead connection fails only the sub-queries
  /// whose request was in flight on it).
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override;

  /// Real protocol ASK (ToSparqlAsk): the server ships one boolean, no rows.
  StatusOr<bool> Ask(const SelectQuery& query) override;

  /// Folded like SelectMany: a group of ASK probes goes out as one
  /// `SELECT DISTINCT` of its VALUES columns, and a probe is true exactly
  /// when its row comes back.
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override;

  TermId EncodeTerm(const Term& term) override { return dict_.Intern(term); }

  /// Optimistic lookup. The pipeline uses LookupTerm(t) == kNullTermId as
  /// "the dataset does not know t" and skips queries for such terms — a
  /// judgment only an in-process KB can make locally. A remote endpoint
  /// cannot enumerate its vocabulary, so every term is potentially present:
  /// lookups intern into the client dictionary and membership is decided by
  /// the queries themselves (absent terms simply match nothing).
  TermId LookupTerm(const Term& term) const override {
    return dict_.Intern(term);
  }
  StatusOr<Term> DecodeTerm(TermId id) const override {
    return dict_.TryDecode(id);
  }

  EndpointStats stats() const override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }
  void ResetStats() override {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_ = EndpointStats();
  }

  /// The client-side dictionary (this endpoint's private id space).
  const Dictionary& dict() const { return dict_; }

 private:
  /// One protocol exchange: POST `sparql_text`, check the HTTP status, and
  /// return the response body. All transport-level failures and the
  /// retryable HTTP statuses surface as Unavailable. `http_status`, when
  /// given, receives the response's status code (0 without a response).
  StatusOr<std::string> Fetch(const std::string& sparql_text,
                              int* http_status = nullptr);

  /// Adds `queries` logical queries and `rows` shipped rows to the stats.
  void Charge(uint64_t queries, uint64_t rows);

  struct FoldedAnswer;
  /// Sends the same-shape slots `group` of `queries` as one VALUES request
  /// and maps each response row to its slot.
  FoldedAnswer FetchFolded(std::span<const SelectQuery> queries,
                           const std::vector<size_t>& group, bool ask);

  /// One group's outcomes, in group order: the folded request, or the slots
  /// one by one.
  std::vector<StatusOr<ResultSet>> SelectGroup(
      std::span<const SelectQuery> queries, const std::vector<size_t>& group);
  std::vector<StatusOr<bool>> AskGroup(std::span<const SelectQuery> queries,
                                       const std::vector<size_t>& group);

  /// What SelectGroup and AskGroup share: a group of one goes out through
  /// `single(query)`; a folded request that fails fails every slot; one
  /// refused for its size goes again in halves; one refused outright goes
  /// singly. An answered fold's outcomes are `split(group, answer)`.
  template <typename T, typename Single, typename Split>
  std::vector<StatusOr<T>> FoldOrSend(std::span<const SelectQuery> queries,
                                      const std::vector<size_t>& group,
                                      bool ask, const Single& single,
                                      const Split& split);

  /// Maps an HTTP status code onto the canonical Status space.
  static Status MapHttpStatus(int code, const std::string& reason);

  /// Lazily built fan-out pool (max_connections workers).
  ThreadPool& pool();

  HttpSparqlEndpointOptions options_;
  std::unique_ptr<HttpTransport> owned_transport_;  // Create() path only.
  HttpClient client_;
  mutable Dictionary dict_;  // mutable: LookupTerm interns (see above).

  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> pool_;

  /// False once a VALUES request refused with 400/501 had its slots succeed
  /// singly.
  std::atomic<bool> fold_{true};

  mutable std::mutex stats_mu_;
  EndpointStats stats_;  // Guarded by stats_mu_.
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_HTTP_SPARQL_ENDPOINT_H_
