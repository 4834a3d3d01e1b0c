#include "endpoint/sparql_server.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <utility>
#include <vector>

#include "sparql/parser.h"
#include "sparql/results_json.h"
#include "util/string_util.h"

namespace sofya {
namespace {

/// The media type of a Content-Type value: everything before the first ';'
/// (parameters like charset are irrelevant here), trimmed, lowercased.
std::string MediaType(std::string_view content_type) {
  const size_t semi = content_type.find(';');
  if (semi != std::string_view::npos) {
    content_type = content_type.substr(0, semi);
  }
  while (!content_type.empty() && content_type.front() == ' ') {
    content_type.remove_prefix(1);
  }
  while (!content_type.empty() && content_type.back() == ' ') {
    content_type.remove_suffix(1);
  }
  std::string lowered(content_type);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lowered;
}

/// Admission key for a peer: the IP of an "ip:port" address (every request
/// from one host counts against one bucket regardless of its ephemeral
/// port), or the whole string for loopback labels without a port.
std::string ClientKey(const HttpServerClient& client) {
  const size_t colon = client.address.rfind(':');
  return colon == std::string::npos ? client.address
                                    : client.address.substr(0, colon);
}

HttpResponse PlainError(int status_code, const char* reason,
                        std::string body) {
  HttpResponse response;
  response.status_code = status_code;
  response.reason = reason;
  response.headers = {{"Content-Type", "text/plain"}};
  response.body = std::move(body) + "\n";
  return response;
}

}  // namespace

SparqlServer::SparqlServer(KnowledgeBase* kb, SparqlServerOptions options)
    : options_(std::move(options)) {
  if (options_.scan_threads > 0) {
    scan_pool_ = std::make_unique<ThreadPool>(options_.scan_threads);
    options_.local.engine.scan_pool = scan_pool_.get();
  }
  local_ = std::make_unique<LocalEndpoint>(kb, options_.local);
}

HttpServer::Handler SparqlServer::HttpHandler() {
  return [this](const HttpRequest& request, const HttpServerClient& client) {
    return Handle(request, client);
  };
}

LoopbackTransport::Handler SparqlServer::LoopbackHandler(
    std::string client_label) {
  return [this, client = HttpServerClient{std::move(client_label), 0}](
             const HttpRequest& request) { return Handle(request, client); };
}

HttpResponse SparqlServer::Handle(const HttpRequest& request,
                                  const HttpServerClient& client) {
  requests_received_.fetch_add(1, std::memory_order_relaxed);

  std::string_view path, query_string;
  SplitTarget(request.target, &path, &query_string);
  if (path == options_.status_path) {
    if (request.method != "GET") {
      HttpResponse response =
          PlainError(405, "Method Not Allowed", "status is GET-only");
      response.headers.push_back({"Allow", "GET"});
      return response;
    }
    HttpResponse response;
    response.headers = {{"Content-Type", "application/json"}};
    response.body = StatusJson();
    return response;
  }
  if (path != options_.service_path) {
    return PlainError(404, "Not Found",
                      "no such resource (the query endpoint is " +
                          options_.service_path + ", introspection is " +
                          options_.status_path + ")");
  }

  if (request.method == "GET") {
    auto params = ParseQueryString(query_string);
    if (!params.ok()) {
      return PlainError(400, "Bad Request", params.status().ToString());
    }
    for (const QueryParam& param : *params) {
      if (param.key == "query") return HandleQuery(param.value, client);
    }
    return PlainError(400, "Bad Request", "missing 'query' parameter");
  }

  if (request.method == "POST") {
    const std::string* content_type =
        FindHeader(request.headers, "Content-Type");
    const std::string media =
        content_type == nullptr ? "" : MediaType(*content_type);
    if (media == "application/sparql-query") {
      return HandleQuery(request.body, client);
    }
    if (media == "application/x-www-form-urlencoded") {
      auto params = ParseQueryString(request.body);
      if (!params.ok()) {
        return PlainError(400, "Bad Request", params.status().ToString());
      }
      for (const QueryParam& param : *params) {
        if (param.key == "query") return HandleQuery(param.value, client);
      }
      return PlainError(400, "Bad Request", "missing 'query' form field");
    }
    return PlainError(
        415, "Unsupported Media Type",
        "use application/sparql-query or application/x-www-form-urlencoded");
  }

  HttpResponse response = PlainError(405, "Method Not Allowed",
                                     "the query operation is GET or POST");
  response.headers.push_back({"Allow", "GET, POST"});
  return response;
}

/// RAII admission ticket. Construction decides (under the server's mutex)
/// whether this query may run; destruction returns the in-flight slots.
struct SparqlServer::Admission {
  SparqlServer* server = nullptr;
  std::string key;
  bool admitted = false;
  int shed_status = 0;  ///< 503 or 429 when !admitted.

  Admission(SparqlServer* s, const HttpServerClient& client)
      : server(s), key(ClientKey(client)) {
    const SparqlServerOptions& opt = server->options_;
    std::lock_guard<std::mutex> lock(server->admission_mu_);
    if (opt.per_client_query_quota > 0) {
      auto it = server->served_by_client_.find(key);
      if (it != server->served_by_client_.end() &&
          it->second >= opt.per_client_query_quota) {
        shed_status = 429;
        return;
      }
    }
    if (opt.max_concurrent > 0 && server->inflight_ >= opt.max_concurrent) {
      shed_status = 503;
      return;
    }
    size_t& client_inflight = server->inflight_by_client_[key];
    if (opt.max_concurrent_per_client > 0 &&
        client_inflight >= opt.max_concurrent_per_client) {
      shed_status = 503;
      return;
    }
    ++server->inflight_;
    ++client_inflight;
    ++server->served_by_client_[key];  // Quota charges admitted queries.
    admitted = true;
  }

  ~Admission() {
    if (!admitted) return;
    std::lock_guard<std::mutex> lock(server->admission_mu_);
    --server->inflight_;
    auto it = server->inflight_by_client_.find(key);
    if (it != server->inflight_by_client_.end() && --it->second == 0) {
      server->inflight_by_client_.erase(it);
    }
  }

  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;
};

HttpResponse SparqlServer::HandleQuery(const std::string& query_text,
                                       const HttpServerClient& client) {
  Admission ticket(this, client);
  if (!ticket.admitted) {
    if (ticket.shed_status == 429) {
      shed_quota_.fetch_add(1, std::memory_order_relaxed);
      return ShedResponse(429, "Too Many Requests",
                          "per-client query quota exhausted");
    }
    shed_concurrency_.fetch_add(1, std::memory_order_relaxed);
    return ShedResponse(503, "Service Unavailable",
                        "server at concurrency capacity");
  }
  if (options_.pre_evaluate_hook) options_.pre_evaluate_hook();
  HttpResponse response = Evaluate(query_text);
  if (response.status_code == 200) {
    queries_answered_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

HttpResponse SparqlServer::Evaluate(const std::string& query_text) {
  // The production parser only speaks SELECT; an ASK body is evaluated as
  // `SELECT *` and answered with the boolean document — the same convention
  // HttpSparqlEndpoint uses when it renders ASK probes.
  const bool is_ask = StartsWith(query_text, "ASK");
  const std::string parse_text =
      is_ask ? "SELECT *" + query_text.substr(3) : query_text;
  auto query = ParseSelectQuery(
      parse_text, [this](const Term& t) { return local_->EncodeTerm(t); });
  if (!query.ok()) {
    return PlainError(400, "Bad Request", query.status().ToString());
  }

  HttpResponse response;
  response.headers = {{"Content-Type", "application/sparql-results+json"}};
  if (is_ask) {
    auto result = local_->Ask(*query);
    if (!result.ok()) {
      return PlainError(500, "Internal Server Error",
                        result.status().ToString());
    }
    response.body = WriteSparqlAskJson(*result);
    return response;
  }
  auto rows = local_->Select(*query);
  if (!rows.ok()) {
    return PlainError(500, "Internal Server Error", rows.status().ToString());
  }
  auto body = WriteSparqlResultsJson(
      *rows, [this](TermId id) { return local_->DecodeTerm(id); });
  if (!body.ok()) {
    return PlainError(500, "Internal Server Error", body.status().ToString());
  }
  response.body = std::move(*body);
  return response;
}

std::string SparqlServer::StatusJson() {
  // Snapshot the admission state under its mutex; everything else is
  // atomics or single reads.
  size_t inflight;
  size_t clients_inflight;
  size_t clients_served;
  // Per-client detail: every client that has been served or is in flight,
  // keyed by ClientKey. Sorted so the JSON is deterministic for scripts.
  struct ClientDetail {
    std::string key;
    uint64_t served = 0;
    size_t client_inflight = 0;
  };
  std::vector<ClientDetail> clients;
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    inflight = inflight_;
    clients_inflight = inflight_by_client_.size();
    clients_served = served_by_client_.size();
    clients.reserve(served_by_client_.size() + inflight_by_client_.size());
    for (const auto& [key, served] : served_by_client_) {
      clients.push_back({key, served, 0});
    }
    for (const auto& [key, count] : inflight_by_client_) {
      auto it = std::find_if(clients.begin(), clients.end(),
                             [&](const ClientDetail& c) { return c.key == key; });
      if (it == clients.end()) {
        clients.push_back({key, 0, count});
      } else {
        it->client_inflight = count;
      }
    }
    std::sort(clients.begin(), clients.end(),
              [](const ClientDetail& a, const ClientDetail& b) {
                return a.key < b.key;
              });
  }
  const KnowledgeBase* kb = local_->kb();
  const TripleStore& store = kb->store();
  std::string json = "{";
  auto field = [&json](const char* key, uint64_t value, bool last = false) {
    json += StrFormat("\"%s\":%llu%s", key,
                      static_cast<unsigned long long>(value), last ? "" : ",");
  };
  json += "\"requests\":{";
  field("received", requests_received());
  field("answered", queries_answered());
  field("shed_concurrency", shed_concurrency());
  field("shed_quota", shed_quota(), /*last=*/true);
  json += "},\"admission\":{";
  field("inflight", inflight);
  field("clients_inflight", clients_inflight);
  field("clients_served", clients_served);
  field("max_concurrent", options_.max_concurrent);
  field("max_concurrent_per_client", options_.max_concurrent_per_client);
  field("per_client_query_quota", options_.per_client_query_quota);
  json += "\"clients\":[";
  for (size_t i = 0; i < clients.size(); ++i) {
    const ClientDetail& c = clients[i];
    // remaining_quota is -1 when quotas are disabled (unlimited).
    const long long remaining =
        options_.per_client_query_quota == 0
            ? -1
            : static_cast<long long>(
                  options_.per_client_query_quota > c.served
                      ? options_.per_client_query_quota - c.served
                      : 0);
    json += StrFormat(
        "%s{\"client\":\"%s\",\"served\":%llu,\"inflight\":%zu,"
        "\"remaining_quota\":%lld}",
        i == 0 ? "" : ",", c.key.c_str(),
        static_cast<unsigned long long>(c.served), c.client_inflight,
        remaining);
  }
  json += "]},\"plan_cache\":{";
  field("hits", local_->engine().plan_cache_hits());
  field("misses", local_->engine().plan_cache_misses(), /*last=*/true);
  json += "},\"store\":{";
  field("triples", store.size());
  field("shards", store.num_shards());
  field("promoted_predicates", store.PromotedPredicates().size());
  field("stats_recomputes", store.stats_recomputes());
  json += StrFormat("\"mapped\":%s,", store.is_mapped() ? "true" : "false");
  field("data_epoch", kb->data_epoch(), /*last=*/true);
  json += "}}";
  return json;
}

HttpResponse SparqlServer::ShedResponse(int status_code, const char* reason,
                                        const char* detail) const {
  HttpResponse response = PlainError(status_code, reason, detail);
  const long long seconds = static_cast<long long>(
      std::ceil(options_.retry_after_seconds < 0.0
                    ? 0.0
                    : options_.retry_after_seconds));
  response.headers.push_back({"Retry-After", std::to_string(seconds)});
  return response;
}

}  // namespace sofya
