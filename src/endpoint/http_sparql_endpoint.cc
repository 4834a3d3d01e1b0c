#include "endpoint/http_sparql_endpoint.h"

#include <algorithm>
#include <cassert>
#include <future>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/socket_transport.h"
#include "sparql/results_json.h"
#include "util/hash.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace sofya {
namespace {

/// Parses a Retry-After header in its delta-seconds form into milliseconds;
/// negative when absent or in the (unsupported) HTTP-date form.
double ParseRetryAfterMs(const std::vector<HttpHeader>& headers) {
  const std::string* value = FindHeader(headers, "Retry-After");
  if (value == nullptr || value->empty()) return -1.0;
  uint64_t seconds = 0;
  for (char c : *value) {
    if (c < '0' || c > '9') return -1.0;  // HTTP-date form: ignore.
    seconds = seconds * 10 + static_cast<uint64_t>(c - '0');
    if (seconds > 86400) break;  // A day is hint enough.
  }
  return static_cast<double>(seconds) * 1000.0;
}

}  // namespace

StatusOr<std::unique_ptr<HttpSparqlEndpoint>> HttpSparqlEndpoint::Create(
    const std::string& url, HttpSparqlEndpointOptions options) {
  SOFYA_ASSIGN_OR_RETURN(ParsedUrl parsed, ParseUrl(url));
  SocketTransportOptions socket_options;
  socket_options.connect_timeout_ms = options.connect_timeout_ms;
  socket_options.io_timeout_ms = options.io_timeout_ms;
  auto transport = std::make_unique<SocketTransport>(socket_options);
  auto endpoint = std::make_unique<HttpSparqlEndpoint>(
      std::move(parsed), transport.get(), std::move(options));
  endpoint->owned_transport_ = std::move(transport);
  return endpoint;
}

HttpSparqlEndpoint::HttpSparqlEndpoint(ParsedUrl url,
                                       HttpTransport* transport,
                                       HttpSparqlEndpointOptions options)
    : options_(std::move(options)),
      client_(transport, std::move(url),
              HttpClientOptions{options_.max_connections,
                                options_.max_response_bytes}) {}

Status HttpSparqlEndpoint::MapHttpStatus(int code,
                                         const std::string& reason) {
  const std::string detail =
      StrFormat("http %d %s", code, reason.c_str());
  if (code == 200) return Status::OK();
  switch (code) {
    case 400: return Status::InvalidArgument("endpoint rejected query: " + detail);
    case 404: return Status::NotFound("no such endpoint: " + detail);
    case 401:
    case 403: return Status::InvalidArgument("endpoint denied access: " + detail);
    // The transient family: overload, rate limiting, gateway trouble,
    // timeouts. Mapping them to Unavailable is what lets RetryingEndpoint /
    // PagedSelect back off and re-issue.
    case 408:
    case 429:
    case 502:
    case 503:
    case 504: return Status::Unavailable("endpoint unavailable: " + detail);
    case 501: return Status::Unimplemented("endpoint feature missing: " + detail);
  }
  if (code >= 300 && code < 400) {
    // 301/302/307/308 are followed (same-origin) inside HttpClient; what
    // reaches this point is a non-redirect 3xx (300, 304, ...).
    return Status::InvalidArgument(
        "unexpected 3xx response; point at the final endpoint URL: " +
        detail);
  }
  if (code >= 500) return Status::Internal("endpoint error: " + detail);
  return Status::InvalidArgument("endpoint rejected request: " + detail);
}

StatusOr<std::string> HttpSparqlEndpoint::Fetch(
    const std::string& sparql_text, int* http_status) {
  HttpRequest request;
  request.headers = {
      {"Accept", "application/sparql-results+json"},
      {"User-Agent", options_.user_agent},
  };
  if (options_.use_get) {
    // GET binding: the query travels percent-encoded in the target. The
    // encode side here and the server's ParseQueryString decode side are
    // the same net/http.h codec, so they cannot drift.
    const std::string& base = client_.origin().target;
    request.method = "GET";
    request.target = base +
                     (base.find('?') == std::string::npos ? "?" : "&") +
                     "query=" + FormUrlEncode(sparql_text);
  } else {
    request.method = "POST";
    request.headers.push_back(
        {"Content-Type", "application/sparql-query"});
    request.body = sparql_text;
  }

  WallTimer timer;
  auto response = client_.RoundTrip(request);
  const double elapsed_ms = timer.ElapsedMillis();
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    // Measured (not modeled) wall time for the exchange; the field keeps
    // its name so cost reports aggregate local and remote stacks alike.
    stats_.simulated_latency_ms += elapsed_ms;
    if (response.ok()) {
      stats_.bytes_estimated += response->body.size();
    } else {
      ++stats_.failures_injected;  // Transport-level failure.
    }
  }
  if (!response.ok()) {
    // Timeouts (DeadlineExceeded) and connection failures are transient
    // from the client's perspective: surface everything as Unavailable so
    // the retry machinery engages.
    if (response.status().IsDeadlineExceeded() ||
        response.status().IsUnavailable()) {
      return Status::Unavailable(response.status().message())
          .WithContext("sparql http");
    }
    return response.status().WithContext("sparql http");
  }
  if (http_status != nullptr) *http_status = response->status_code;
  const Status mapped =
      MapHttpStatus(response->status_code, response->reason);
  if (!mapped.ok()) {
    if (mapped.IsUnavailable()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.failures_injected;
    }
    // A Retry-After hint rides the Status so the retry policy can honor
    // the server's own pacing (RetryOptions::honor_retry_after).
    const double retry_after_ms = ParseRetryAfterMs(response->headers);
    if (retry_after_ms >= 0.0) {
      return mapped.WithRetryAfterMs(retry_after_ms);
    }
    return mapped;
  }
  return std::move(response->body);
}

void HttpSparqlEndpoint::Charge(uint64_t queries, uint64_t rows) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.queries += queries;
  stats_.rows_returned += rows;
}

StatusOr<ResultSet> HttpSparqlEndpoint::Select(const SelectQuery& query) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  auto body = Fetch(query.ToSparql(dict_));
  if (!body.ok()) {
    Charge(LogicalQueries(query), 0);
    return body.status();
  }
  auto results = ParseSparqlResultsJson(
      *body, [this](const Term& term) { return dict_.Intern(term); });
  if (!results.ok()) {
    Charge(LogicalQueries(query), 0);
    return results.status().WithContext("endpoint " + options_.name);
  }
  Charge(LogicalQueries(query), results->rows.size());
  return results;
}

StatusOr<bool> HttpSparqlEndpoint::Ask(const SelectQuery& query) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  auto body = Fetch(query.ToSparqlAsk(dict_));
  Charge(LogicalQueries(query), 0);
  if (!body.ok()) return body.status();
  auto result = ParseSparqlAskJson(*body);
  if (!result.ok()) {
    return result.status().WithContext("endpoint " + options_.name);
  }
  return result;
}

ThreadPool& HttpSparqlEndpoint::pool() {
  std::call_once(pool_once_, [this] {
    pool_ = std::make_unique<ThreadPool>(options_.max_connections);
  });
  return *pool_;
}

namespace {

/// Slots per folded request at most: bounds the request body whatever the
/// batch size.
constexpr size_t kMaxFoldedSlots = 1024;

/// The dedup of one batch envelope: identical queries inside it go over the
/// wire once and duplicates share the first occurrence's outcome, failures
/// included. `wire[i]` is the slot whose request answers sub-query i.
struct Envelope {
  std::vector<size_t> wire;
  std::vector<size_t> unique_slots;
};

template <typename KeyOf>
Envelope Dedup(std::span<const SelectQuery> queries, KeyOf&& key_of) {
  Envelope envelope;
  std::unordered_map<std::string, size_t> first_occurrence;
  first_occurrence.reserve(queries.size());
  envelope.wire.resize(queries.size());
  envelope.unique_slots.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = first_occurrence.emplace(key_of(queries[i]), i);
    envelope.wire[i] = it->second;
    if (inserted) envelope.unique_slots.push_back(i);
  }
  return envelope;
}

/// What a folded request must agree on: the query with its foldable
/// constants abstracted — clause constants and `FILTER(?x = <c>)` constants
/// (variables by raw id and name) — its other filters, and for SELECT its
/// projection, DISTINCT and LIMIT. Empty for a query that never folds: one
/// with a VALUES block, an OFFSET page, or LIMIT 0.
std::string ShapeKey(const SelectQuery& q, bool ask) {
  if (q.has_values() || (!ask && (q.offset() > 0 || q.limit() == 0))) {
    return {};
  }
  std::string key;
  for (size_t v = 0; v < q.num_vars(); ++v) {
    key += q.var_name(static_cast<VarId>(v));
    key += ',';
  }
  auto add_node = [&key](const NodeRef& ref) {
    key += ref.is_var() ? '?' + std::to_string(ref.var()) : "#";
    key += ' ';
  };
  for (const PatternClause& c : q.clauses()) {
    add_node(c.subject);
    add_node(c.predicate);
    add_node(c.object);
  }
  for (const FilterExpr& f : q.filters()) {
    key += StrFormat(";%d/%d/%d/", static_cast<int>(f.kind), f.lhs, f.rhs_var);
    key += f.kind == FilterExpr::Kind::kVarEqTerm ? "#"
                                                  : std::to_string(f.rhs_term);
  }
  if (!ask) {
    key += ";p:";
    for (VarId v : q.projection()) key += std::to_string(v) + ',';
    key += StrFormat(";d%d;l%llu", q.distinct() ? 1 : 0,
                     static_cast<unsigned long long>(q.limit()));
  }
  return key;
}

/// The slots `slots` of `queries` as request groups in first-appearance
/// order: same-shape slots together (up to kMaxFoldedSlots), every slot
/// alone when `fold` is off or the slot never folds.
std::vector<std::vector<size_t>> GroupByShape(
    std::span<const SelectQuery> queries, const std::vector<size_t>& slots,
    bool ask, bool fold) {
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<std::string, size_t> open_group;
  for (size_t slot : slots) {
    std::string key = fold ? ShapeKey(queries[slot], ask) : std::string();
    if (key.empty()) {
      groups.push_back({slot});
      continue;
    }
    auto [it, inserted] = open_group.emplace(std::move(key), groups.size());
    if (!inserted && groups[it->second].size() < kMaxFoldedSlots) {
      groups[it->second].push_back(slot);
      continue;
    }
    it->second = groups.size();
    groups.push_back({slot});
  }
  return groups;
}

/// One same-shape group as a single query: every foldable position whose
/// constant differs across the group becomes a VALUES column, one row per
/// slot; positions equal in every slot stay constants. A clause position
/// becomes the column's variable, `FILTER(?x = <c>)` becomes
/// `FILTER(?x = ?column)`.
struct Fold {
  SelectQuery query;
  std::vector<VarId> values;      ///< The VALUES variables, in `query`.
  std::vector<VarId> projection;  ///< The slots' own projection.
};

/// The foldable constant at `position` of `q`: three positions per clause,
/// then one per filter. kNullTermId where a variable stands, or a filter
/// has no foldable constant.
TermId ConstantAt(const SelectQuery& q, size_t position) {
  const size_t clause_positions = 3 * q.clauses().size();
  if (position < clause_positions) {
    const PatternClause& c = q.clauses()[position / 3];
    const NodeRef& ref = position % 3 == 0   ? c.subject
                         : position % 3 == 1 ? c.predicate
                                             : c.object;
    return ref.is_var() ? kNullTermId : ref.term();
  }
  const FilterExpr& f = q.filters()[position - clause_positions];
  return f.kind == FilterExpr::Kind::kVarEqTerm ? f.rhs_term : kNullTermId;
}

std::string FreshVarName(const SelectQuery& base, size_t k) {
  std::string name = "v";
  name += std::to_string(k);
  auto taken = [&](const std::string& candidate) {
    for (size_t v = 0; v < base.num_vars(); ++v) {
      if (base.var_name(static_cast<VarId>(v)) == candidate) return true;
    }
    return false;
  };
  while (taken(name)) name += '_';
  return name;
}

/// Folds `group`, a deduped group of two or more slots.
Fold FoldGroup(std::span<const SelectQuery> queries,
                              const std::vector<size_t>& group, bool ask) {
  const SelectQuery& base = queries[group[0]];
  const size_t clause_positions = 3 * base.clauses().size();
  // column[position] is a position's VALUES column, or -1.
  std::vector<int> column(clause_positions + base.filters().size(), -1);
  std::vector<size_t> varying;
  for (size_t position = 0; position < column.size(); ++position) {
    const TermId constant = ConstantAt(base, position);
    if (constant == kNullTermId) continue;
    for (size_t slot : group) {
      if (ConstantAt(queries[slot], position) != constant) {
        column[position] = static_cast<int>(varying.size());
        varying.push_back(position);
        break;
      }
    }
  }
  // The envelope dedup leaves no two slots of one shape whose constants
  // are all equal, so some constant differs.
  assert(!varying.empty());

  Fold fold;
  for (size_t v = 0; v < base.num_vars(); ++v) {
    fold.query.NewVar(base.var_name(static_cast<VarId>(v)));
  }
  for (size_t k = 0; k < varying.size(); ++k) {
    fold.values.push_back(fold.query.NewVar(FreshVarName(base, k)));
  }
  for (size_t i = 0; i < base.clauses().size(); ++i) {
    const PatternClause& c = base.clauses()[i];
    auto node = [&](const NodeRef& ref, size_t position) {
      return column[position] >= 0
                 ? NodeRef::Variable(fold.values[column[position]])
                 : ref;
    };
    fold.query.Where(node(c.subject, 3 * i), node(c.predicate, 3 * i + 1),
                     node(c.object, 3 * i + 2));
  }
  for (size_t i = 0; i < base.filters().size(); ++i) {
    const int k = column[clause_positions + i];
    const FilterExpr& f = base.filters()[i];
    fold.query.Filter(k >= 0 ? FilterExpr::VarEqVar(f.lhs, fold.values[k])
                             : f);
  }

  std::vector<TermId> cells;
  cells.reserve(group.size() * varying.size());
  for (size_t slot : group) {
    for (size_t position : varying) {
      cells.push_back(ConstantAt(queries[slot], position));
    }
  }
  fold.query.Values(fold.values, std::move(cells));

  std::vector<VarId> select = fold.values;
  if (ask) {
    fold.query.Distinct();
  } else {
    fold.projection = base.ResolvedProjection();
    select.insert(select.end(), fold.projection.begin(),
                  fold.projection.end());
    fold.query.Distinct(base.distinct());
    // Never more rows than the slots could take together.
    if (base.limit() != kNoLimit && base.limit() <= kNoLimit / group.size()) {
      fold.query.Limit(base.limit() * group.size());
    }
  }
  fold.query.Select(std::move(select));
  return fold;
}

struct TupleHash {
  size_t operator()(const std::vector<TermId>& tuple) const {
    size_t seed = tuple.size();
    for (TermId id : tuple) HashCombine(seed, id);
    return seed;
  }
};

}  // namespace

/// A folded request's outcome.
struct HttpSparqlEndpoint::FoldedAnswer {
  enum class Kind {
    kAnswered,  ///< `rows` and `slot_of_row` hold the response.
    kFailed,    ///< `status` fails every slot.
    kTooLarge,  ///< The server refused the request for its size (413/414).
    kRefused,   ///< The server refused VALUES (400/501) or answered past it.
  };
  Kind kind = Kind::kAnswered;
  Status status;
  ResultSet rows;
  std::vector<size_t> slot_of_row;  ///< Group position per response row.
  std::vector<int> projection;      ///< Response column per projected var.
  uint64_t limit = kNoLimit;        ///< The request's total LIMIT.
};

HttpSparqlEndpoint::FoldedAnswer HttpSparqlEndpoint::FetchFolded(
    std::span<const SelectQuery> queries, const std::vector<size_t>& group,
    bool ask) {
  using Kind = FoldedAnswer::Kind;
  FoldedAnswer answer;
  const Fold fold = FoldGroup(queries, group, ask);
  answer.limit = fold.query.limit();
  int http_status = 0;
  auto body = Fetch(fold.query.ToSparql(dict_), &http_status);
  if (!body.ok()) {
    answer.kind = http_status == 413 || http_status == 414 ? Kind::kTooLarge
                  : http_status == 400 || http_status == 501
                      ? Kind::kRefused
                      : Kind::kFailed;
    answer.status = body.status();
    return answer;
  }
  auto results = ParseSparqlResultsJson(
      *body, [this](const Term& term) { return dict_.Intern(term); });
  if (!results.ok()) {
    answer.kind = Kind::kFailed;
    answer.status = results.status().WithContext("endpoint " + options_.name);
    return answer;
  }
  answer.rows = std::move(*results);

  // Split by the VALUES columns; a response the slots cannot take back
  // (a column missing, a row of no slot) counts as a refusal.
  std::vector<int> values;
  for (VarId v : fold.values) {
    values.push_back(answer.rows.ColumnOf(fold.query.var_name(v)));
  }
  for (VarId v : fold.projection) {
    answer.projection.push_back(answer.rows.ColumnOf(fold.query.var_name(v)));
  }
  std::unordered_map<std::vector<TermId>, size_t, TupleHash> position;
  const std::vector<TermId>& cells = fold.query.values_cells();
  for (size_t i = 0; i < group.size(); ++i) {
    position.emplace(
        std::vector<TermId>(cells.begin() + i * values.size(),
                            cells.begin() + (i + 1) * values.size()),
        i);
  }
  answer.slot_of_row.reserve(answer.rows.rows.size());
  std::vector<TermId> tuple(values.size());
  bool splits = std::find(values.begin(), values.end(), -1) == values.end() &&
                std::find(answer.projection.begin(), answer.projection.end(),
                          -1) == answer.projection.end();
  for (size_t r = 0; splits && r < answer.rows.rows.size(); ++r) {
    for (size_t k = 0; k < values.size(); ++k) {
      tuple[k] = answer.rows.rows[r][values[k]];
    }
    auto it = position.find(tuple);
    splits = it != position.end();
    if (splits) answer.slot_of_row.push_back(it->second);
  }
  if (!splits) answer.kind = Kind::kRefused;
  return answer;
}

namespace {

/// Fills `batch` from `groups` (`run_group(group)` returns the group's
/// outcomes in group order), fanning the groups out over `pool` when there
/// is one and more than one group; then copies each twin's outcome.
template <typename T, typename RunGroup>
void RunGroups(const std::vector<std::vector<size_t>>& groups,
               const Envelope& envelope, ThreadPool* pool,
               BatchResult<T>& batch, RunGroup&& run_group) {
  auto deliver = [&](const std::vector<size_t>& group,
                     std::vector<StatusOr<T>> outcomes) {
    for (size_t i = 0; i < group.size(); ++i) {
      batch.Set(group[i], std::move(outcomes[i]));
    }
  };
  if (groups.size() <= 1 || pool == nullptr) {
    for (const auto& group : groups) deliver(group, run_group(group));
  } else {
    // Each request keeps its own outcome: a dead connection fails exactly
    // the slots whose request was in flight on it, and the answers
    // pipelined over the healthy sockets are delivered — a recovery layer
    // above re-buys only the casualties.
    std::vector<std::future<std::vector<StatusOr<T>>>> futures;
    futures.reserve(groups.size());
    for (const auto& group : groups) {
      futures.push_back(pool->Submit([&run_group, &group] {
        return run_group(group);
      }));
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      deliver(groups[g], futures[g].get());
    }
  }
  for (size_t i = 0; i < envelope.wire.size(); ++i) {
    if (envelope.wire[i] != i) batch.CopySlot(envelope.wire[i], i);
  }
}

}  // namespace

template <typename T, typename Single, typename Split>
std::vector<StatusOr<T>> HttpSparqlEndpoint::FoldOrSend(
    std::span<const SelectQuery> queries, const std::vector<size_t>& group,
    bool ask, const Single& single, const Split& split) {
  using Kind = FoldedAnswer::Kind;
  std::vector<StatusOr<T>> out;
  out.reserve(group.size());
  if (group.size() == 1) {
    out.push_back(single(queries[group[0]]));
    return out;
  }
  FoldedAnswer answer = FetchFolded(queries, group, ask);
  switch (answer.kind) {
    case Kind::kAnswered:
      return split(group, answer);
    case Kind::kFailed:
      Charge(group.size(), 0);
      out.assign(group.size(), answer.status);
      return out;
    case Kind::kTooLarge: {
      // Too big is not unsupported: each half goes as a fold of its own.
      const auto middle = group.begin() + group.size() / 2;
      const std::vector<size_t> halves[] = {{group.begin(), middle},
                                            {middle, group.end()}};
      for (const std::vector<size_t>& half : halves) {
        for (auto& outcome : FoldOrSend<T>(queries, half, ask, single, split)) {
          out.push_back(std::move(outcome));
        }
      }
      return out;
    }
    case Kind::kRefused:
      break;
  }
  for (size_t slot : group) out.push_back(single(queries[slot]));
  // The server answers queries but not this one: it does not speak VALUES.
  if (std::all_of(out.begin(), out.end(),
                  [](const StatusOr<T>& o) { return o.ok(); })) {
    fold_ = false;
  }
  return out;
}

std::vector<StatusOr<ResultSet>> HttpSparqlEndpoint::SelectGroup(
    std::span<const SelectQuery> queries, const std::vector<size_t>& group) {
  auto single = [this](const SelectQuery& q) { return Select(q); };
  auto split = [this, queries](const std::vector<size_t>& group,
                               const FoldedAnswer& answer) {
    // Every slot shares one shape, so one LIMIT and one set of columns.
    const uint64_t limit = queries[group[0]].limit();
    std::vector<ResultSet> slots(group.size());
    for (ResultSet& slot : slots) {
      for (int column : answer.projection) {
        slot.var_names.push_back(answer.rows.var_names[column]);
      }
    }
    for (size_t r = 0; r < answer.rows.rows.size(); ++r) {
      ResultSet& slot = slots[answer.slot_of_row[r]];
      if (slot.rows.size() >= limit) continue;  // Cut at its LIMIT.
      std::vector<TermId> row;
      row.reserve(answer.projection.size());
      for (int column : answer.projection) {
        row.push_back(answer.rows.rows[r][column]);
      }
      slot.rows.push_back(std::move(row));
    }
    // A response that reached the total LIMIT may have cut short any slot
    // still below its own LIMIT, wherever the server put that slot's rows:
    // those slots go again as a group of their own. A slot at its LIMIT is
    // complete, and each round completes one at least — only rows past a
    // slot's LIMIT are dropped, so a response can reach the total only if
    // some slot reached its own.
    std::vector<size_t> again;  // Group positions.
    if (answer.limit != kNoLimit && answer.rows.rows.size() >= answer.limit) {
      for (size_t i = 0; i < group.size(); ++i) {
        if (slots[i].rows.size() < limit) again.push_back(i);
      }
    }
    std::vector<size_t> again_slots;
    for (size_t i : again) again_slots.push_back(group[i]);
    std::vector<StatusOr<ResultSet>> resent =
        again.empty() ? std::vector<StatusOr<ResultSet>>()
                      : SelectGroup(queries, again_slots);
    std::vector<StatusOr<ResultSet>> out;
    out.reserve(group.size());
    uint64_t rows = 0;
    for (size_t i = 0, next = 0; i < group.size(); ++i) {
      if (next < again.size() && again[next] == i) {
        out.push_back(std::move(resent[next++]));
        continue;
      }
      rows += slots[i].rows.size();
      out.push_back(std::move(slots[i]));
    }
    Charge(group.size() - again.size(), rows);
    return out;
  };
  return FoldOrSend<ResultSet>(queries, group, /*ask=*/false, single, split);
}

std::vector<StatusOr<bool>> HttpSparqlEndpoint::AskGroup(
    std::span<const SelectQuery> queries, const std::vector<size_t>& group) {
  auto single = [this](const SelectQuery& q) { return Ask(q); };
  auto split = [this](const std::vector<size_t>& group,
                      const FoldedAnswer& answer) {
    std::vector<StatusOr<bool>> out(group.size(), false);
    for (size_t position : answer.slot_of_row) out[position] = true;
    Charge(group.size(), 0);
    return out;
  };
  return FoldOrSend<bool>(queries, group, /*ask=*/true, single, split);
}

SelectBatchResult HttpSparqlEndpoint::SelectMany(
    std::span<const SelectQuery> queries) {
  const Envelope envelope = Dedup(
      queries, [](const SelectQuery& q) { return q.Fingerprint(); });
  SelectBatchResult batch = SelectBatchResult::Sized(queries.size());
  RunGroups(GroupByShape(queries, envelope.unique_slots, /*ask=*/false, fold_),
            envelope, options_.max_connections > 1 ? &pool() : nullptr, batch,
            [&](const std::vector<size_t>& group) {
              return SelectGroup(queries, group);
            });
  return batch;
}

AskBatchResult HttpSparqlEndpoint::AskMany(
    std::span<const SelectQuery> queries) {
  // Existence ignores solution modifiers: the dedup key is AskFingerprint.
  const Envelope envelope = Dedup(queries, AskFingerprint);
  AskBatchResult batch = AskBatchResult::Sized(queries.size());
  RunGroups(GroupByShape(queries, envelope.unique_slots, /*ask=*/true, fold_),
            envelope, options_.max_connections > 1 ? &pool() : nullptr, batch,
            [&](const std::vector<size_t>& group) {
              return AskGroup(queries, group);
            });
  return batch;
}

}  // namespace sofya
