#include "endpoint/endpoint.h"

namespace sofya {

SelectBatchResult Endpoint::SelectMany(std::span<const SelectQuery> queries) {
  SelectBatchResult batch = SelectBatchResult::Sized(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    // Every sub-query is attempted: the per-sub-query contract means one
    // failure must not swallow its neighbors' answers.
    batch.Set(i, Select(queries[i]));
  }
  return batch;
}

StatusOr<bool> Endpoint::Ask(const SelectQuery& query) {
  // Fallback for endpoints without a native ASK: a LIMIT-1 SELECT. With the
  // streaming engine behind LocalEndpoint this still terminates at the first
  // solution, but it ships one row; LocalEndpoint overrides Ask to ship none.
  SelectQuery probe = query;
  probe.Limit(1).Offset(0);
  SOFYA_ASSIGN_OR_RETURN(ResultSet result, Select(probe));
  return !result.rows.empty();
}

AskBatchResult Endpoint::AskMany(std::span<const SelectQuery> queries) {
  AskBatchResult batch = AskBatchResult::Sized(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    batch.Set(i, Ask(queries[i]));
  }
  return batch;
}

std::string AskFingerprint(const SelectQuery& query) {
  return query.RenderKey(QueryKeyMode::kAsk);
}

}  // namespace sofya
