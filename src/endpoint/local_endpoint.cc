#include "endpoint/local_endpoint.h"

#include <string>
#include <unordered_map>
#include <utility>

#include "sparql/engine.h"

namespace sofya {

StatusOr<ResultSet> LocalEndpoint::Select(const SelectQuery& query) {
  EvalStats eval_stats;
  auto result = engine_.Select(query, &eval_stats);

  // Evaluation ran lock-free; fold its cost into the counters in one short
  // critical section so concurrent queries never tear the accounting.
  uint64_t bytes = 0;
  if (result.ok() && estimate_bytes_) {
    for (const auto& row : result->rows) {
      for (TermId id : row) {
        auto term = kb_->dict().TryDecode(id);
        // +1 per cell for the separator in a serialized response.
        bytes += term.ok() ? term->ToNTriples().size() + 1 : 1;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
    stats_.index_probes += eval_stats.index_probes;
    stats_.triples_scanned += eval_stats.triples_scanned;
    if (result.ok()) {
      stats_.rows_returned += result->rows.size();
      stats_.bytes_estimated += bytes;
    }
  }
  if (!result.ok()) return result.status();
  return result;
}

SelectBatchResult LocalEndpoint::SelectMany(
    std::span<const SelectQuery> queries) {
  SelectBatchResult batch = SelectBatchResult::Sized(queries.size());
  // A batch is one request envelope: identical queries inside it are
  // answered from a single evaluation and charged once. Duplicates share
  // the first occurrence's outcome either way — a failed evaluation is not
  // re-attempted for its batch twins.
  std::unordered_map<std::string, size_t> first_occurrence;
  first_occurrence.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] = first_occurrence.emplace(queries[i].Fingerprint(), i);
    if (!inserted) {
      batch.CopySlot(it->second, i);
      continue;
    }
    batch.Set(i, Select(queries[i]));
  }
  return batch;
}

StatusOr<bool> LocalEndpoint::Ask(const SelectQuery& query) {
  EvalStats eval_stats;
  auto result = engine_.Ask(query, &eval_stats);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.queries;
    stats_.index_probes += eval_stats.index_probes;
    stats_.triples_scanned += eval_stats.triples_scanned;
    // A boolean response: no rows shipped, one byte of payload.
    if (result.ok() && estimate_bytes_) ++stats_.bytes_estimated;
  }
  if (!result.ok()) return result.status();
  return result;
}

AskBatchResult LocalEndpoint::AskMany(std::span<const SelectQuery> queries) {
  AskBatchResult batch = AskBatchResult::Sized(queries.size());
  // Existence ignores solution modifiers, so the dedup key is the
  // normalized AskFingerprint: Ask(q) and Ask(q.Limit(5)) in one batch cost
  // a single evaluation.
  std::unordered_map<std::string, size_t> first_occurrence;
  first_occurrence.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto [it, inserted] =
        first_occurrence.emplace(AskFingerprint(queries[i]), i);
    if (!inserted) {
      batch.CopySlot(it->second, i);
      continue;
    }
    batch.Set(i, Ask(queries[i]));
  }
  return batch;
}

}  // namespace sofya
