#include "endpoint/paged_select.h"

#include <algorithm>

#include "endpoint/query_forms.h"

namespace sofya {

StatusOr<ResultSet> PagedSelect(Endpoint* endpoint, const SelectQuery& query,
                                const PagedSelectOptions& options) {
  if (options.page_size == 0) {
    return Status::InvalidArgument("page_size must be positive");
  }
  uint64_t total_cap = options.max_rows;
  if (query.limit() != kNoLimit) {
    total_cap = std::min(total_cap, query.limit());
  }

  ResultSet merged;
  uint64_t offset = query.offset();
  bool first_page = true;

  while (true) {
    // Clamped: a server that over-delivered must not wrap this subtraction
    // into a huge "remaining" and send the loop running away.
    if (total_cap != kNoLimit && merged.rows.size() >= total_cap) break;
    const uint64_t remaining =
        total_cap == kNoLimit ? kNoLimit : total_cap - merged.rows.size();
    const uint64_t page_limit = std::min<uint64_t>(options.page_size, remaining);

    SelectQuery page = query;
    page.Offset(offset).Limit(page_limit);

    auto result = RetryTransient([&] { return endpoint->Select(page); },
                                 options.retry);
    if (!result.ok()) return result.status().WithContext("paged select");

    if (first_page) {
      merged.var_names = result->var_names;
      first_page = false;
    }
    // Never accept more rows than the page asked for: a misbehaving server
    // that ignores LIMIT would otherwise blow through max_rows, and its
    // OFFSET handling cannot be trusted either — truncate and stop.
    const bool over_long = result->rows.size() > page_limit;
    const size_t take =
        std::min<uint64_t>(result->rows.size(), page_limit);
    for (size_t i = 0; i < take; ++i) {
      merged.rows.push_back(std::move(result->rows[i]));
    }
    if (over_long) break;
    if (result->rows.size() < page_limit) break;  // Short page: exhausted.
    offset += page_limit;
  }
  return merged;
}

SelectBatchResult BatchedPagedSelect(Endpoint* endpoint,
                                     std::span<const SelectQuery> queries,
                                     const PagedSelectOptions& options) {
  if (options.page_size == 0) {
    return SelectBatchResult::FromError(
        queries.size(), Status::InvalidArgument("page_size must be positive"));
  }

  // Per-query total row cap: the tighter of max_rows and the query's LIMIT.
  std::vector<uint64_t> caps;
  caps.reserve(queries.size());
  std::vector<SelectQuery> first_pages;
  first_pages.reserve(queries.size());
  for (const SelectQuery& query : queries) {
    uint64_t cap = options.max_rows;
    if (query.limit() != kNoLimit) cap = std::min(cap, query.limit());
    caps.push_back(cap);
    SelectQuery page = query;
    page.Limit(std::min<uint64_t>(options.page_size, cap));
    first_pages.push_back(std::move(page));
  }

  SelectBatchResult results = endpoint->SelectMany(first_pages);

  // Page out the stragglers whose first page filled completely. Sub-queries
  // whose first page failed keep their own status; their neighbors page on.
  for (size_t i = 0; i < queries.size(); ++i) {
    if (!results.statuses[i].ok()) {
      results.statuses[i] =
          results.statuses[i].WithContext("batched paged select");
      continue;
    }
    ResultSet& merged = results.values[i];
    const uint64_t page_limit = std::min<uint64_t>(options.page_size, caps[i]);
    if (merged.rows.size() > page_limit) {
      // Over-long first page (server ignored LIMIT): truncate and stop —
      // same policy as PagedSelect.
      merged.rows.resize(page_limit);
      continue;
    }
    const bool maybe_more =
        page_limit > 0 && merged.rows.size() == page_limit &&
        (caps[i] == kNoLimit || caps[i] > page_limit);
    if (!maybe_more) continue;
    SelectQuery rest = queries[i];
    rest.Offset(queries[i].offset() + page_limit);
    rest.Limit(caps[i] == kNoLimit ? kNoLimit : caps[i] - page_limit);
    PagedSelectOptions rest_options = options;
    if (options.max_rows != kNoLimit) {
      rest_options.max_rows = options.max_rows > merged.rows.size()
                                  ? options.max_rows - merged.rows.size()
                                  : 0;
    }
    auto more = PagedSelect(endpoint, rest, rest_options);
    if (!more.ok()) {
      // A later page failed past its retries: the partial prefix cannot be
      // trusted as "the complete answer", so the slot reports the error.
      results.statuses[i] = more.status().WithContext("batched paged select");
      results.values[i] = ResultSet();
      continue;
    }
    for (auto& row : more->rows) merged.rows.push_back(std::move(row));
  }
  return results;
}

StatusOr<std::vector<Term>> FetchPredicateInventory(Endpoint* endpoint,
                                                    uint64_t page_size) {
  PagedSelectOptions page_options;
  page_options.page_size = page_size;
  SOFYA_ASSIGN_OR_RETURN(
      ResultSet rows,
      PagedSelect(endpoint, queries::AllPredicates(), page_options));
  std::vector<Term> inventory;
  inventory.reserve(rows.rows.size());
  for (const auto& row : rows.rows) {
    if (row.empty() || row[0] == kNullTermId) continue;
    SOFYA_ASSIGN_OR_RETURN(Term term, endpoint->DecodeTerm(row[0]));
    if (term.is_iri()) inventory.push_back(std::move(term));
  }
  std::sort(inventory.begin(), inventory.end());
  inventory.erase(std::unique(inventory.begin(), inventory.end()),
                  inventory.end());
  return inventory;
}

}  // namespace sofya
