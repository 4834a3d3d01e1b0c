// Cursor-style pagination over an endpoint (OFFSET/LIMIT pages).
//
// Public endpoints cap result sizes; fetching a large result means paging.
// PagedSelect centralizes that loop (and its failure/retry policy) so
// samplers never hand-roll it.
//
// Caveat for *remote* endpoints: SPARQL gives OFFSET no meaning without
// ORDER BY, and the supported query subset has no ORDER BY yet, so page
// boundaries rely on the server enumerating an unordered query in a stable
// total order across requests. The in-process engine guarantees this;
// well-known stores (Virtuoso et al.) are stable in practice for an
// unchanged dataset, but it is not contractual — rows can in principle be
// missed or duplicated across pages. ORDER BY support is the tracked fix
// (see ROADMAP); until then keep page_size large enough that hot queries
// fit in one page.
//
// Cost: each OFFSET page evaluates from the start, so a deep walk is
// quadratic. The one deep walk, the predicate inventory, is answered from
// the in-process store's predicate directory without a scan. The other
// pagers stay shallow: on seed-1 t1_churn every other OFFSET > 0 page was
// a second page (OFFSET 64, 140 or 250; ~3.5 pages and ~970 triples
// scanned per relation), so paging costs them at most 2x on one page and
// keyset paging is not warranted (measurements in docs/QUERY_ENGINE.md).

#ifndef SOFYA_ENDPOINT_PAGED_SELECT_H_
#define SOFYA_ENDPOINT_PAGED_SELECT_H_

#include <cstdint>
#include <vector>

#include "endpoint/endpoint.h"
#include "endpoint/retry_policy.h"
#include "rdf/term.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {

/// Pagination policy.
struct PagedSelectOptions {
  uint64_t page_size = 1000;  ///< LIMIT per request.
  uint64_t max_rows = kNoLimit;  ///< Stop after this many rows total.
  /// Per-page transient-failure policy — the same backoff machinery as
  /// RetryingEndpoint (retry_policy.h), so paging cannot hammer a server
  /// that an outer retry layer would have backed off from.
  RetryOptions retry = DefaultPageRetry();

  /// Paging sits above an often-retrying stack already, so its own budget
  /// defaults smaller than RetryOptions' general default.
  static RetryOptions DefaultPageRetry() {
    RetryOptions retry;
    retry.max_retries = 2;
    return retry;
  }
};

/// Runs `query` page by page, concatenating rows until a short page, the
/// `max_rows` bound, or an error. The query's own LIMIT/OFFSET are composed
/// with paging (its OFFSET is the starting point; its LIMIT bounds the
/// total). A misbehaving server that returns more rows than a page's LIMIT
/// cannot overrun the caps: the over-long page is truncated and paging
/// stops (OFFSET arithmetic against such a server is meaningless).
StatusOr<ResultSet> PagedSelect(Endpoint* endpoint, const SelectQuery& query,
                                const PagedSelectOptions& options = {});

/// Batched pagination: issues every query's first page as one SelectMany
/// round trip (so the endpoint stack can dedup and cache), then pages the
/// rare queries whose first page came back full. Results are positional and
/// carry per-sub-query statuses: a sub-query whose first page (or a later
/// page, after the per-page retries) failed reports its own error while its
/// batch neighbors keep their rows. The page schedule is identical to
/// running PagedSelect per query; the saving comes from batching —
/// endpoints that dedup within a batch answer identical first pages from
/// one evaluation. An empty-batch envelope error (page_size == 0) is
/// reported in every slot.
SelectBatchResult BatchedPagedSelect(Endpoint* endpoint,
                                     std::span<const SelectQuery> queries,
                                     const PagedSelectOptions& options = {});

/// The endpoint's predicate inventory: every IRI predicate, sorted and
/// deduplicated, from queries::AllPredicates() paged `page_size` rows at a
/// time. One paged query per call, issued through `endpoint` itself so a
/// relation-private endpoint's query accounting stays exact; any caching
/// layer in the stack dedups the repeats.
StatusOr<std::vector<Term>> FetchPredicateInventory(
    Endpoint* endpoint, uint64_t page_size = PagedSelectOptions().page_size);

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_PAGED_SELECT_H_
