#include "endpoint/caching_endpoint.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace sofya {

namespace {
/// Auto shard count: small caches keep one shard (exact global LRU order);
/// big caches trade that for 16-way lock striping, where each shard still
/// holds hundreds of entries and per-shard eviction behaves like LRU.
constexpr size_t kAutoShardThreshold = 1024;
constexpr size_t kAutoShards = 16;
}  // namespace

CachingEndpoint::CachingEndpoint(Endpoint* inner, CacheOptions options)
    : EndpointDecorator(inner), options_(options) {
  seen_epoch_.store(inner->data_epoch(), std::memory_order_relaxed);
  size_t shards = options_.shards;
  if (shards == 0) {
    shards = options_.capacity >= kAutoShardThreshold ? kAutoShards : 1;
  }
  shards = std::max<size_t>(1, std::min(shards, options_.capacity));
  // Ceil division: the shard capacities must sum to >= the configured
  // capacity, or a full working set would thrash below its stated bound.
  shard_capacity_ = (options_.capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void CachingEndpoint::InvalidateIfStale() {
  const uint64_t current = inner_->data_epoch();
  uint64_t seen = seen_epoch_.load(std::memory_order_acquire);
  if (current == seen) return;
  // First thread to observe the flip claims the flush; late observers of
  // the same flip see seen == current and skip.
  if (seen_epoch_.compare_exchange_strong(seen, current,
                                          std::memory_order_acq_rel)) {
    Clear();
    epoch_invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename T>
bool CachingEndpoint::Lookup(const std::string& key, T* out) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(key);
  const T* cached =
      it == shard.index.end() ? nullptr : std::get_if<T>(&it->second->value);
  if (cached == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  *out = *cached;  // Copy out while the shard is locked.
  return true;
}

void CachingEndpoint::Insert(Entry entry) {
  Shard& shard = ShardFor(entry.key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    // A concurrent miss on the same key beat us here; refresh in place.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    *shard.lru.begin() = std::move(entry);
    return;
  }
  shard.lru.push_front(std::move(entry));
  shard.index[shard.lru.front().key] = shard.lru.begin();
  while (shard.index.size() > shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

template <typename T, typename KeyFn>
BatchResult<T> CachingEndpoint::CachedMany(
    std::span<const SelectQuery> queries, KeyFn key_of,
    BatchResult<T> (Endpoint::*fetch)(std::span<const SelectQuery>)) {
  InvalidateIfStale();
  BatchResult<T> results = BatchResult<T>::Sized(queries.size());
  std::vector<SelectQuery> missing;  // Unique misses only.
  std::unordered_map<std::string, size_t> missing_index;  // key -> missing[].
  std::vector<std::pair<size_t, size_t>> fill;  // (results[], missing[]).
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string key = std::invoke(key_of, queries[i]);
    T cached{};
    if (Lookup(key, &cached)) {
      results.values[i] = std::move(cached);
      continue;
    }
    // Dedup duplicates within the batch here, client-side: decorator stacks
    // that decompose batches per query (throttle, retry) would otherwise
    // charge budget and latency for every repeat.
    auto [mit, inserted] = missing_index.emplace(std::move(key), missing.size());
    if (inserted) missing.push_back(queries[i]);
    fill.emplace_back(i, mit->second);
  }
  if (missing.empty()) return results;

  BatchResult<T> fetched = (inner_->*fetch)(missing);
  // Only successful answers enter the cache; a failed sub-query must stay
  // a miss so the next attempt goes through again.
  for (const auto& [key, m] : missing_index) {
    if (fetched.statuses[m].ok()) Insert(Entry{key, T(fetched.values[m])});
  }
  // Without in-batch duplicates each answer has one slot and moves there
  // (a single call then copies its result once, into the cache).
  const bool one_slot_each = fill.size() == missing.size();
  for (const auto& [i, m] : fill) {
    results.statuses[i] = fetched.statuses[m];
    results.values[i] =
        one_slot_each ? std::move(fetched.values[m]) : fetched.values[m];
  }
  return results;
}

SelectBatchResult CachingEndpoint::SelectMany(
    std::span<const SelectQuery> queries) {
  return CachedMany(queries, &SelectQuery::Fingerprint, &Endpoint::SelectMany);
}

AskBatchResult CachingEndpoint::AskMany(std::span<const SelectQuery> queries) {
  if (!options_.cache_asks) return inner_->AskMany(queries);
  return CachedMany(queries, &AskFingerprint, &Endpoint::AskMany);
}

EndpointStats CachingEndpoint::stats() const {
  EndpointStats stats = inner_->stats();
  // An inner decorator may carry its own cache counters; add, don't clobber.
  stats.cache_hits += hits();
  stats.cache_misses += misses();
  return stats;
}

size_t CachingEndpoint::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->index.size();
  }
  return total;
}

void CachingEndpoint::Clear() {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.clear();
    shard->index.clear();
  }
}

}  // namespace sofya
