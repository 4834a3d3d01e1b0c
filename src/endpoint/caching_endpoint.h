// CachingEndpoint: client-side LRU result cache over any Endpoint.
//
// SOFYA's hottest access pattern is repeated overlapping evidence lookups —
// the same ObjectsOf / existence probes recur across candidate relations,
// across the forward and reverse alignment directions, and across
// alignments of related reference relations (PARIS makes the same
// observation for instance-level alignment). Caching them client-side turns
// that overlap into zero-cost hits: the server never sees the repeat, so
// `queries` (the paper's cost metric) strictly drops.
//
// Keys are normalized query fingerprints (SelectQuery::Fingerprint), so
// structurally identical queries collide regardless of how they were built.
// ASK probes are cached separately with their solution modifiers stripped —
// existence does not depend on DISTINCT/OFFSET/LIMIT, so Ask(q) and
// Ask(q.Limit(5)) share one entry.
//
// Thread safety: safe for concurrent callers. The LRU is sharded by
// fingerprint hash — each shard has its own lock, list, and capacity slice,
// so parallel alignment threads hitting different entries do not serialize
// on one cache-global mutex. Two threads racing on the same cold key may
// both miss and fetch (a benign stampede: the server is asked twice, both
// misses are counted, last insert wins); hit/miss counters always sum to
// exactly the number of requests.
//
// Staleness: entries are valid for one dataset epoch. Every request first
// compares the inner endpoint's data_epoch() against the epoch the cache
// last saw; when the dataset was mutated (time-sensitive-data scenarios)
// the whole cache is dropped automatically before the request is served —
// no manual Clear() required (it remains available for callers that want
// to cold-start measurements).

#ifndef SOFYA_ENDPOINT_CACHING_ENDPOINT_H_
#define SOFYA_ENDPOINT_CACHING_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "endpoint/endpoint.h"

namespace sofya {

/// Cache sizing/behavior knobs.
struct CacheOptions {
  /// Maximum cached entries (SELECT results + ASK booleans combined).
  size_t capacity = 4096;

  /// Cache ASK probes too (cheap to store; high hit rates for existence
  /// checks repeated across candidates).
  bool cache_asks = true;

  /// Number of independently locked LRU shards. 0 = auto: one shard for
  /// small caches (exact global LRU order, as tests and eviction-sensitive
  /// setups expect), 16 once the capacity is large enough that per-shard
  /// eviction is statistically indistinguishable from global LRU. With
  /// multiple shards the capacity bound is enforced per shard
  /// (ceil(capacity/shards) each), so a hash-skewed workload can evict from
  /// a hot shard while the cache as a whole is under capacity.
  size_t shards = 0;
};

/// Decorator; wraps any Endpoint. Typically outermost in the stack
/// (client-side), so hits cost neither budget, latency, nor retries.
class CachingEndpoint : public EndpointDecorator {
 public:
  /// `inner` is not owned and must outlive this object.
  explicit CachingEndpoint(Endpoint* inner, CacheOptions options = {});

  /// Answers what it can from the cache and forwards only the unique misses
  /// to the inner endpoint as one (smaller) batch. Failed sub-queries keep
  /// their own status and are never cached; hits are OK by construction.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override;

  /// Batched ASK, same contract as SelectMany (bypassed when
  /// options.cache_asks is off).
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override;

  /// Inner endpoint stats plus this cache's hit/miss counters. Note that
  /// `queries` counts only requests the server actually saw — cache hits
  /// never reach it, which is the point.
  EndpointStats stats() const override;
  void ResetStats() override {
    inner_->ResetStats();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

  /// Drops every cached entry. Stale entries are dropped automatically on
  /// the first request after a dataset mutation (data_epoch change); this
  /// stays public for explicit cold starts.
  void Clear();

  /// Cache flushes triggered by dataset-epoch changes.
  uint64_t epoch_invalidations() const {
    return epoch_invalidations_.load(std::memory_order_relaxed);
  }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Entries displaced by the capacity bound since construction.
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t size() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  /// One cached answer: a SELECT result or an ASK boolean (the key spaces
  /// never collide, see AskFingerprint).
  struct Entry {
    std::string key;
    std::variant<ResultSet, bool> value;
  };
  using LruList = std::list<Entry>;

  /// One independently locked slice of the cache.
  struct Shard {
    std::mutex mu;
    LruList lru;  // Front = most recently used. Guarded by mu.
    std::unordered_map<std::string, LruList::iterator> index;  // Guarded.
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) % shards_.size()];
  }

  /// Looks `key` up in its shard; on a hit of kind T, touches the entry and
  /// copies the payload out under the shard lock. Counts the hit or miss.
  template <typename T>
  bool Lookup(const std::string& key, T* out);

  /// The one batch path behind SelectMany and AskMany: `key_of` keys each
  /// query, hits are answered locally, and the unique misses go to the
  /// inner endpoint as one `fetch` batch.
  template <typename T, typename KeyFn>
  BatchResult<T> CachedMany(
      std::span<const SelectQuery> queries, KeyFn key_of,
      BatchResult<T> (Endpoint::*fetch)(std::span<const SelectQuery>));

  /// Inserts (or refreshes) an entry in its shard, evicting from the cold
  /// end past the shard's capacity slice.
  void Insert(Entry entry);

  /// Epoch gate, run before any cache access: when the inner endpoint's
  /// data_epoch has moved since the last request, every cached entry is
  /// stale — drop them all and record the new epoch. Benign under races
  /// (two threads observing the change both clear; entries inserted from
  /// results fetched before the flip can survive one extra request, the
  /// same window a racing manual Clear() always had).
  void InvalidateIfStale();

  CacheOptions options_;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> seen_epoch_{0};
  std::atomic<uint64_t> epoch_invalidations_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_CACHING_ENDPOINT_H_
