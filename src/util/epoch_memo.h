// EpochMemo: a thread-safe memo whose entries hold for one data version.
//
// Derived data — store statistics and histograms, compiled query plans, the
// lexical index — is a pure function of a key and the version of the data
// it was computed from: a store epoch or a shard epoch. An EpochMemo keeps
// one value per key, tagged with that version.
// GetOrCompute returns the value while the caller's version matches and
// recomputes it otherwise, so a stale value cannot outlive a write and
// there is no invalidation call to forget.
//
// `compute` runs outside the memo's lock. Concurrent callers of the same
// (key, version) wait for the one computation in flight instead of
// repeating it (single flight); callers of other keys never wait for it.
// When the memo reaches its capacity it drops every finished entry, which
// bounds the tail of keys whose version has moved on. A hit costs one lock,
// one hash lookup and one copy of Value, so store large values as
// std::shared_ptr<const T>.

#ifndef SOFYA_UTIL_EPOCH_MEMO_H_
#define SOFYA_UTIL_EPOCH_MEMO_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

namespace sofya {

template <typename Key, typename Value>
class EpochMemo {
 public:
  explicit EpochMemo(size_t capacity)
      : capacity_(capacity > 0 ? capacity : 1) {}
  EpochMemo(const EpochMemo&) = delete;
  EpochMemo& operator=(const EpochMemo&) = delete;

  /// The value memoized for `key` at `version`; otherwise `compute()`'s
  /// result, memoized under `version`. `compute` must not ask this memo for
  /// the same (key, version).
  template <typename Compute>
  Value GetOrCompute(const Key& key, uint64_t version, Compute&& compute) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = entries_.end();
    // Wait while another caller is computing this (key, version).
    done_.wait(lock, [&] {
      it = entries_.find(key);
      return it == entries_.end() || it->second.version != version ||
             it->second.value.has_value();
    });
    if (it != entries_.end() && it->second.version == version) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *it->second.value;
    }
    if (it == entries_.end() && entries_.size() >= capacity_) {
      std::erase_if(entries_,
                    [](const auto& e) { return e.second.value.has_value(); });
    }
    entries_.insert_or_assign(key, Entry{version, std::nullopt});
    computes_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();

    std::optional<Value> value;
    try {
      value.emplace(std::forward<Compute>(compute)());
    } catch (...) {
      Finish(key, version, value);  // Waiters retry and compute themselves.
      throw;
    }
    Finish(key, version, value);
    return std::move(*value);
  }

  /// The value memoized for `key` at `version`, if any, without computing
  /// or counting anything (EXPLAIN-style introspection).
  std::optional<Value> Peek(const Key& key, uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end() || it->second.version != version) {
      return std::nullopt;
    }
    return it->second.value;
  }

  /// Drops every entry. Counters keep counting.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.clear();
  }

  /// Calls answered from the memo (including callers that waited for a
  /// computation in flight) and calls that ran `compute`, since
  /// construction. Their sum is the number of GetOrCompute calls.
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t computes() const {
    return computes_.load(std::memory_order_relaxed);
  }

 private:
  /// `value` is empty while the computation for `version` is in flight.
  struct Entry {
    uint64_t version;
    std::optional<Value> value;
  };

  /// Publishes `value` (or, when empty, drops the in-flight marker) if the
  /// entry still waits for this version, then wakes the waiters.
  void Finish(const Key& key, uint64_t version,
              const std::optional<Value>& value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second.version == version &&
          !it->second.value.has_value()) {
        if (value.has_value()) {
          it->second.value = value;
        } else {
          entries_.erase(it);
        }
      }
    }
    done_.notify_all();
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable done_;
  std::unordered_map<Key, Entry> entries_;  // Guarded by mu_.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> computes_{0};
};

}  // namespace sofya

#endif  // SOFYA_UTIL_EPOCH_MEMO_H_
