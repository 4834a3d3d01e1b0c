// In-memory dictionary-encoded triple store, sharded by predicate.
//
// Design: the store is a collection of shards, each a mini-hexastore — three
// index vectors (SPO, POS, OSP) giving contiguous ranges for every
// bound-prefix pattern — plus one global hash set for O(1) membership and
// dedup. Each index vector is a sorted prefix followed by an unsorted tail
// of recent inserts; the first read after a write sorts the tail and merges
// it into the prefix, so a small write costs O(delta log delta + n) moves
// rather than a full O(n log n) re-sort. Predicates are routed to a fixed
// ring of hash shards by predicate hash and never move, so a write to one
// predicate re-merges (and re-counts) only its own shard.
//
// Every access pattern SOFYA's samplers need maps to per-shard contiguous
// ranges:
//   (s ? ?) (s p ?) (s p o)  -> SPO prefix
//   (? p ?) (? p o)          -> POS prefix
//   (? ? o) (s ? o)          -> OSP prefix
//   (? ? ?)                  -> SPO full scan, shard-concatenated
// A bound predicate touches exactly one shard; an unbound predicate walks
// all shards in deterministic shard order.
//
// Shards can be *mapped*: backed by read-only spans into an mmap'd snapshot
// file (src/rdf/store_snapshot.h) instead of owned vectors. Mapped shards
// are pre-sorted, so queries are zero-copy straight off the page cache; the
// first write that changes the data thaws the store back into owned vectors
// (a duplicate insert or an erase of an absent triple leaves it mapped).

#ifndef SOFYA_RDF_TRIPLE_STORE_H_
#define SOFYA_RDF_TRIPLE_STORE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rdf/triple.h"
#include "util/epoch_memo.h"
#include "util/status.h"

namespace sofya {

/// Aggregate statistics for one predicate, used for candidate ranking and
/// inverse-relation decisions (AMIE-style functionality).
struct PredicateStats {
  size_t facts = 0;              ///< Number of triples with this predicate.
  size_t distinct_subjects = 0;  ///< |{s : p(s,o)}|
  size_t distinct_objects = 0;   ///< |{o : p(s,o)}|

  /// fun(p) = #distinct subjects / #facts; 1.0 means p is a function of s.
  double functionality() const {
    return facts == 0 ? 0.0
                      : static_cast<double>(distinct_subjects) /
                            static_cast<double>(facts);
  }
  /// fun(p^-1).
  double inverse_functionality() const {
    return facts == 0 ? 0.0
                      : static_cast<double>(distinct_objects) /
                            static_cast<double>(facts);
  }
};

/// Small equi-depth histogram over one column (subjects or objects) of one
/// predicate's facts. Bucket boundaries are chosen so every bucket holds
/// roughly the same number of *facts* (never splitting one term across
/// buckets), so a frequency-skewed term surfaces as a bucket with few
/// distinct terms and a high rows/distinct ratio. The planner uses this to
/// estimate join fan-out under skew: when a clause position is joined to an
/// upstream binding, values arrive weighted by their frequency, so the
/// expected fan-out is the frequency-weighted bucket mean rather than the
/// uniform facts/distinct average.
struct TermHistogram {
  /// Inclusive upper term-id bound of each bucket (ascending).
  std::vector<TermId> upper;
  /// Facts in each bucket.
  std::vector<size_t> rows;
  /// Distinct terms in each bucket.
  std::vector<size_t> distinct;
  /// Smallest term id in bucket 0 (histogram range lower bound).
  TermId lower = 0;

  bool empty() const { return upper.empty(); }
  size_t total_rows() const {
    size_t n = 0;
    for (size_t r : rows) n += r;
    return n;
  }

  /// Average facts per term in the bucket holding `t`; 0 when `t` lies
  /// outside the histogram's range (the term provably has no facts).
  double EstimateEq(TermId t) const;

  /// E[facts(v)] for a term v drawn weighted by its fact frequency —
  /// Σ rows_b²/distinct_b over total rows. Equals facts/distinct under a
  /// uniform distribution and grows with skew (Cauchy–Schwarz), so it is
  /// the right per-binding fan-out for join estimation. Returns 0 when
  /// empty.
  double ExpectedFanout() const;
};

/// Per-predicate histograms over both join columns.
struct PredicateHistograms {
  TermHistogram subjects;
  TermHistogram objects;
};

/// Whole-store aggregate statistics: the planner's fallback numbers for
/// clauses whose predicate is a variable (per-predicate stats don't apply).
struct StoreStats {
  size_t triples = 0;              ///< Total facts.
  size_t distinct_subjects = 0;    ///< |{s : ∃p,o. 〈s,p,o〉}|
  size_t distinct_predicates = 0;  ///< |{p}|
  size_t distinct_objects = 0;     ///< |{o}|
};

/// Sharding knobs. Tests vary the ring size to exercise shard geometries.
struct StoreOptions {
  /// Fixed ring of shards the predicates hash onto.
  size_t num_hash_shards = 8;
};

/// An ordered list of contiguous index ranges covering one pattern — the
/// zero-copy substrate for streaming query pipelines. One span per shard
/// touched (empty shards are skipped); spans are filtered by the chosen
/// index's bound *prefix* only, exactly like the old single-range
/// MatchRange, and concatenation order is deterministic (shard order).
/// Inline storage for the common case, so building one never allocates
/// unless a pattern with an unbound predicate crosses many shards.
/// Spans are valid until the next write to the store.
class MatchView {
 public:
  static constexpr size_t kInlineSpans = 8;

  size_t num_spans() const { return n_; }
  std::span<const Triple> span(size_t i) const {
    return i < kInlineSpans ? inline_[i] : overflow_[i - kInlineSpans];
  }
  /// Total triples across all spans.
  size_t total() const { return total_; }
  bool empty() const { return total_ == 0; }

  /// Appends a span; empty spans are dropped so span(i) is never empty.
  void Append(std::span<const Triple> s) {
    if (s.empty()) return;
    if (n_ < kInlineSpans) {
      inline_[n_] = s;
    } else {
      overflow_.push_back(s);
    }
    ++n_;
    total_ += s.size();
  }

 private:
  std::array<std::span<const Triple>, kInlineSpans> inline_{};
  std::vector<std::span<const Triple>> overflow_;
  size_t n_ = 0;
  size_t total_ = 0;
};

/// The store. Writes invalidate the touched shard; the first subsequent
/// read merges that shard's unsorted tail into its sorted prefix, touching
/// no other shard.
///
/// Thread safety: concurrent const reads are safe, including the first read
/// after a write (per-shard lazy tail merges and every stats memo are
/// internally synchronized). Writes (Insert/Erase/bulk load/AttachMapped)
/// must not overlap with reads or other writes — the alignment pipeline
/// treats a dataset as immutable while queries are in flight, which is also
/// what a remote endpoint would guarantee per snapshot.
class TripleStore {
 public:
  TripleStore() : TripleStore(StoreOptions()) {}
  explicit TripleStore(const StoreOptions& options);

  // Movable (KnowledgeBase is movable); the caller must not move a store
  // that other threads are reading.
  TripleStore(TripleStore&& other) noexcept { MoveFrom(std::move(other)); }
  TripleStore& operator=(TripleStore&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;

  /// Inserts a triple. Returns true iff it was not already present.
  bool Insert(const Triple& t);

  /// Inserts 〈s,p,o〉 by ids.
  bool Insert(TermId s, TermId p, TermId o) { return Insert(Triple(s, p, o)); }

  /// Removes a triple. Returns true iff it was present.
  bool Erase(const Triple& t);

  /// True iff the exact triple is present. O(1) owned; O(log n) mapped.
  bool Contains(const Triple& t) const;
  bool Contains(TermId s, TermId p, TermId o) const {
    return Contains(Triple(s, p, o));
  }

  /// Number of triples.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// All triples matching `pattern`, materialized in index order.
  std::vector<Triple> Match(const TriplePattern& pattern) const;

  /// Number of matches without materializing.
  size_t CountMatches(const TriplePattern& pattern) const;

  /// Streams matches to `fn` (signature bool(const Triple&)); stop early by
  /// returning false. A template so the engine's per-row inner loop pays no
  /// std::function allocation or indirect-call overhead.
  template <typename Fn>
  void ForEachMatch(const TriplePattern& pattern, Fn&& fn) const {
    const auto [lo, hi] = ShardBounds(pattern);
    for (uint32_t i = lo; i < hi; ++i) {
      for (const Triple& t : PreparedShardRange(i, pattern)) {
        if (!pattern.Matches(t)) continue;
        if (!fn(t)) return;
      }
    }
  }

  /// The per-shard index ranges covering `pattern`, in shard order. This is
  /// the sharded successor of the old single-span MatchRange: concatenating
  /// the spans yields the full (prefix-filtered) match sequence. Spans are
  /// valid until the next write to the store.
  MatchView MatchSpans(const TriplePattern& pattern) const;

  /// Distinct objects o with 〈s,p,o〉 in the store.
  std::vector<TermId> Objects(TermId s, TermId p) const;

  /// Distinct subjects s with 〈s,p,o〉 in the store.
  std::vector<TermId> Subjects(TermId p, TermId o) const;

  /// Distinct subjects of predicate `p` (in ascending id order).
  std::vector<TermId> SubjectsOf(TermId p) const;

  /// All distinct predicates present (ascending id order).
  std::vector<TermId> Predicates() const;

  /// Statistics for predicate `p` (zeroes if absent). Memoized at the
  /// epoch of the shard that holds `p` (PredicateShard), so a write to one
  /// shard invalidates only the predicates living there — and a stale value
  /// still can never survive a write.
  PredicateStats StatsFor(TermId p) const;

  /// Equi-depth per-term histograms over predicate `p`'s subject and object
  /// columns (empty histograms if `p` is absent). Memoized like StatsFor, so
  /// an untouched predicate keeps its entry across writes elsewhere.
  PredicateHistograms HistogramFor(TermId p) const;

  /// Whole-store aggregates (total triples, distinct s/p/o) in O(1): every
  /// write keeps a fact count per subject and per object, so the distinct
  /// counts are the number of terms counted. No shard is read, and the
  /// values are identical to a walk of the whole store.
  StoreStats GlobalStats() const {
    return {size_, subject_refs_.size(), distinct_preds_,
            object_refs_.size()};
  }

  /// Monotonic write version: bumped on every successful Insert/Erase (once
  /// per bulk-load scope, not per triple — see BulkLoadScope). Derived
  /// artifacts such as compiled query plans are keyed off this, so "same
  /// epoch" means "same data, same plan".
  uint64_t mutation_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Forces index (re)construction on every shard; useful before timed
  /// sections.
  void EnsureIndexed() const;

  // --- Bulk load -----------------------------------------------------------

  /// Begins a bulk-load scope: `expected` reserves hash capacity up front,
  /// per-insert epoch bumps are suppressed, and EndBulkLoad() bumps the
  /// epoch once (if anything changed). Scopes nest; only the outermost End
  /// finishes the load.
  void BeginBulkLoad(size_t expected = 0);
  void EndBulkLoad();

  /// RAII wrapper for Begin/EndBulkLoad.
  class BulkLoadScope {
   public:
    explicit BulkLoadScope(TripleStore* store, size_t expected = 0)
        : store_(store) {
      store_->BeginBulkLoad(expected);
    }
    ~BulkLoadScope() { store_->EndBulkLoad(); }
    BulkLoadScope(const BulkLoadScope&) = delete;
    BulkLoadScope& operator=(const BulkLoadScope&) = delete;

   private:
    TripleStore* store_;
  };

  /// Reserves hash capacity for `n` triples (the triple set and the
  /// per-term fact counts).
  void Reserve(size_t n);

  // --- Snapshot plumbing (src/rdf/store_snapshot.h) ------------------------

  /// One shard's three sorted segments inside a mapped snapshot.
  struct MappedShardSegments {
    std::span<const Triple> spo;
    std::span<const Triple> pos;
    std::span<const Triple> osp;
  };

  /// A full mapped layout: options and one segment triplet per ring shard.
  /// `keepalive` pins the mapping for the store's lifetime.
  struct MappedLayout {
    StoreOptions options;
    std::vector<MappedShardSegments> shards;
    std::shared_ptr<const void> keepalive;
  };

  /// Replaces this (empty) store's contents with a mapped snapshot layout.
  /// Segments must be sorted (the snapshot writer guarantees it; the file
  /// checksum guards integrity). Reads are zero-copy; the first write thaws.
  Status AttachMapped(MappedLayout layout);

  /// True while shards are backed by a mapped snapshot (no write yet).
  bool is_mapped() const { return mapped_; }

  // --- Introspection (tests, benches, snapshot writer) ---------------------

  const StoreOptions& options() const { return options_; }

  /// Shard count: the ring size, num_hash_shards.
  size_t num_shards() const { return shards_.size(); }

  /// Shard `i`'s sorted segments (after forcing that shard's index build).
  /// Used by the snapshot writer; spans valid until the next write.
  MappedShardSegments ShardSegments(size_t i) const;

  /// Number of predicate-stats recomputations by this object — a
  /// diagnostic for "writes to one predicate no longer invalidate
  /// everything else" regression tests. GlobalStats never recomputes.
  uint64_t stats_recomputes() const { return stats_memo_.computes(); }

  /// Number of histogram rebuilds by this object — the diagnostic the
  /// histogram invalidation tests pin, mirroring stats_recomputes().
  uint64_t histogram_recomputes() const { return hist_memo_.computes(); }

 private:
  // Orderings for the three index vectors.
  struct SpoLess {
    bool operator()(const Triple& a, const Triple& b) const {
      if (a.subject != b.subject) return a.subject < b.subject;
      if (a.predicate != b.predicate) return a.predicate < b.predicate;
      return a.object < b.object;
    }
  };
  struct PosLess {
    bool operator()(const Triple& a, const Triple& b) const {
      if (a.predicate != b.predicate) return a.predicate < b.predicate;
      if (a.object != b.object) return a.object < b.object;
      return a.subject < b.subject;
    }
  };
  struct OspLess {
    bool operator()(const Triple& a, const Triple& b) const {
      if (a.object != b.object) return a.object < b.object;
      if (a.subject != b.subject) return a.subject < b.subject;
      return a.predicate < b.predicate;
    }
  };

  /// One shard: owned index vectors (or mapped spans), lazy-merge state and
  /// its own epoch. Heap-allocated because its mutex and atomics cannot
  /// move.
  struct Shard {
    // Owned storage; empty while `mapped`. Mutable (with the views below)
    // because the lazy tail merge runs on the const read path.
    mutable std::vector<Triple> spo, pos, osp;
    // Length of the prefix of spo/pos/osp known to be sorted by each
    // vector's own order. The three prefixes hold the same triples, and so
    // do the three unsorted tails behind them. Written under `mu` on the
    // read path; only writes read it outside the lock.
    mutable size_t sorted = 0;
    // Read views: the owned vectors after the last sort, or mmap segments.
    // Refreshed under `mu` before `dirty` is released, so any reader that
    // observed dirty == false sees current views.
    mutable std::span<const Triple> spo_v, pos_v, osp_v;
    bool mapped = false;

    mutable std::mutex mu;
    mutable std::atomic<bool> dirty{false};
    /// Per-shard write version; the stats memos are keyed off it.
    std::atomic<uint64_t> epoch{0};
  };

  /// Deterministic id mixer for routing (predicate → hash shard). Fixed
  /// across platforms so a snapshot written elsewhere routes identically.
  static uint32_t HashId(TermId x) {
    x ^= x >> 16;
    x *= 0x7feb352dU;
    x ^= x >> 15;
    x *= 0x846ca68bU;
    x ^= x >> 16;
    return x;
  }

  /// The ring shard predicate `p` routes to.
  uint32_t PredicateShard(TermId p) const {
    return HashId(p) % static_cast<uint32_t>(shards_.size());
  }

  /// Half-open shard interval [lo, hi) a pattern must visit.
  std::pair<uint32_t, uint32_t> ShardBounds(const TriplePattern& p) const;

  /// Shard i's contiguous range for `pattern`, after ensuring it is sorted.
  std::span<const Triple> PreparedShardRange(uint32_t i,
                                             const TriplePattern& p) const;
  /// Binary-searched range on an already-sorted shard's views.
  std::span<const Triple> ShardRange(const Shard& sh,
                                     const TriplePattern& p) const;

  /// Sorts shard `sh`'s tail, merges it into the sorted prefix and refreshes
  /// the read views; a no-op unless a write dirtied the shard.
  void EnsureShardSorted(const Shard& sh) const;

  /// Appends `t` to the tail of shard `i`'s vectors and marks it dirty.
  void AppendToShard(uint32_t i, const Triple& t);

  /// Removes `t` (known present) from shard `i`'s vectors and marks it dirty.
  void EraseFromShard(uint32_t i, const Triple& t);

  /// Materializes mapped shards into owned vectors and rebuilds the hash
  /// set; called on the first write after AttachMapped.
  void Thaw();

  /// The epoch of `p`'s shard after sorting it: the version `p`'s derived
  /// statistics are memoized at. A predicate never changes shard and shard
  /// epochs only grow, so a version never repeats for different contents.
  uint64_t PredicateVersion(TermId p) const;

  /// Stats for predicate `p`, read from its (sorted) shard.
  PredicateStats ComputeStats(TermId p) const;

  /// Drops every derived-data memo: their keys name shard slots, and a move
  /// or an attach puts different shards in those slots.
  void ClearMemos() const;

  void MoveFrom(TripleStore&& other);

  StoreOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Facts per predicate, for every predicate ever inserted (0 once all its
  /// facts are erased). Read-only during queries; mutated only by writes
  /// (the store's write contract).
  std::unordered_map<TermId, size_t> pred_facts_;
  size_t distinct_preds_ = 0;  // |{p : facts(p) > 0}|

  std::unordered_set<Triple, TripleHash> set_;
  size_t size_ = 0;
  /// Facts per subject and per object. A term whose count reaches 0 is
  /// dropped, so each map's size is the store's distinct-term count.
  std::unordered_map<TermId, size_t> subject_refs_, object_refs_;
  bool mapped_ = false;
  std::shared_ptr<const void> mapped_keepalive_;

  std::atomic<uint64_t> epoch_{0};
  /// Bulk-load state: nesting depth and whether the scope changed anything.
  size_t bulk_depth_ = 0;
  bool bulk_dirty_ = false;

  static constexpr size_t kPredicateMemoCapacity = 1 << 16;

  // Derived-data memos (util/epoch_memo.h), per predicate at
  // PredicateVersion(p).
  mutable EpochMemo<TermId, PredicateStats> stats_memo_{
      kPredicateMemoCapacity};
  mutable EpochMemo<TermId, std::shared_ptr<const PredicateHistograms>>
      hist_memo_{kPredicateMemoCapacity};
};

}  // namespace sofya

#endif  // SOFYA_RDF_TRIPLE_STORE_H_
