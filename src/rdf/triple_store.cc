#include "rdf/triple_store.h"

#include <algorithm>
#include <limits>
#include <string>

namespace sofya {

namespace {

constexpr TermId kMaxTermId = std::numeric_limits<TermId>::max();

// Bucket count for the per-term equi-depth histograms (HistogramFor). Small
// on purpose: the planner only needs coarse skew signal, and a histogram
// rebuild is a full walk of one predicate's facts.
constexpr size_t kHistogramBuckets = 32;

// Uncounts one fact of `term` (known counted); a term with no facts left
// leaves the map.
void DropRef(std::unordered_map<TermId, size_t>& refs, TermId term) {
  auto it = refs.find(term);
  if (--it->second == 0) refs.erase(it);
}

// Builds an equi-depth histogram over a sorted (duplicate-bearing) column.
// Buckets close once they hold ~n/buckets facts, but never in the middle of
// one term's run, so a term's facts always live in exactly one bucket.
TermHistogram BuildEquiDepth(const std::vector<TermId>& sorted) {
  TermHistogram h;
  if (sorted.empty()) return h;
  const size_t depth =
      (sorted.size() + kHistogramBuckets - 1) / kHistogramBuckets;
  h.lower = sorted.front();
  size_t bucket_rows = 0;
  size_t bucket_distinct = 0;
  for (size_t i = 0; i < sorted.size();) {
    size_t run = i + 1;
    while (run < sorted.size() && sorted[run] == sorted[i]) ++run;
    bucket_rows += run - i;
    ++bucket_distinct;
    if (bucket_rows >= depth || run == sorted.size()) {
      h.upper.push_back(sorted[i]);
      h.rows.push_back(bucket_rows);
      h.distinct.push_back(bucket_distinct);
      bucket_rows = 0;
      bucket_distinct = 0;
    }
    i = run;
  }
  return h;
}

// The entries of sorted `index` in [lo, hi]: one binary search for the
// first, then a gallop forward from it (1, 2, 4, ... entries) for the end.
// A prefix range is short next to its index, so finding its end costs
// O(log range) comparisons rather than a second search of the whole index.
template <typename Less>
std::span<const Triple> PrefixRange(std::span<const Triple> index,
                                    const Triple& lo, const Triple& hi,
                                    Less less) {
  const auto first = std::lower_bound(index.begin(), index.end(), lo, less);
  const size_t n = static_cast<size_t>(index.end() - first);
  // Entries before first + `from` are all within `hi`; the gallop stops
  // when first[reach - 1] passes it or the index ends.
  size_t from = 0;
  size_t reach = 1;
  while (reach <= n && !less(hi, first[reach - 1])) {
    from = reach;
    reach *= 2;
  }
  const auto last = std::upper_bound(first + from, first + std::min(reach, n),
                                     hi, less);
  return index.subspan(static_cast<size_t>(first - index.begin()),
                       static_cast<size_t>(last - first));
}

}  // namespace

double TermHistogram::EstimateEq(TermId t) const {
  if (empty() || t < lower || t > upper.back()) return 0.0;
  const size_t b = static_cast<size_t>(
      std::lower_bound(upper.begin(), upper.end(), t) - upper.begin());
  return static_cast<double>(rows[b]) /
         static_cast<double>(distinct[b] > 0 ? distinct[b] : 1);
}

double TermHistogram::ExpectedFanout() const {
  if (empty()) return 0.0;
  double weighted = 0.0;
  double total = 0.0;
  for (size_t b = 0; b < rows.size(); ++b) {
    const double r = static_cast<double>(rows[b]);
    weighted += r * r / static_cast<double>(distinct[b] > 0 ? distinct[b] : 1);
    total += r;
  }
  return total > 0.0 ? weighted / total : 0.0;
}

TripleStore::TripleStore(const StoreOptions& options) : options_(options) {
  if (options_.num_hash_shards == 0) options_.num_hash_shards = 1;
  shards_.reserve(options_.num_hash_shards);
  for (size_t i = 0; i < options_.num_hash_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void TripleStore::MoveFrom(TripleStore&& other) {
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  pred_facts_ = std::move(other.pred_facts_);
  distinct_preds_ = other.distinct_preds_;
  set_ = std::move(other.set_);
  size_ = other.size_;
  subject_refs_ = std::move(other.subject_refs_);
  object_refs_ = std::move(other.object_refs_);
  mapped_ = other.mapped_;
  mapped_keepalive_ = std::move(other.mapped_keepalive_);
  bulk_depth_ = other.bulk_depth_;
  bulk_dirty_ = other.bulk_dirty_;
  epoch_.store(other.epoch_.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
  ClearMemos();
  other.ClearMemos();
  // Leave `other` as a valid empty store.
  other.pred_facts_.clear();
  other.distinct_preds_ = 0;
  other.size_ = 0;
  other.subject_refs_.clear();
  other.object_refs_.clear();
  other.mapped_ = false;
  other.bulk_depth_ = 0;
  other.bulk_dirty_ = false;
  other.shards_.clear();
  for (size_t i = 0; i < other.options_.num_hash_shards; ++i) {
    other.shards_.push_back(std::make_unique<Shard>());
  }
}

void TripleStore::AppendToShard(uint32_t i, const Triple& t) {
  Shard& sh = *shards_[i];
  sh.spo.push_back(t);
  sh.pos.push_back(t);
  sh.osp.push_back(t);
  sh.epoch.fetch_add(1, std::memory_order_relaxed);
  sh.dirty.store(true, std::memory_order_release);
}

void TripleStore::EraseFromShard(uint32_t i, const Triple& t) {
  Shard& sh = *shards_[i];
  const auto prefix_end = sh.spo.begin() + static_cast<ptrdiff_t>(sh.sorted);
  if (std::binary_search(sh.spo.begin(), prefix_end, t, SpoLess())) {
    // In the sorted prefix: an order-preserving erase keeps it sorted, so
    // the next read has only the tail to merge.
    auto erase_sorted = [&](std::vector<Triple>& v, auto less) {
      v.erase(std::lower_bound(
          v.begin(), v.begin() + static_cast<ptrdiff_t>(sh.sorted), t, less));
    };
    erase_sorted(sh.spo, SpoLess());
    erase_sorted(sh.pos, PosLess());
    erase_sorted(sh.osp, OspLess());
    --sh.sorted;
  } else {
    // In the unsorted tail: order there is irrelevant, swap with the back.
    auto erase_tail = [&](std::vector<Triple>& v) {
      auto it = std::find(v.begin() + static_cast<ptrdiff_t>(sh.sorted),
                          v.end(), t);
      *it = v.back();
      v.pop_back();
    };
    erase_tail(sh.spo);
    erase_tail(sh.pos);
    erase_tail(sh.osp);
  }
  sh.epoch.fetch_add(1, std::memory_order_relaxed);
  // Still dirty after a prefix-only erase: nothing needs sorting, but the
  // read views must be refreshed because the span lengths changed.
  sh.dirty.store(true, std::memory_order_release);
}

bool TripleStore::Insert(const Triple& t) {
  if (mapped_) {
    // A duplicate changes nothing, so it must not pay for (or cause) a thaw.
    if (Contains(t)) return false;
    Thaw();
  }
  if (!set_.insert(t).second) return false;
  ++size_;
  ++subject_refs_[t.subject];
  ++object_refs_[t.object];
  if (pred_facts_[t.predicate]++ == 0) ++distinct_preds_;
  AppendToShard(PredicateShard(t.predicate), t);
  if (bulk_depth_ > 0) {
    bulk_dirty_ = true;
  } else {
    epoch_.fetch_add(1, std::memory_order_release);
  }
  return true;
}

bool TripleStore::Erase(const Triple& t) {
  if (mapped_) {
    // Erasing an absent triple changes nothing: keep the store mapped.
    if (!Contains(t)) return false;
    Thaw();
  }
  if (set_.erase(t) == 0) return false;
  --size_;
  DropRef(subject_refs_, t.subject);
  DropRef(object_refs_, t.object);
  // The set held the triple, so the predicate is counted.
  if (--pred_facts_.find(t.predicate)->second == 0) --distinct_preds_;
  EraseFromShard(PredicateShard(t.predicate), t);
  if (bulk_depth_ > 0) {
    bulk_dirty_ = true;
  } else {
    epoch_.fetch_add(1, std::memory_order_release);
  }
  return true;
}

bool TripleStore::Contains(const Triple& t) const {
  if (!mapped_) return set_.count(t) > 0;
  // Mapped mode keeps no hash set; membership is a binary search in the
  // owning shard's SPO segment.
  const Shard& sh = *shards_[PredicateShard(t.predicate)];
  return std::binary_search(sh.spo_v.begin(), sh.spo_v.end(), t, SpoLess());
}

void TripleStore::Thaw() {
  if (!mapped_) return;
  set_.reserve(size_);
  for (auto& shard : shards_) {
    Shard& sh = *shard;
    if (sh.mapped) {
      sh.spo.assign(sh.spo_v.begin(), sh.spo_v.end());
      sh.pos.assign(sh.pos_v.begin(), sh.pos_v.end());
      sh.osp.assign(sh.osp_v.begin(), sh.osp_v.end());
      sh.spo_v = {sh.spo.data(), sh.spo.size()};
      sh.pos_v = {sh.pos.data(), sh.pos.size()};
      sh.osp_v = {sh.osp.data(), sh.osp.size()};
      sh.sorted = sh.spo.size();
      sh.mapped = false;  // Still sorted; dirty stays false.
    }
    for (const Triple& t : sh.spo) set_.insert(t);
  }
  mapped_ = false;
  mapped_keepalive_.reset();
}

void TripleStore::BeginBulkLoad(size_t expected) {
  if (mapped_) Thaw();
  ++bulk_depth_;
  if (expected > 0) Reserve(size_ + expected);
}

void TripleStore::EndBulkLoad() {
  if (bulk_depth_ == 0) return;
  if (--bulk_depth_ > 0) return;
  if (!bulk_dirty_) return;
  bulk_dirty_ = false;
  // A single epoch bump for the whole load.
  epoch_.fetch_add(1, std::memory_order_release);
}

void TripleStore::Reserve(size_t n) {
  set_.reserve(n);
  subject_refs_.reserve(n);
  object_refs_.reserve(n);
}

void TripleStore::EnsureShardSorted(const Shard& sh) const {
  if (sh.mapped) return;  // Snapshot segments are written sorted.
  // Double-checked: steady-state reads cost one acquire load; the first
  // read after a write merges under the lock while latecomers wait.
  if (!sh.dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(sh.mu);
  if (!sh.dirty.load(std::memory_order_relaxed)) return;
  // Sort only the tail written since the last read, then merge it into the
  // sorted prefix: O(delta log delta + n) moves instead of a full re-sort.
  // A bulk load starts at sorted == 0, so it is one full sort.
  auto merge_tail = [&](std::vector<Triple>& v, auto less) {
    const auto mid = v.begin() + static_cast<ptrdiff_t>(sh.sorted);
    std::sort(mid, v.end(), less);
    std::inplace_merge(v.begin(), mid, v.end(), less);
  };
  merge_tail(sh.spo, SpoLess());
  merge_tail(sh.pos, PosLess());
  merge_tail(sh.osp, OspLess());
  sh.sorted = sh.spo.size();
  sh.spo_v = {sh.spo.data(), sh.spo.size()};
  sh.pos_v = {sh.pos.data(), sh.pos.size()};
  sh.osp_v = {sh.osp.data(), sh.osp.size()};
  sh.dirty.store(false, std::memory_order_release);
}

void TripleStore::EnsureIndexed() const {
  for (const auto& shard : shards_) EnsureShardSorted(*shard);
}

std::pair<uint32_t, uint32_t> TripleStore::ShardBounds(
    const TriplePattern& p) const {
  if (p.has_predicate()) {
    auto it = pred_facts_.find(p.predicate);
    if (it == pred_facts_.end() || it->second == 0) return {0, 0};
    const uint32_t i = PredicateShard(p.predicate);
    return {i, i + 1};
  }
  return {0, static_cast<uint32_t>(shards_.size())};
}

std::span<const Triple> TripleStore::ShardRange(
    const Shard& sh, const TriplePattern& pattern) const {
  const bool s = pattern.has_subject();
  const bool p = pattern.has_predicate();
  const bool o = pattern.has_object();

  // Pick the index whose ordering makes every bound position a prefix, then
  // find the [lo, hi] range of that prefix. Unlike the pre-sharding store,
  // all eight shapes are full prefixes here (〈s,p,o〉 uses SPO), so residual
  // checks are no-ops.
  if (s && !(o && !p)) {
    // (s ? ?), (s p ?), (s p o): SPO, prefix (s), (s,p) or (s,p,o).
    return PrefixRange(
        sh.spo_v,
        Triple(pattern.subject, p ? pattern.predicate : 0,
               o ? pattern.object : 0),
        Triple(pattern.subject, p ? pattern.predicate : kMaxTermId,
               o ? pattern.object : kMaxTermId),
        SpoLess());
  }
  if (p && !s) {
    // (? p ?) or (? p o): POS, prefix (p) or (p, o).
    return PrefixRange(
        sh.pos_v,
        Triple(kNullTermId, pattern.predicate, o ? pattern.object : 0),
        Triple(kMaxTermId, pattern.predicate, o ? pattern.object : kMaxTermId),
        PosLess());
  }
  if (o) {
    // (? ? o) or (s ? o): OSP, prefix (o) or (o, s).
    return PrefixRange(
        sh.osp_v, Triple(s ? pattern.subject : 0, kNullTermId, pattern.object),
        Triple(s ? pattern.subject : kMaxTermId, kMaxTermId, pattern.object),
        OspLess());
  }
  // (? ? ?): full shard scan over SPO.
  return sh.spo_v;
}

std::span<const Triple> TripleStore::PreparedShardRange(
    uint32_t i, const TriplePattern& pattern) const {
  const Shard& sh = *shards_[i];
  EnsureShardSorted(sh);
  return ShardRange(sh, pattern);
}

MatchView TripleStore::MatchSpans(const TriplePattern& pattern) const {
  MatchView view;
  const auto [lo, hi] = ShardBounds(pattern);
  for (uint32_t i = lo; i < hi; ++i) {
    view.Append(PreparedShardRange(i, pattern));
  }
  return view;
}

std::vector<Triple> TripleStore::Match(const TriplePattern& pattern) const {
  std::vector<Triple> out;
  ForEachMatch(pattern, [&](const Triple& t) {
    out.push_back(t);
    return true;
  });
  return out;
}

size_t TripleStore::CountMatches(const TriplePattern& pattern) const {
  // Every pattern shape is a full prefix of its chosen per-shard index, so
  // the count is just the sum of span widths.
  return MatchSpans(pattern).total();
}

std::vector<TermId> TripleStore::Objects(TermId s, TermId p) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern(s, p, kNullTermId), [&](const Triple& t) {
    out.push_back(t.object);
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> TripleStore::Subjects(TermId p, TermId o) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern(kNullTermId, p, o), [&](const Triple& t) {
    out.push_back(t.subject);
    return true;
  });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> TripleStore::SubjectsOf(TermId p) const {
  std::vector<TermId> out;
  ForEachMatch(TriplePattern(kNullTermId, p, kNullTermId),
               [&](const Triple& t) {
                 out.push_back(t.subject);
                 return true;
               });
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<TermId> TripleStore::Predicates() const {
  std::vector<TermId> out;
  out.reserve(distinct_preds_);
  for (const auto& [p, facts] : pred_facts_) {
    if (facts > 0) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TripleStore::MappedShardSegments TripleStore::ShardSegments(size_t i) const {
  const Shard& sh = *shards_[i];
  EnsureShardSorted(sh);
  return {sh.spo_v, sh.pos_v, sh.osp_v};
}

uint64_t TripleStore::PredicateVersion(TermId p) const {
  const Shard& sh = *shards_[PredicateShard(p)];
  EnsureShardSorted(sh);
  return sh.epoch.load(std::memory_order_acquire);
}

PredicateStats TripleStore::ComputeStats(TermId p) const {
  PredicateStats stats;
  std::vector<TermId> subjects;
  // POS orders p's range by (object, subject): objects are transition
  // counts, subjects need one sort.
  TermId prev_object = kNullTermId;
  bool first = true;
  for (const Triple& t :
       ShardRange(*shards_[PredicateShard(p)],
                  TriplePattern(kNullTermId, p, kNullTermId))) {
    ++stats.facts;
    subjects.push_back(t.subject);
    if (first || t.object != prev_object) ++stats.distinct_objects;
    prev_object = t.object;
    first = false;
  }
  std::sort(subjects.begin(), subjects.end());
  subjects.erase(std::unique(subjects.begin(), subjects.end()),
                 subjects.end());
  stats.distinct_subjects = subjects.size();
  return stats;
}

PredicateStats TripleStore::StatsFor(TermId p) const {
  auto it = pred_facts_.find(p);
  if (it == pred_facts_.end() || it->second == 0) return PredicateStats();
  return stats_memo_.GetOrCompute(p, PredicateVersion(p),
                                  [&] { return ComputeStats(p); });
}

PredicateHistograms TripleStore::HistogramFor(TermId p) const {
  auto it = pred_facts_.find(p);
  if (it == pred_facts_.end() || it->second == 0) return PredicateHistograms();
  const size_t facts = it->second;
  return *hist_memo_.GetOrCompute(
      p, PredicateVersion(p), [&] {
        // One walk of p's facts; both columns are collected and sorted here
        // rather than k-way merged — the rebuild is memoized, so simplicity
        // wins.
        std::vector<TermId> subjects, objects;
        subjects.reserve(facts);
        objects.reserve(facts);
        ForEachMatch(TriplePattern(kNullTermId, p, kNullTermId),
                     [&](const Triple& t) {
                       subjects.push_back(t.subject);
                       objects.push_back(t.object);
                       return true;
                     });
        std::sort(subjects.begin(), subjects.end());
        std::sort(objects.begin(), objects.end());
        auto hist = std::make_shared<PredicateHistograms>();
        hist->subjects = BuildEquiDepth(subjects);
        hist->objects = BuildEquiDepth(objects);
        return hist;
      });
}

void TripleStore::ClearMemos() const {
  stats_memo_.Clear();
  hist_memo_.Clear();
}

Status TripleStore::AttachMapped(MappedLayout layout) {
  if (size_ != 0 || !set_.empty()) {
    return Status::InvalidArgument(
        "AttachMapped requires an empty TripleStore");
  }
  StoreOptions opts = layout.options;
  if (opts.num_hash_shards == 0) opts.num_hash_shards = 1;
  if (layout.shards.size() != opts.num_hash_shards) {
    return Status::InvalidArgument("snapshot shard table has " +
                                   std::to_string(layout.shards.size()) +
                                   " shards, layout implies " +
                                   std::to_string(opts.num_hash_shards));
  }
  for (const auto& seg : layout.shards) {
    if (seg.spo.size() != seg.pos.size() || seg.spo.size() != seg.osp.size()) {
      return Status::InvalidArgument(
          "snapshot shard segments disagree on triple count");
    }
  }

  // Validate and count into locals first: a rejected layout leaves the
  // store as it was (empty, not mapped), never half attached.
  const size_t ring = layout.shards.size();
  size_t size = 0;
  std::unordered_map<TermId, size_t> pred_facts;
  // Rebuild the predicate directory by skip-scanning each POS segment.
  for (size_t i = 0; i < ring; ++i) {
    const std::span<const Triple> pos_v = layout.shards[i].pos;
    size += pos_v.size();
    size_t at = 0;
    while (at < pos_v.size()) {
      const TermId p = pos_v[at].predicate;
      if (HashId(p) % ring != i) {
        return Status::InvalidArgument(
            "snapshot predicate routed to wrong hash shard");
      }
      size_t end;
      if (p == std::numeric_limits<TermId>::max()) {
        end = pos_v.size();
      } else {
        auto it = std::lower_bound(pos_v.begin() + at, pos_v.end(),
                                   Triple(0, p + 1, 0), PosLess());
        end = static_cast<size_t>(it - pos_v.begin());
      }
      if (!pred_facts.try_emplace(p, end - at).second) {
        return Status::InvalidArgument(
            "snapshot predicate appears twice in its shard");
      }
      at = end;
    }
  }
  // Per-term fact counts: one pass over each shard's SPO runs (subjects)
  // and OSP runs (objects).
  auto count_runs = [](std::span<const Triple> v, TermId Triple::* term,
                       std::unordered_map<TermId, size_t>& refs) {
    for (size_t i = 0; i < v.size();) {
      size_t end = i + 1;
      while (end < v.size() && v[end].*term == v[i].*term) ++end;
      refs[v[i].*term] += end - i;
      i = end;
    }
  };
  std::unordered_map<TermId, size_t> subject_refs, object_refs;
  subject_refs.reserve(size);
  object_refs.reserve(size);
  for (const MappedShardSegments& seg : layout.shards) {
    count_runs(seg.spo, &Triple::subject, subject_refs);
    count_runs(seg.osp, &Triple::object, object_refs);
  }

  // Commit.
  options_ = opts;
  shards_.clear();
  for (const MappedShardSegments& seg : layout.shards) {
    auto sh = std::make_unique<Shard>();
    sh->spo_v = seg.spo;
    sh->pos_v = seg.pos;
    sh->osp_v = seg.osp;
    sh->mapped = true;
    shards_.push_back(std::move(sh));
  }
  distinct_preds_ = pred_facts.size();
  pred_facts_ = std::move(pred_facts);
  size_ = size;
  subject_refs_ = std::move(subject_refs);
  object_refs_ = std::move(object_refs);
  mapped_ = true;
  mapped_keepalive_ = std::move(layout.keepalive);
  bulk_depth_ = 0;
  bulk_dirty_ = false;
  ClearMemos();
  // Attaching replaces the (empty) contents: bump so epoch-keyed consumers
  // re-derive.
  epoch_.fetch_add(1, std::memory_order_release);
  return Status::OK();
}

}  // namespace sofya
