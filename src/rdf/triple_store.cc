#include "rdf/triple_store.h"

#include <algorithm>
#include <limits>
#include <string>

namespace sofya {

namespace {

constexpr TermId kMaxTermId = std::numeric_limits<TermId>::max();

// Counts the distinct objects across k OSP-sorted spans by synchronized
// min-scans, skipping each span's whole run of the current minimum. k is a
// group's split factor (small), so the linear min probe beats a heap.
size_t CountDistinctUnion(const std::vector<std::span<const Triple>>& lists) {
  std::vector<size_t> pos(lists.size(), 0);
  size_t distinct = 0;
  while (true) {
    TermId min_id = kMaxTermId;
    bool any = false;
    for (size_t k = 0; k < lists.size(); ++k) {
      if (pos[k] < lists[k].size()) {
        any = true;
        min_id = std::min(min_id, lists[k][pos[k]].object);
      }
    }
    if (!any) break;
    ++distinct;
    for (size_t k = 0; k < lists.size(); ++k) {
      while (pos[k] < lists[k].size() && lists[k][pos[k]].object == min_id) {
        ++pos[k];
      }
    }
  }
  return distinct;
}

// Uncounts one fact of `term` (known counted); a term with no facts left
// leaves the map.
void DropRef(std::unordered_map<TermId, size_t>& refs, TermId term) {
  auto it = refs.find(term);
  if (--it->second == 0) refs.erase(it);
}

// Builds an equi-depth histogram over a sorted (duplicate-bearing) column.
// Buckets close once they hold ~n/buckets facts, but never in the middle of
// one term's run, so a term's facts always live in exactly one bucket.
TermHistogram BuildEquiDepth(const std::vector<TermId>& sorted,
                             size_t buckets) {
  TermHistogram h;
  if (sorted.empty()) return h;
  if (buckets == 0) buckets = 1;
  const size_t depth = (sorted.size() + buckets - 1) / buckets;
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
  if (options_.split_factor == 0) options_.split_factor = 1;
  shards_.reserve(options_.num_hash_shards);
  for (size_t i = 0; i < options_.num_hash_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void TripleStore::MoveFrom(TripleStore&& other) {
  options_ = other.options_;
  shards_ = std::move(other.shards_);
  groups_ = std::move(other.groups_);
  pred_info_ = std::move(other.pred_info_);
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
  other.pred_info_.clear();
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

uint32_t TripleStore::ShardFor(const Triple& t) const {
  auto it = pred_info_.find(t.predicate);
  if (it != pred_info_.end() && it->second.group >= 0) {
    const PredGroup& g = groups_[static_cast<size_t>(it->second.group)];
    return g.first_shard + HashId(t.subject) % g.split;
  }
  return HashId(t.predicate) %
         static_cast<uint32_t>(options_.num_hash_shards);
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
  PredInfo& info = pred_info_[t.predicate];
  if (info.facts == 0) ++distinct_preds_;
  ++info.facts;
  AppendToShard(ShardFor(t), t);
  if (bulk_depth_ > 0) {
    bulk_dirty_ = true;
  } else {
    epoch_.fetch_add(1, std::memory_order_release);
    if (options_.promote_threshold > 0 && info.group < 0 &&
        info.facts > options_.promote_threshold) {
      Promote(t.predicate, info);
    }
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
  auto it = pred_info_.find(t.predicate);
  // The set held the triple, so routing info must exist.
  --it->second.facts;
  if (it->second.facts == 0) --distinct_preds_;
  EraseFromShard(ShardFor(t), t);
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
  auto it = pred_info_.find(t.predicate);
  if (it == pred_info_.end() || it->second.facts == 0) return false;
  const Shard& sh = *shards_[ShardFor(t)];
  return std::binary_search(sh.spo_v.begin(), sh.spo_v.end(), t, SpoLess());
}

void TripleStore::Promote(TermId p, PredInfo& info) {
  const uint32_t src_idx =
      HashId(p) % static_cast<uint32_t>(options_.num_hash_shards);
  Shard& src = *shards_[src_idx];
  const uint32_t first = static_cast<uint32_t>(shards_.size());
  const uint32_t split = static_cast<uint32_t>(options_.split_factor);
  for (uint32_t k = 0; k < split; ++k) {
    shards_.push_back(std::make_unique<Shard>());
  }
  // Partition p's triples out of the hash shard into the sub-shards by
  // subject hash. The stable sweep preserves relative order, so the source
  // keeps a sorted prefix: the triples it keeps from its old prefix (the
  // same set in all three vectors). It is re-marked dirty anyway because
  // its views must be refreshed after shrinking. The sub-shards start with
  // everything in the tail (sorted == 0).
  const size_t kept_sorted = static_cast<size_t>(std::count_if(
      src.spo.begin(), src.spo.begin() + static_cast<ptrdiff_t>(src.sorted),
      [p](const Triple& t) { return t.predicate != p; }));
  auto split_vec = [&](std::vector<Triple>& v,
                       std::vector<Triple> Shard::* member) {
    auto keep = v.begin();
    for (auto it = v.begin(); it != v.end(); ++it) {
      if (it->predicate == p) {
        Shard& dst = *shards_[first + HashId(it->subject) % split];
        (dst.*member).push_back(*it);
      } else {
        *keep++ = *it;
      }
    }
    v.erase(keep, v.end());
  };
  split_vec(src.spo, &Shard::spo);
  split_vec(src.pos, &Shard::pos);
  split_vec(src.osp, &Shard::osp);
  src.sorted = kept_sorted;
  src.epoch.fetch_add(1, std::memory_order_relaxed);
  src.dirty.store(true, std::memory_order_release);
  for (uint32_t k = 0; k < split; ++k) {
    Shard& sh = *shards_[first + k];
    sh.epoch.fetch_add(1, std::memory_order_relaxed);
    sh.dirty.store(true, std::memory_order_release);
  }
  info.group = static_cast<int32_t>(groups_.size());
  groups_.push_back(PredGroup{p, first, split});
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
  // One promotion pass for everything that crossed the threshold during the
  // load, then a single epoch bump for the whole file.
  if (options_.promote_threshold > 0) {
    std::vector<TermId> to_promote;
    for (const auto& [p, info] : pred_info_) {
      if (info.group < 0 && info.facts > options_.promote_threshold) {
        to_promote.push_back(p);
      }
    }
    std::sort(to_promote.begin(), to_promote.end());  // Deterministic order.
    for (TermId p : to_promote) Promote(p, pred_info_.find(p)->second);
  }
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
    auto it = pred_info_.find(p.predicate);
    if (it == pred_info_.end() || it->second.facts == 0) return {0, 0};
    if (it->second.group >= 0) {
      const PredGroup& g = groups_[static_cast<size_t>(it->second.group)];
      if (p.has_subject()) {
        const uint32_t i = g.first_shard + HashId(p.subject) % g.split;
        return {i, i + 1};
      }
      return {g.first_shard, g.first_shard + g.split};
    }
    const uint32_t i = HashId(p.predicate) %
                       static_cast<uint32_t>(options_.num_hash_shards);
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
  // binary-search the [lo, hi) range of that prefix. Unlike the pre-sharding
  // store, all eight shapes are full prefixes here (〈s,p,o〉 uses SPO), so
  // residual checks are no-ops.
  if (s && !(o && !p)) {
    // (s ? ?), (s p ?), (s p o): SPO, prefix (s), (s,p) or (s,p,o).
    const Triple lo(pattern.subject, p ? pattern.predicate : 0,
                    o ? pattern.object : 0);
    const Triple hi(pattern.subject, p ? pattern.predicate : kMaxTermId,
                    o ? pattern.object : kMaxTermId);
    auto first =
        std::lower_bound(sh.spo_v.begin(), sh.spo_v.end(), lo, SpoLess());
    auto last =
        std::upper_bound(sh.spo_v.begin(), sh.spo_v.end(), hi, SpoLess());
    return sh.spo_v.subspan(
        static_cast<size_t>(first - sh.spo_v.begin()),
        static_cast<size_t>(last - first));
  }
  if (p && !s) {
    // (? p ?) or (? p o): POS, prefix (p) or (p, o).
    const Triple lo(kNullTermId, pattern.predicate, o ? pattern.object : 0);
    const Triple hi(kMaxTermId, pattern.predicate,
                    o ? pattern.object : kMaxTermId);
    auto first =
        std::lower_bound(sh.pos_v.begin(), sh.pos_v.end(), lo, PosLess());
    auto last =
        std::upper_bound(sh.pos_v.begin(), sh.pos_v.end(), hi, PosLess());
    return sh.pos_v.subspan(
        static_cast<size_t>(first - sh.pos_v.begin()),
        static_cast<size_t>(last - first));
  }
  if (o) {
    // (? ? o) or (s ? o): OSP, prefix (o) or (o, s).
    const Triple lo(s ? pattern.subject : 0, kNullTermId, pattern.object);
    const Triple hi(s ? pattern.subject : kMaxTermId, kMaxTermId,
                    pattern.object);
    auto first =
        std::lower_bound(sh.osp_v.begin(), sh.osp_v.end(), lo, OspLess());
    auto last =
        std::upper_bound(sh.osp_v.begin(), sh.osp_v.end(), hi, OspLess());
    return sh.osp_v.subspan(
        static_cast<size_t>(first - sh.osp_v.begin()),
        static_cast<size_t>(last - first));
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
  for (const auto& [p, info] : pred_info_) {
    if (info.facts > 0) out.push_back(p);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TermId> TripleStore::PromotedPredicates() const {
  std::vector<TermId> out;
  out.reserve(groups_.size());
  for (const PredGroup& g : groups_) out.push_back(g.pred);
  return out;
}

TripleStore::MappedShardSegments TripleStore::ShardSegments(size_t i) const {
  const Shard& sh = *shards_[i];
  EnsureShardSorted(sh);
  return {sh.spo_v, sh.pos_v, sh.osp_v};
}

TripleStore::OwnerEpoch TripleStore::OwnerVersion(TermId p,
                                                  const PredInfo& info) const {
  if (info.group < 0) {
    const uint32_t i =
        HashId(p) % static_cast<uint32_t>(options_.num_hash_shards);
    EnsureShardSorted(*shards_[i]);
    return {i, shards_[i]->epoch.load(std::memory_order_acquire)};
  }
  const PredGroup& g = groups_[static_cast<size_t>(info.group)];
  OwnerEpoch version{g.first_shard, 0};
  for (uint32_t k = 0; k < g.split; ++k) {
    const Shard& sh = *shards_[g.first_shard + k];
    EnsureShardSorted(sh);
    version.epoch += sh.epoch.load(std::memory_order_acquire);
  }
  return version;
}

PredicateStats TripleStore::ComputeShardStats(uint32_t i, TermId p) const {
  PredicateStats stats;
  std::vector<TermId> subjects;
  // POS orders p's range by (object, subject): objects are transition
  // counts, subjects need one sort.
  TermId prev_object = kNullTermId;
  bool first = true;
  for (const Triple& t :
       ShardRange(*shards_[i], TriplePattern(kNullTermId, p, kNullTermId))) {
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

PredicateStats TripleStore::ComputeGroupStats(const PredGroup& g) const {
  // A sub-shard holds only g.pred. Sub-shards partition by subject hash, so
  // the SPO subject runs sum to the distinct subjects exactly; objects can
  // repeat across sub-shards and are union-counted over the OSP spans.
  PredicateStats stats;
  std::vector<std::span<const Triple>> osp_spans;
  for (uint32_t k = 0; k < g.split; ++k) {
    const Shard& sh = *shards_[g.first_shard + k];
    stats.facts += sh.spo_v.size();
    for (size_t i = 0; i < sh.spo_v.size(); ++i) {
      if (i == 0 || sh.spo_v[i].subject != sh.spo_v[i - 1].subject) {
        ++stats.distinct_subjects;
      }
    }
    osp_spans.push_back(sh.osp_v);
  }
  stats.distinct_objects = CountDistinctUnion(osp_spans);
  return stats;
}

PredicateStats TripleStore::StatsFor(TermId p) const {
  auto it = pred_info_.find(p);
  if (it == pred_info_.end() || it->second.facts == 0) {
    return PredicateStats();
  }
  const PredInfo& info = it->second;
  const OwnerEpoch version = OwnerVersion(p, info);
  return stats_memo_.GetOrCompute(p, version, [&] {
    return info.group >= 0
               ? ComputeGroupStats(groups_[static_cast<size_t>(info.group)])
               : ComputeShardStats(version.owner, p);
  });
}

PredicateHistograms TripleStore::HistogramFor(TermId p) const {
  auto info_it = pred_info_.find(p);
  if (info_it == pred_info_.end() || info_it->second.facts == 0) {
    return PredicateHistograms();
  }
  const size_t facts = info_it->second.facts;
  return *hist_memo_.GetOrCompute(
      p, OwnerVersion(p, info_it->second), [&] {
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
        hist->subjects = BuildEquiDepth(subjects, options_.histogram_buckets);
        hist->objects = BuildEquiDepth(objects, options_.histogram_buckets);
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
  if (opts.split_factor == 0) opts.split_factor = 1;
  const size_t expected =
      opts.num_hash_shards + layout.group_preds.size() * opts.split_factor;
  if (layout.shards.size() != expected) {
    return Status::InvalidArgument("snapshot shard table has " +
                                   std::to_string(layout.shards.size()) +
                                   " shards, layout implies " +
                                   std::to_string(expected));
  }
  for (const auto& seg : layout.shards) {
    if (seg.spo.size() != seg.pos.size() || seg.spo.size() != seg.osp.size()) {
      return Status::InvalidArgument(
          "snapshot shard segments disagree on triple count");
    }
  }

  options_ = opts;
  shards_.clear();
  groups_.clear();
  pred_info_.clear();
  distinct_preds_ = 0;
  size_ = 0;
  subject_refs_.clear();
  object_refs_.clear();
  for (size_t i = 0; i < layout.shards.size(); ++i) {
    auto sh = std::make_unique<Shard>();
    sh->spo_v = layout.shards[i].spo;
    sh->pos_v = layout.shards[i].pos;
    sh->osp_v = layout.shards[i].osp;
    sh->mapped = true;
    size_ += sh->spo_v.size();
    shards_.push_back(std::move(sh));
  }
  // Dedicated groups, in file (= promotion) order.
  for (size_t gi = 0; gi < layout.group_preds.size(); ++gi) {
    const PredGroup group{
        layout.group_preds[gi],
        static_cast<uint32_t>(opts.num_hash_shards + gi * opts.split_factor),
        static_cast<uint32_t>(opts.split_factor)};
    PredInfo& info = pred_info_[group.pred];
    if (info.facts > 0 || info.group >= 0) {
      return Status::InvalidArgument("duplicate promoted predicate in snapshot");
    }
    info.group = static_cast<int32_t>(gi);
    for (uint32_t k = 0; k < group.split; ++k) {
      info.facts += shards_[group.first_shard + k]->spo_v.size();
    }
    if (info.facts > 0) ++distinct_preds_;
    groups_.push_back(group);
  }
  // Hash shards: rebuild the routing map by skip-scanning each POS segment.
  for (size_t i = 0; i < opts.num_hash_shards; ++i) {
    const std::span<const Triple> pos_v = shards_[i]->pos_v;
    size_t at = 0;
    while (at < pos_v.size()) {
      const TermId p = pos_v[at].predicate;
      if (HashId(p) % static_cast<uint32_t>(opts.num_hash_shards) != i) {
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
      PredInfo& info = pred_info_[p];
      if (info.group >= 0 || info.facts > 0) {
        return Status::InvalidArgument(
            "snapshot predicate appears in multiple shards");
      }
      info.facts = end - at;
      ++distinct_preds_;
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
  subject_refs_.reserve(size_);
  object_refs_.reserve(size_);
  for (const auto& sh : shards_) {
    count_runs(sh->spo_v, &Triple::subject, subject_refs_);
    count_runs(sh->osp_v, &Triple::object, object_refs_);
  }

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
