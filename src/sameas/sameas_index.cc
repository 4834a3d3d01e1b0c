#include "sameas/sameas_index.h"

#include <algorithm>

#include "util/string_util.h"

namespace sofya {

uint64_t SameAsIndex::NextGeneration() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

size_t SameAsIndex::InternLocal(const Term& t) {
  auto it = ids_.find(t);
  if (it != ids_.end()) return it->second;
  const size_t id = terms_.size();
  terms_.push_back(t);
  ids_.emplace(t, id);
  uf_.Grow(terms_.size());
  groups_dirty_ = true;
  return id;
}

void SameAsIndex::AddLink(const Term& a, const Term& b) {
  const size_t ia = InternLocal(a);
  const size_t ib = InternLocal(b);
  if (uf_.Union(ia, ib)) ++num_links_;
  generation_ = NextGeneration();
  groups_dirty_ = true;
  ClearTables();
}

bool SameAsIndex::AreEquivalent(const Term& a, const Term& b) const {
  auto ia = ids_.find(a);
  auto ib = ids_.find(b);
  if (ia == ids_.end() || ib == ids_.end()) return false;
  return uf_.Connected(ia->second, ib->second);
}

void SameAsIndex::EnsureGroups() const {
  if (!groups_dirty_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(groups_mu_);
  if (!groups_dirty_.load(std::memory_order_relaxed)) return;
  groups_.clear();
  for (size_t i = 0; i < terms_.size(); ++i) {
    groups_[uf_.Find(i)].push_back(i);
  }
  groups_dirty_.store(false, std::memory_order_release);
}

std::vector<Term> SameAsIndex::EquivalentsOf(const Term& x) const {
  auto it = ids_.find(x);
  if (it == ids_.end()) return {};
  EnsureGroups();
  const auto& members = groups_.at(uf_.Find(it->second));
  std::vector<Term> out;
  out.reserve(members.size());
  for (size_t id : members) {
    if (id != it->second) out.push_back(terms_[id]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const SameAsIndex::PrefixTable& SameAsIndex::TableFor(
    std::string_view prefix) const {
  auto find = [&]() -> const PrefixTable* {
    for (const PrefixTable* t = tables_head_.load(std::memory_order_acquire);
         t != nullptr; t = t->next) {
      if (t->prefix == prefix) return t;
    }
    return nullptr;
  };
  if (const PrefixTable* t = find()) return *t;
  std::lock_guard<std::mutex> lock(groups_mu_);
  if (const PrefixTable* t = find()) return *t;

  // The two smallest members of each class under the prefix, by root.
  auto table = std::make_unique<PrefixTable>();
  table->prefix = std::string(prefix);
  std::vector<std::pair<size_t, size_t>> smallest(
      terms_.size(), {kNoTranslation, kNoTranslation});
  auto less = [&](size_t a, size_t b) {
    return b == kNoTranslation || terms_[a] < terms_[b];
  };
  for (size_t id = 0; id < terms_.size(); ++id) {
    const Term& t = terms_[id];
    if (!t.is_iri() || !StartsWith(t.lexical(), prefix)) continue;
    auto& [first, second] = smallest[uf_.Find(id)];
    if (less(id, first)) {
      second = first;
      first = id;
    } else if (less(id, second)) {
      second = id;
    }
  }
  // An id translates to its class's smallest member under the prefix other
  // than itself; a member that is that smallest falls back to the second,
  // else to itself (it is under the prefix).
  table->to.resize(terms_.size());
  for (size_t id = 0; id < terms_.size(); ++id) {
    const auto [first, second] = smallest[uf_.Find(id)];
    if (first != id) {
      table->to[id] = first;
    } else {
      table->to[id] = second != kNoTranslation ? second : id;
    }
  }
  table->next = tables_head_.load(std::memory_order_relaxed);
  const PrefixTable* published = table.get();
  tables_.push_back(std::move(table));
  tables_head_.store(published, std::memory_order_release);
  return *published;
}

StatusOr<Term> SameAsIndex::TranslateTo(const Term& x,
                                        std::string_view target_prefix) const {
  auto it = ids_.find(x);
  if (it == ids_.end()) {
    // An unindexed term may still already be in the target namespace —
    // the shared-identifier regime (canonical IRIs, no links at all, e.g.
    // Wikidata-derived dumps): translation is the identity. Terms outside
    // the target namespace genuinely have no translation.
    if (x.is_iri() && StartsWith(x.lexical(), target_prefix)) return x;
    return Status::NotFound("term has no sameAs links");
  }
  const size_t to = TableFor(target_prefix).to[it->second];
  if (to == kNoTranslation) {
    return Status::NotFound(
        StrFormat("no equivalent of '%s' under prefix '%s'",
                  x.lexical().c_str(), std::string(target_prefix).c_str()));
  }
  return terms_[to];
}

}  // namespace sofya
