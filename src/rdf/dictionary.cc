#include "rdf/dictionary.h"

#include "util/string_util.h"

namespace sofya {

TermId Dictionary::Intern(const Term& term) {
  {
    // Fast path: most interns are repeats; answer them under a shared lock.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = index_.find(term);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  const TermId next = static_cast<TermId>(terms_.size() + 1);
  // try_emplace doubles as the re-check: another writer may have interned
  // the term between the locks, in which case it returns the existing node.
  auto [it, inserted] = index_.try_emplace(term, next);
  if (!inserted) return it->second;
  terms_.push_back(&it->first);
  return next;
}

TermId Dictionary::InternNew(Term&& term) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  const TermId next = static_cast<TermId>(terms_.size() + 1);
  // try_emplace leaves `term` untouched when the key already exists, so
  // the fallback path loses nothing.
  auto [it, inserted] = index_.try_emplace(std::move(term), next);
  if (!inserted) return it->second;
  terms_.push_back(&it->first);
  return next;
}

TermId Dictionary::Lookup(const Term& term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = index_.find(term);
  return it == index_.end() ? kNullTermId : it->second;
}

uint64_t Dictionary::SerializedSize(
    const std::vector<std::vector<TermId>>& rows) const {
  uint64_t bytes = 0;
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& row : rows) {
    for (TermId id : row) {
      bytes += ContainsLocked(id) ? terms_[id - 1]->NTriplesSize() + 1 : 1;
    }
  }
  return bytes;
}

const Term& Dictionary::Decode(TermId id) const {
  static const Term kInvalid = Term::Iri("urn:sofya:invalid-term-id");
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!ContainsLocked(id)) return kInvalid;
  // Map nodes never move or disappear: the reference outlives the lock.
  return *terms_[id - 1];
}

StatusOr<Term> Dictionary::TryDecode(TermId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (!ContainsLocked(id)) {
    return Status::NotFound(StrFormat("term id %u not in dictionary (size %zu)",
                                      id, terms_.size()));
  }
  return *terms_[id - 1];
}

}  // namespace sofya
