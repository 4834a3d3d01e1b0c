// Dictionary encoding: Term <-> TermId.
//
// Standard triple-store design (RDF-3X, HDT): every distinct term is interned
// once and triples hold 32-bit ids, which makes index entries 12 bytes and
// joins integer comparisons. Ids are dense, starting at 1 (0 is the
// null/wildcard id).
//
// Thread safety: fully synchronized (reader/writer lock). Interning is the
// one mutation the alignment pipeline performs on a KB during queries
// (EncodeTerm for translated constants), so parallel alignment requires the
// dictionary to take concurrent Intern/Lookup/Decode calls. Terms live in a
// deque, which never relocates elements on append — the references Decode()
// hands out stay valid across later interns.

#ifndef SOFYA_RDF_DICTIONARY_H_
#define SOFYA_RDF_DICTIONARY_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"

namespace sofya {

/// Bidirectional Term <-> TermId map. Safe for concurrent use; ids are
/// assigned in interning order and never change or disappear.
class Dictionary {
 public:
  Dictionary() = default;

  // Movable (KnowledgeBase is movable); the caller must not move a
  // dictionary that other threads are using.
  Dictionary(Dictionary&& other) noexcept {
    std::unique_lock<std::shared_mutex> lock(other.mu_);
    terms_ = std::move(other.terms_);
    index_ = std::move(other.index_);
  }
  Dictionary& operator=(Dictionary&& other) noexcept {
    if (this != &other) {
      std::scoped_lock lock(mu_, other.mu_);
      terms_ = std::move(other.terms_);
      index_ = std::move(other.index_);
    }
    return *this;
  }

  /// Interns `term`, returning its id (existing id if already present).
  TermId Intern(const Term& term);

  /// Interning fast path for loaders replaying terms expected to be new
  /// (snapshot dictionary rebuild): one lock, one hash probe, and the term
  /// is moved rather than copied. Falls back to returning the existing id
  /// if the term was interned before — identical semantics to Intern().
  TermId InternNew(Term&& term);

  /// Convenience: interns an IRI term.
  TermId InternIri(std::string iri) { return Intern(Term::Iri(std::move(iri))); }

  /// Convenience: interns a plain literal term.
  TermId InternLiteral(std::string lexical) {
    return Intern(Term::Literal(std::move(lexical)));
  }

  /// Looks up the id of `term`; kNullTermId if never interned.
  TermId Lookup(const Term& term) const;

  /// Looks up the id of an IRI; kNullTermId if never interned.
  TermId LookupIri(const std::string& iri) const {
    return Lookup(Term::Iri(iri));
  }

  /// True iff `id` is a valid interned id.
  bool Contains(TermId id) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return ContainsLocked(id);
  }

  /// Decodes an id; requires Contains(id). The returned reference stays
  /// valid for the dictionary's lifetime (terms are never removed).
  const Term& Decode(TermId id) const;

  /// Decodes, returning an error Status for invalid ids.
  StatusOr<Term> TryDecode(TermId id) const;

  /// The serialized size of a result: each cell's N-Triples size plus one
  /// separator byte (an invalid id counts the separator only), summed under
  /// one lock.
  uint64_t SerializedSize(const std::vector<std::vector<TermId>>& rows) const;

  /// Number of interned terms.
  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return terms_.size();
  }

  bool empty() const { return size() == 0; }

  /// All ids, 1..size(), for iteration.
  TermId min_id() const { return 1; }
  TermId max_id() const { return static_cast<TermId>(size()); }

  /// Pre-sizes the intern index for `n` terms (bulk loads, snapshot load).
  void Reserve(size_t n) {
    std::unique_lock<std::shared_mutex> lock(mu_);
    index_.reserve(n);
  }

 private:
  bool ContainsLocked(TermId id) const {
    return id >= 1 && id <= terms_.size();
  }

  mutable std::shared_mutex mu_;
  // terms_[id - 1] points at the index_ node's key: each term is stored
  // once. unordered_map nodes never move (not even on rehash) and are never
  // erased, so the pointers — and the references Decode() hands out — stay
  // valid for the dictionary's lifetime, across moves included.
  std::deque<const Term*> terms_;
  std::unordered_map<Term, TermId, TermHash> index_;
};

}  // namespace sofya

#endif  // SOFYA_RDF_DICTIONARY_H_
