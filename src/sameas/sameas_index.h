// SameAsIndex: the set E of cross-KB entity equivalences.
//
// The paper assumes E (owl:sameAs links) is given alongside the two KBs.
// The index stores links between *terms* (IRIs from either KB), groups them
// into equivalence classes with union-find, and answers the two questions
// the samplers ask: "are x1 and x2 the same real-world entity?" and
// "translate x1 into the other KB's identifier space".

// Translation reads a table per target prefix: each local id maps to the
// local id of its translation, or to none. A table is built on the first
// TranslateTo into its prefix and dropped by the next AddLink, so a
// steady-state translation is one hash lookup of the term and one array
// read.
//
// generation() names the link set's current state: every AddLink and every
// move gives the index a generation no index in the process had before, so
// a memo keyed on it (CrossKbTranslator's) can never serve a translation
// from an older link set.
//
// Thread safety: reads (AreEquivalent, EquivalentsOf, TranslateTo) are safe
// from any number of threads — including the first read after AddLink,
// which builds the lazy group memo or a prefix table under an internal lock
// — as long as no AddLink runs concurrently. Reads of a built table take no
// lock. Build the link set first, then share it with the parallel alignment
// pipeline; that matches the paper's setup, where E is given up front.

#ifndef SOFYA_SAMEAS_SAMEAS_INDEX_H_
#define SOFYA_SAMEAS_SAMEAS_INDEX_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "rdf/term.h"
#include "sameas/union_find.h"
#include "util/status.h"

namespace sofya {

/// Equivalence classes over entity IRIs (terms interned locally; ids here
/// are private to the index and unrelated to any KB dictionary).
class SameAsIndex {
 public:
  SameAsIndex() = default;

  // Movable (worlds carry their link set by value); the caller must not
  // move an index other threads are reading.
  SameAsIndex(SameAsIndex&& other) noexcept { MoveFrom(std::move(other)); }
  SameAsIndex& operator=(SameAsIndex&& other) noexcept {
    if (this != &other) MoveFrom(std::move(other));
    return *this;
  }
  SameAsIndex(const SameAsIndex&) = delete;
  SameAsIndex& operator=(const SameAsIndex&) = delete;

  /// Records a ≡ b (owl:sameAs is symmetric/transitive: classes merge).
  void AddLink(const Term& a, const Term& b);

  /// The link set's generation: unique in the process, replaced by every
  /// AddLink and move.
  uint64_t generation() const { return generation_; }

  /// Number of AddLink calls that actually merged two classes.
  size_t num_links() const { return num_links_; }

  /// Number of distinct terms seen.
  size_t num_terms() const { return terms_.size(); }

  /// True iff both terms are known and in the same class.
  bool AreEquivalent(const Term& a, const Term& b) const;

  /// All terms equivalent to `x`, excluding x itself. Empty when x is
  /// unknown or singleton.
  std::vector<Term> EquivalentsOf(const Term& x) const;

  /// Translates `x` to an equivalent term whose IRI begins with
  /// `target_prefix` (the target KB's base IRI). NotFound when no linked
  /// identifier exists in that namespace. When several exist (noisy link
  /// sets), the lexicographically smallest is returned for determinism.
  StatusOr<Term> TranslateTo(const Term& x,
                             std::string_view target_prefix) const;

 private:
  /// Marks a prefix table entry with no translation.
  static constexpr size_t kNoTranslation = std::numeric_limits<size_t>::max();

  /// Translations into one target prefix: `to[id]` is the local id of
  /// local id `id`'s translation (`id` itself for the identity), or
  /// kNoTranslation. Immutable once published; `next` links the list.
  struct PrefixTable {
    std::string prefix;
    std::vector<size_t> to;
    const PrefixTable* next = nullptr;
  };

  size_t InternLocal(const Term& t);
  void EnsureGroups() const;

  /// The table for `prefix`, built (double-checked under groups_mu_) and
  /// published on first use.
  const PrefixTable& TableFor(std::string_view prefix) const;

  /// Drops every prefix table; a write-path call (AddLink, move).
  void ClearTables() {
    tables_head_.store(nullptr, std::memory_order_relaxed);
    tables_.clear();
  }

  /// A generation no index in the process has had yet.
  static uint64_t NextGeneration();

  void MoveFrom(SameAsIndex&& other) {
    std::scoped_lock lock(groups_mu_, other.groups_mu_);
    generation_ = NextGeneration();
    other.generation_ = NextGeneration();
    terms_ = std::move(other.terms_);
    ids_ = std::move(other.ids_);
    uf_ = std::move(other.uf_);
    num_links_ = other.num_links_;
    groups_ = std::move(other.groups_);
    groups_dirty_.store(other.groups_dirty_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    // Table nodes live on the heap, so their list moves with them.
    tables_ = std::move(other.tables_);
    tables_head_.store(other.tables_head_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    other.ClearTables();
  }

  uint64_t generation_ = NextGeneration();
  std::vector<Term> terms_;
  std::unordered_map<Term, size_t, TermHash> ids_;
  UnionFind uf_;
  size_t num_links_ = 0;

  // root -> member local-ids, rebuilt lazily. The rebuild is double-checked
  // under groups_mu_ so the first read after a write is thread-safe.
  mutable std::mutex groups_mu_;
  mutable std::atomic<bool> groups_dirty_{false};
  mutable std::unordered_map<size_t, std::vector<size_t>> groups_;

  // Prefix tables: owned by `tables_` (appended under groups_mu_), read
  // lock-free through the list that starts at `tables_head_`.
  mutable std::vector<std::unique_ptr<const PrefixTable>> tables_;
  mutable std::atomic<const PrefixTable*> tables_head_{nullptr};
};

}  // namespace sofya

#endif  // SOFYA_SAMEAS_SAMEAS_INDEX_H_
