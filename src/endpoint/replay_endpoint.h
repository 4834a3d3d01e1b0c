// ReplayEndpoint: serves a recorded Cassette back as a live Endpoint —
// zero network, zero source dataset.
//
// Like HttpSparqlEndpoint it owns a private dictionary and re-interns the
// recorded terms on the way out: replay is a *different process* from the
// recording, so ids cannot be shared — only surface forms are, which is
// exactly what a cassette stores and what the canonical keys are built
// from. A query built against this endpoint's id space renders to the same
// canonical key the recorder computed, and lands on its entry.
//
// Strict mode (default, no fallback endpoint): an unrecorded query is a
// NotFound error and bumps strict_misses() — CI replays fail loudly instead
// of silently hitting the network. Lenient mode (fallback endpoint given):
// unrecorded queries fall through to the fallback (constants re-encoded
// into its id space), the outcome is appended to the cassette, and Save()
// persists the extended session.
//
// Thread safety: safe for concurrent callers; served-set/append state is
// behind one mutex, the dictionary takes concurrent calls.

#ifndef SOFYA_ENDPOINT_REPLAY_ENDPOINT_H_
#define SOFYA_ENDPOINT_REPLAY_ENDPOINT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "endpoint/cassette.h"
#include "endpoint/endpoint.h"
#include "rdf/dictionary.h"

namespace sofya {

class ReplayEndpoint : public Endpoint, public CassetteJournal {
 public:
  /// Serves `cassette`. `fallback` may be null (strict mode); when given it
  /// is not owned and must outlive this object (lenient mode).
  explicit ReplayEndpoint(Cassette cassette, Endpoint* fallback = nullptr);

  /// Loads and serves the cassette at `path` (validation errors propagate).
  static StatusOr<std::unique_ptr<ReplayEndpoint>> Open(
      const std::string& path, Endpoint* fallback = nullptr);

  const std::string& name() const override { return name_; }
  const std::string& base_iri() const override { return base_iri_; }

  /// Serves one query: its cassette entry (recorded status included), or
  /// a lenient fall-through that is appended, or a strict NotFound. The
  /// inherited SelectMany/AskMany serve a batch slot by slot, so each slot
  /// keeps its own recorded status.
  StatusOr<ResultSet> Select(const SelectQuery& query) override;
  StatusOr<bool> Ask(const SelectQuery& query) override;

  TermId EncodeTerm(const Term& term) override { return dict_.Intern(term); }

  /// Replays the recorded membership judgment. Unrecorded terms: strict
  /// mode treats them as unknown (kNullTermId, counted in strict_misses());
  /// lenient mode asks the fallback and appends the judgment.
  TermId LookupTerm(const Term& term) const override;

  StatusOr<Term> DecodeTerm(TermId id) const override {
    return dict_.TryDecode(id);
  }

  /// The epoch frozen at recording time: a cassette is immutable, so caches
  /// above never invalidate mid-replay.
  uint64_t data_epoch() const override { return data_epoch_; }

  EndpointStats stats() const override;
  void ResetStats() override;

  /// Order-independent digest over the entries served (plus, in lenient
  /// mode, appended) so far — matches the recorder's digest when the replay
  /// issued exactly the recorded session (CassetteJournal).
  CassetteDigest digest() const override;

  /// Queries that had no cassette entry while no fallback was available.
  uint64_t strict_misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return strict_misses_;
  }

  /// Entries appended by lenient fall-through.
  uint64_t appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
  }

  /// The cassette as currently held (including lenient appends).
  Cassette Snapshot() const;

  /// Persists Snapshot() — useful after a lenient session extended it.
  Status Save(const std::string& path) const;

 private:
  /// Appends a fall-through outcome (lenient mode) and marks it served.
  void Append(CassetteEntry entry) const;

  /// Re-interns a recorded result into this endpoint's id space.
  ResultSet MaterializeResult(const CassetteEntry& entry) const;

  std::string name_;
  std::string base_iri_;
  uint64_t data_epoch_ = 0;
  Endpoint* fallback_;  // Not owned; null => strict.

  mutable Dictionary dict_;  // Private id space, like HttpSparqlEndpoint.

  mutable std::mutex mu_;
  mutable std::vector<CassetteEntry> entries_;             // Guarded by mu_.
  mutable std::unordered_map<std::string, size_t> index_;  // kind|key -> idx.
  mutable std::unordered_set<size_t> served_;              // Entry indices.
  mutable uint64_t strict_misses_ = 0;
  mutable uint64_t appended_ = 0;
  mutable EndpointStats stats_;  // Guarded by mu_.
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_REPLAY_ENDPOINT_H_
