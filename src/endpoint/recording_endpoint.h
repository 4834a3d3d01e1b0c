// RecordingEndpoint: a transparent decorator that captures every
// interaction with the inner endpoint into a Cassette.
//
// Sits at the *base* of the decorator stack (directly around LocalEndpoint
// or HttpSparqlEndpoint, beneath throttle/retry/cache), so it records what
// the dataset actually answered: cache hits never reach it, and each retry
// attempt passes through it individually.
//
// Conflict policy (one entry per canonical key):
//   - first outcome wins by default;
//   - an error followed by a success *upgrades* to the success (a transient
//     Unavailable that a retry resolved should replay as resolved — the
//     cassette is the settled session, and the replay side's own retry
//     layer would otherwise spin on an error that can never clear);
//   - a success followed by a *different* success keeps the first and bumps
//     conflicts() — the dataset changed mid-recording, which the user
//     should know about;
//   - a success followed by an error keeps the success.
//
// Thread safety: safe for concurrent callers (AlignMany worker threads);
// all recording state is behind one mutex.

#ifndef SOFYA_ENDPOINT_RECORDING_ENDPOINT_H_
#define SOFYA_ENDPOINT_RECORDING_ENDPOINT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "endpoint/cassette.h"
#include "endpoint/endpoint.h"

namespace sofya {

class RecordingEndpoint : public EndpointDecorator, public CassetteJournal {
 public:
  /// `inner` is not owned and must outlive this object.
  explicit RecordingEndpoint(Endpoint* inner) : EndpointDecorator(inner) {}

  /// Forwards the whole batch (so the inner endpoint keeps its batching
  /// behavior — intra-batch dedup, pipelining) and records every slot's
  /// individual outcome: per-slot statuses round-trip through the cassette.
  /// A single Select/Ask is a one-slot batch and records one entry.
  SelectBatchResult SelectMany(std::span<const SelectQuery> queries) override;
  AskBatchResult AskMany(std::span<const SelectQuery> queries) override;

  /// Forwards and records the membership judgment: replay must reproduce
  /// "unknown term => the pipeline skips the query" without the dataset.
  TermId LookupTerm(const Term& term) const override;

  /// The session recorded so far (entries in first-recorded order; Save
  /// sorts them).
  Cassette Snapshot() const;

  /// Writes the session to `path` (SaveCassette of Snapshot()).
  Status Save(const std::string& path) const;

  /// Order-independent digest over the recorded entries (CassetteJournal).
  CassetteDigest digest() const override;

  /// Successful outcomes that disagreed with an earlier recorded success
  /// for the same key (dataset changed mid-recording). First one kept.
  uint64_t conflicts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return conflicts_;
  }

  /// Number of distinct recorded entries.
  size_t num_entries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  /// Applies the conflict policy for one observed outcome.
  void Record(CassetteEntry entry) const;

  CassetteEntry MakeSelectEntry(const SelectQuery& query,
                                const Status& status,
                                const ResultSet* result) const;
  CassetteEntry MakeAskEntry(const SelectQuery& query, const Status& status,
                             bool value) const;

  mutable std::mutex mu_;
  mutable std::vector<CassetteEntry> entries_;            // Guarded by mu_.
  mutable std::unordered_map<std::string, size_t> index_;  // kind|key -> idx.
  mutable uint64_t conflicts_ = 0;
};

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_RECORDING_ENDPOINT_H_
