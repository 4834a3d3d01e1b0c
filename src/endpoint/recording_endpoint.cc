#include "endpoint/recording_endpoint.h"

#include <utility>

namespace sofya {
namespace {

/// Dedup key: kind-prefixed so SELECT/ASK/LOOKUP spaces never collide.
std::string DedupKey(CassetteEntryKind kind, const std::string& key) {
  return std::to_string(static_cast<int>(kind)) + "|" + key;
}

}  // namespace

CassetteEntry RecordingEndpoint::MakeSelectEntry(const SelectQuery& query,
                                                const Status& status,
                                                const ResultSet* result) const {
  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kSelect;
  entry.key = CanonicalSelectKey(*inner_, query);
  entry.SetStatus(status);
  if (status.ok() && result != nullptr) {
    entry.var_names = result->var_names;
    entry.rows.reserve(result->rows.size());
    for (const auto& row : result->rows) {
      std::vector<CassetteCell> cells(row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i] == kNullTermId) continue;  // Stays unbound.
        StatusOr<Term> term = inner_->DecodeTerm(row[i]);
        if (term.ok()) {
          cells[i].bound = true;
          cells[i].term = std::move(term).value();
        }
      }
      entry.rows.push_back(std::move(cells));
    }
  }
  return entry;
}

CassetteEntry RecordingEndpoint::MakeAskEntry(const SelectQuery& query,
                                              const Status& status,
                                              bool value) const {
  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kAsk;
  entry.key = CanonicalAskKey(*inner_, query);
  entry.SetStatus(status);
  entry.ask_value = status.ok() && value;
  return entry;
}

void RecordingEndpoint::Record(CassetteEntry entry) const {
  std::string dedup = DedupKey(entry.kind, entry.key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(dedup);
  if (it == index_.end()) {
    index_.emplace(std::move(dedup), entries_.size());
    entries_.push_back(std::move(entry));
    return;
  }
  CassetteEntry& existing = entries_[it->second];
  const bool existing_ok = existing.code == StatusCode::kOk;
  const bool incoming_ok = entry.code == StatusCode::kOk;
  if (!existing_ok && incoming_ok) {
    // A retry resolved a transient failure: the settled session replays
    // the success.
    existing = std::move(entry);
    return;
  }
  if (existing_ok && incoming_ok && !(existing == entry)) {
    // The dataset answered the same query differently mid-recording.
    // First answer wins (it is what downstream decisions consumed).
    ++conflicts_;
  }
}

SelectBatchResult RecordingEndpoint::SelectMany(
    std::span<const SelectQuery> queries) {
  SelectBatchResult batch = inner_->SelectMany(queries);
  for (size_t i = 0; i < queries.size() && i < batch.size(); ++i) {
    Record(MakeSelectEntry(queries[i], batch.statuses[i],
                           batch.statuses[i].ok() ? &batch.values[i] : nullptr));
  }
  return batch;
}

AskBatchResult RecordingEndpoint::AskMany(std::span<const SelectQuery> queries) {
  AskBatchResult batch = inner_->AskMany(queries);
  for (size_t i = 0; i < queries.size() && i < batch.size(); ++i) {
    Record(MakeAskEntry(queries[i], batch.statuses[i],
                        batch.statuses[i].ok() && batch.values[i]));
  }
  return batch;
}

TermId RecordingEndpoint::LookupTerm(const Term& term) const {
  const TermId id = inner_->LookupTerm(term);
  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kLookup;
  entry.key = CanonicalLookupKey(term);
  entry.lookup_known = id != kNullTermId;
  Record(std::move(entry));
  return id;
}

Cassette RecordingEndpoint::Snapshot() const {
  Cassette cassette;
  cassette.endpoint_name = inner_->name();
  cassette.base_iri = inner_->base_iri();
  cassette.data_epoch = inner_->data_epoch();
  std::lock_guard<std::mutex> lock(mu_);
  cassette.entries = entries_;
  return cassette;
}

Status RecordingEndpoint::Save(const std::string& path) const {
  return SaveCassette(Snapshot(), path);
}

CassetteDigest RecordingEndpoint::digest() const {
  CassetteDigest digest;
  std::lock_guard<std::mutex> lock(mu_);
  for (const CassetteEntry& entry : entries_) {
    digest.Add(CassetteEntryHash(entry));
  }
  return digest;
}

}  // namespace sofya
