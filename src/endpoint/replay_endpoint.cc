#include "endpoint/replay_endpoint.h"

#include <utility>

namespace sofya {
namespace {

std::string DedupKey(CassetteEntryKind kind, const std::string& key) {
  return std::to_string(static_cast<int>(kind)) + "|" + key;
}

}  // namespace

ReplayEndpoint::ReplayEndpoint(Cassette cassette, Endpoint* fallback)
    : name_(std::move(cassette.endpoint_name)),
      base_iri_(std::move(cassette.base_iri)),
      data_epoch_(cassette.data_epoch),
      fallback_(fallback),
      entries_(std::move(cassette.entries)) {
  index_.reserve(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    // First occurrence wins (LoadCassette already rejects duplicates; this
    // only matters for hand-built in-memory cassettes).
    index_.emplace(DedupKey(entries_[i].kind, entries_[i].key), i);
  }
}

StatusOr<std::unique_ptr<ReplayEndpoint>> ReplayEndpoint::Open(
    const std::string& path, Endpoint* fallback) {
  SOFYA_ASSIGN_OR_RETURN(Cassette cassette, LoadCassette(path));
  return std::make_unique<ReplayEndpoint>(std::move(cassette), fallback);
}

ResultSet ReplayEndpoint::MaterializeResult(const CassetteEntry& entry) const {
  ResultSet result;
  result.var_names = entry.var_names;
  result.rows.reserve(entry.rows.size());
  for (const auto& cells : entry.rows) {
    std::vector<TermId> row(cells.size(), kNullTermId);
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].bound) row[i] = dict_.Intern(cells[i].term);
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

void ReplayEndpoint::Append(CassetteEntry entry) const {
  std::string dedup = DedupKey(entry.kind, entry.key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(dedup);
  if (it != index_.end()) {
    // Another thread fell through on the same key first; its outcome is
    // the recorded one.
    served_.insert(it->second);
    return;
  }
  index_.emplace(std::move(dedup), entries_.size());
  served_.insert(entries_.size());
  entries_.push_back(std::move(entry));
  ++appended_;
}

StatusOr<ResultSet> ReplayEndpoint::Select(const SelectQuery& query) {
  const std::string key = CanonicalSelectKey(*this, query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    auto it = index_.find(DedupKey(CassetteEntryKind::kSelect, key));
    if (it != index_.end()) {
      const CassetteEntry& entry = entries_[it->second];
      served_.insert(it->second);
      Status status = entry.ToStatus();
      if (!status.ok()) return status;
      ResultSet result = MaterializeResult(entry);
      stats_.rows_returned += result.rows.size();
      return result;
    }
    if (fallback_ == nullptr) {
      ++strict_misses_;
      return Status::NotFound("replay cassette has no entry for query: " + key);
    }
  }

  // Lenient fall-through: the query's constants live in *our* dictionary;
  // re-encode them into the fallback's id space before forwarding.
  SOFYA_ASSIGN_OR_RETURN(SelectQuery translated,
                         TranslateQuery(query, *this, *fallback_));
  StatusOr<ResultSet> result = fallback_->Select(translated);

  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kSelect;
  entry.key = key;
  entry.SetStatus(result.status());
  if (result.ok()) {
    entry.var_names = result->var_names;
    entry.rows.reserve(result->rows.size());
    for (const auto& row : result->rows) {
      std::vector<CassetteCell> cells(row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        if (row[i] == kNullTermId) continue;
        StatusOr<Term> term = fallback_->DecodeTerm(row[i]);
        if (term.ok()) {
          cells[i].bound = true;
          cells[i].term = std::move(term).value();
        }
      }
      entry.rows.push_back(std::move(cells));
    }
  }
  const bool ok = result.ok();
  Append(std::move(entry));
  if (!ok) return result.status();
  // Serve from the appended entry's surface forms so the caller gets ids
  // in our space, exactly as a future replay of the extended cassette will.
  CassetteEntry materialized;
  {
    std::lock_guard<std::mutex> lock(mu_);
    materialized = entries_[index_.at(DedupKey(CassetteEntryKind::kSelect, key))];
    stats_.rows_returned += materialized.rows.size();
  }
  if (!materialized.ToStatus().ok()) return materialized.ToStatus();
  return MaterializeResult(materialized);
}

StatusOr<bool> ReplayEndpoint::Ask(const SelectQuery& query) {
  const std::string key = CanonicalAskKey(*this, query);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries;
    auto it = index_.find(DedupKey(CassetteEntryKind::kAsk, key));
    if (it != index_.end()) {
      const CassetteEntry& entry = entries_[it->second];
      served_.insert(it->second);
      Status status = entry.ToStatus();
      if (!status.ok()) return status;
      return entry.ask_value;
    }
    if (fallback_ == nullptr) {
      ++strict_misses_;
      return Status::NotFound("replay cassette has no entry for ask: " + key);
    }
  }

  SOFYA_ASSIGN_OR_RETURN(SelectQuery translated,
                         TranslateQuery(query, *this, *fallback_));
  StatusOr<bool> result = fallback_->Ask(translated);

  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kAsk;
  entry.key = key;
  entry.SetStatus(result.status());
  entry.ask_value = result.ok() && result.value();
  Append(std::move(entry));
  return result;
}

TermId ReplayEndpoint::LookupTerm(const Term& term) const {
  const std::string key = CanonicalLookupKey(term);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(DedupKey(CassetteEntryKind::kLookup, key));
    if (it != index_.end()) {
      served_.insert(it->second);
      return entries_[it->second].lookup_known ? dict_.Intern(term)
                                               : kNullTermId;
    }
    if (fallback_ == nullptr) {
      // Unrecorded membership probe: conservatively unknown (the pipeline
      // skips such terms, exactly as against a dataset without them).
      ++strict_misses_;
      return kNullTermId;
    }
  }

  const TermId fallback_id = fallback_->LookupTerm(term);
  CassetteEntry entry;
  entry.kind = CassetteEntryKind::kLookup;
  entry.key = key;
  entry.lookup_known = fallback_id != kNullTermId;
  const bool known = entry.lookup_known;
  Append(std::move(entry));
  return known ? dict_.Intern(term) : kNullTermId;
}

EndpointStats ReplayEndpoint::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ReplayEndpoint::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = EndpointStats();
  }
  if (fallback_ != nullptr) fallback_->ResetStats();
}

CassetteDigest ReplayEndpoint::digest() const {
  CassetteDigest digest;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t idx : served_) {
    digest.Add(CassetteEntryHash(entries_[idx]));
  }
  return digest;
}

Cassette ReplayEndpoint::Snapshot() const {
  Cassette cassette;
  cassette.endpoint_name = name_;
  cassette.base_iri = base_iri_;
  cassette.data_epoch = data_epoch_;
  std::lock_guard<std::mutex> lock(mu_);
  cassette.entries = entries_;
  return cassette;
}

Status ReplayEndpoint::Save(const std::string& path) const {
  return SaveCassette(Snapshot(), path);
}

}  // namespace sofya
