// Cassettes: recorded endpoint sessions as deterministic, checksummed
// fixtures.
//
// A cassette is the full observable behavior of one endpoint during one
// run: every SELECT/ASK outcome (result rows or error status, including
// retry-after pacing hints) plus every LookupTerm membership judgment,
// keyed by a *canonical* query rendering. RecordingEndpoint fills one
// while forwarding to a live endpoint; ReplayEndpoint serves one back with
// no network and no source dataset.
//
// Keys must be id-independent: SelectQuery::Fingerprint() encodes constants
// by dictionary id, and a replaying process interns terms into a fresh
// dictionary whose ids need not match the recording process. The canonical
// keys here come from the same renderer (SelectQuery::RenderKey) with every
// constant spelled through DecodeTerm() as its N-Triples surface form, so
// the same logical query lands on the same cassette entry in any process.
//
// The on-disk format follows rdf/store_snapshot.cc: magic + version header,
// length-prefixed payload, streaming mix checksum verified before any entry
// is served; any corruption (truncation, bad magic, flipped byte, duplicate
// key) is a clean ParseError.

#ifndef SOFYA_ENDPOINT_CASSETTE_H_
#define SOFYA_ENDPOINT_CASSETTE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "endpoint/endpoint.h"
#include "rdf/term.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {

/// What kind of interaction an entry records. Kinds partition the key
/// space: a SELECT and an ASK of the same query never collide.
enum class CassetteEntryKind : uint8_t {
  kSelect = 0,  ///< Select / one SelectMany slot.
  kAsk = 1,     ///< Ask / one AskMany slot.
  kLookup = 2,  ///< LookupTerm membership judgment.
};

/// One cell of a recorded result row. `bound == false` preserves a
/// kNullTermId (unbound) cell through the decode/re-intern round trip.
struct CassetteCell {
  bool bound = false;
  Term term;

  friend bool operator==(const CassetteCell& a, const CassetteCell& b) {
    return a.bound == b.bound && (!a.bound || a.term == b.term);
  }
};

/// One recorded interaction: canonical key plus the full outcome.
struct CassetteEntry {
  CassetteEntryKind kind = CassetteEntryKind::kSelect;
  std::string key;

  // Outcome status (errors are first-class: a never-resolved Unavailable
  // with its retry-after hint replays exactly).
  StatusCode code = StatusCode::kOk;
  std::string message;
  double retry_after_ms = -1.0;  ///< Negative: no hint recorded.

  // Select payload (kind == kSelect, code == kOk).
  std::vector<std::string> var_names;
  std::vector<std::vector<CassetteCell>> rows;

  // Ask payload (kind == kAsk, code == kOk).
  bool ask_value = false;

  // Lookup payload (kind == kLookup): was the term known to the dataset?
  bool lookup_known = false;

  /// Reconstructs the recorded Status (with retry-after hint when present).
  Status ToStatus() const;

  /// Captures `status` into the code/message/retry-after fields.
  void SetStatus(const Status& status);

  friend bool operator==(const CassetteEntry& a, const CassetteEntry& b);
};

/// An in-memory cassette: endpoint identity plus the recorded entries.
struct Cassette {
  std::string endpoint_name;
  std::string base_iri;
  uint64_t data_epoch = 0;
  std::vector<CassetteEntry> entries;
};

/// Writes `cassette` to `path` (entries sorted by (kind, key), so the file
/// bytes are independent of recording order / thread schedule).
Status SaveCassette(const Cassette& cassette, const std::string& path);

/// Reads and fully validates a cassette: magic, version, payload length,
/// checksum, then structure — including rejecting duplicate (kind, key)
/// pairs. Any violation is a ParseError and no entries are returned.
StatusOr<Cassette> LoadCassette(const std::string& path);

/// Cheap sniff: does the file start with the cassette magic?
bool LooksLikeCassette(const std::string& path);

/// Stable content hash of one entry (key, status, and full payload).
uint64_t CassetteEntryHash(const CassetteEntry& entry);

/// Order-independent digest over a *set* of entries.
///
/// The alignment pipeline issues the same set of queries under any thread
/// count or schedule, but in different orders — so the manifest's
/// query-stream digest must be commutative. Count + sum + xor of per-entry
/// hashes is order-independent and cheap, and the three components together
/// make accidental collisions (drop one entry, add another) implausible.
struct CassetteDigest {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t xored = 0;

  void Add(uint64_t entry_hash) {
    ++count;
    sum += entry_hash;
    xored ^= entry_hash;
  }

  void Merge(const CassetteDigest& other) {
    count += other.count;
    sum += other.sum;
    xored ^= other.xored;
  }

  /// Folds the three components into one 64-bit value.
  uint64_t Value() const;

  /// 16-hex-digit rendering of Value() (manifest line format).
  std::string ToHex() const;

  friend bool operator==(const CassetteDigest& a, const CassetteDigest& b) {
    return a.count == b.count && a.sum == b.sum && a.xored == b.xored;
  }
};

/// Implemented by RecordingEndpoint and ReplayEndpoint: the digest of the
/// unique interactions recorded / served so far. Sofya::AlignAll folds
/// attached journals into the run manifest, which is what makes a live
/// (recording) run and a replay run comparable by hash.
class CassetteJournal {
 public:
  virtual ~CassetteJournal() = default;
  virtual CassetteDigest digest() const = 0;
};

/// Canonical id-independent key for a SELECT query in `endpoint`'s id
/// space: SelectQuery::RenderKey(kSelect) with constants rendered via
/// DecodeTerm(...).ToNTriples(). An undecodable constant renders as
/// `#!<id>` (deterministic within a process; such queries never reach a
/// live endpoint either). These bytes are the on-disk lookup key of every
/// recorded cassette: tests/cassette_test.cc pins them.
std::string CanonicalSelectKey(const Endpoint& endpoint,
                               const SelectQuery& query);

/// ASK form (RenderKey(kAsk)): solution modifiers normalized away
/// (existence ignores DISTINCT/LIMIT/OFFSET, same normalization as
/// AskFingerprint) plus an "#ask" suffix so ASK and SELECT entries cannot
/// collide.
std::string CanonicalAskKey(const Endpoint& endpoint,
                            const SelectQuery& query);

/// Key for a LookupTerm judgment: the term's N-Triples form (already
/// canonical — it is the dictionary key).
std::string CanonicalLookupKey(const Term& term);

/// Rebuilds `query` with every constant re-encoded from `from`'s id space
/// into `to`'s (lenient replay fall-through: the caller's query ids live in
/// the replay dictionary, the inner endpoint needs its own). Fails if a
/// constant cannot be decoded.
StatusOr<SelectQuery> TranslateQuery(const SelectQuery& query,
                                     const Endpoint& from, Endpoint& to);

}  // namespace sofya

#endif  // SOFYA_ENDPOINT_CASSETTE_H_
