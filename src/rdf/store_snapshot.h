// Binary snapshot format for (Dictionary, TripleStore) with mmap load.
//
// A snapshot freezes a KB so cold start is a checksum + mmap instead of an
// N-Triples re-parse: the store's shard layout is written as-is (per-shard
// SPO/POS/OSP segments, already sorted), so loading attaches read-only spans
// straight into the mapped file — zero copies of triple data, pages faulted
// in on demand by the OS. Only the dictionary is materialized (terms are
// variable-length strings and the in-memory index must exist anyway).
//
// File layout (native-endian, written and read on the same architecture;
// all offsets 8-byte aligned):
//
//   [Header]          64 bytes, see SnapshotHeader. Magic "SOFYSNAP",
//                     version (2), ring size, counts, dictionary extent,
//                     payload checksum, total file size.
//   [Shard table]     num_shards x 4 u64: triple count + absolute offsets
//                     of the shard's SPO/POS/OSP segments.
//   [Dictionary]      term records in id order (id 1 first): kind byte,
//                     3 lengths, then lexical/datatype/language bytes.
//   [Triple segments] per shard, three sorted arrays of 12-byte Triples.
//
// Integrity: the header stores the file size (truncation check) and a
// 64-bit mix-checksum over every byte after the header (corruption check,
// verified on every load). Any bounds or checksum failure, or a version
// other than the current one, rejects the file before a single triple is
// attached.

#ifndef SOFYA_RDF_STORE_SNAPSHOT_H_
#define SOFYA_RDF_STORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "util/status.h"

namespace sofya {

/// Outcome counters for a snapshot save or load.
struct SnapshotReport {
  size_t terms = 0;      ///< Dictionary entries written/loaded.
  size_t triples = 0;    ///< Store size.
  size_t shards = 0;     ///< Ring size.
  uint64_t bytes = 0;    ///< Snapshot file size.
};

/// Writes `store` + `dict` to `path` (atomically enough for SOFYA's use:
/// whole-file write, fails without a partial header checksum matching).
/// The store's indexes are forced before writing; the store is logically
/// const.
StatusOr<SnapshotReport> SaveStoreSnapshot(const TripleStore& store,
                                           const Dictionary& dict,
                                           const std::string& path);

/// Loads a snapshot into an EMPTY `dict` and `store`: rebuilds the
/// dictionary, then attaches the store's shards as zero-copy spans into the
/// mmap'd file (kept alive by the store until its first write thaws it).
StatusOr<SnapshotReport> LoadStoreSnapshot(const std::string& path,
                                           Dictionary* dict,
                                           TripleStore* store);

/// True iff the file at `path` starts with the snapshot magic — used by the
/// CLI to auto-detect snapshot vs N-Triples inputs.
bool LooksLikeSnapshot(const std::string& path);

}  // namespace sofya

#endif  // SOFYA_RDF_STORE_SNAPSHOT_H_
