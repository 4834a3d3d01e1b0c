#include "rdf/store_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <utility>
#include <vector>

#include "rdf/term.h"
#include "rdf/triple.h"
#include "util/checksum.h"

namespace sofya {

namespace {

constexpr char kMagic[8] = {'S', 'O', 'F', 'Y', 'S', 'N', 'A', 'P'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderSize = 64;

// Fixed-size header at offset 0. Native-endian; a snapshot is a cache for
// the machine that wrote it, not an interchange format.
struct SnapshotHeader {
  char magic[8];
  uint32_t version;
  uint32_t num_hash_shards;
  uint64_t term_count;
  uint64_t triple_count;
  uint64_t dict_offset;
  uint64_t dict_size;
  uint64_t checksum;   // Over bytes [kHeaderSize, file_size).
  uint64_t file_size;  // Total, for truncation detection.
};
static_assert(sizeof(SnapshotHeader) == kHeaderSize,
              "snapshot header must be exactly 64 bytes");

// Per-shard entry in the shard table.
struct ShardEntry {
  uint64_t count;    // Triples in this shard (same for SPO/POS/OSP).
  uint64_t spo_off;  // Absolute file offsets, 8-byte aligned.
  uint64_t pos_off;
  uint64_t osp_off;
};
static_assert(sizeof(ShardEntry) == 32, "shard table entry must be 32 bytes");

// Fixed part of one dictionary record; followed by lexical, datatype and
// language bytes back to back.
struct TermRecord {
  uint8_t kind;
  uint8_t pad[3];
  uint32_t lexical_len;
  uint32_t datatype_len;
  uint32_t language_len;
};
static_assert(sizeof(TermRecord) == 16, "term record must be 16 bytes");

inline uint64_t AlignUp8(uint64_t x) { return (x + 7) & ~uint64_t{7}; }

// RAII read-only mapping of a whole file.
class MappedFile {
 public:
  static StatusOr<std::shared_ptr<MappedFile>> Open(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::NotFound("cannot open snapshot: " + path);
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
      ::close(fd);
      return Status::InvalidArgument("cannot stat snapshot (or empty file): " +
                                     path);
    }
    void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                        MAP_PRIVATE, fd, 0);
    ::close(fd);  // The mapping keeps the file alive.
    if (base == MAP_FAILED) {
      return Status::Internal("mmap failed for snapshot: " + path);
    }
    // Readahead hints for the cold-start path: the loader verifies the
    // checksum and the first scans walk sorted segments front to back, both
    // sequential; WILLNEED starts paging immediately instead of one fault
    // at a time. Advisory only — failure is ignored.
#ifdef MADV_SEQUENTIAL
    (void)::madvise(base, static_cast<size_t>(st.st_size), MADV_SEQUENTIAL);
#endif
#ifdef MADV_WILLNEED
    (void)::madvise(base, static_cast<size_t>(st.st_size), MADV_WILLNEED);
#endif
    auto file = std::shared_ptr<MappedFile>(new MappedFile());
    file->base_ = base;
    file->size_ = static_cast<size_t>(st.st_size);
    return file;
  }

  ~MappedFile() {
    if (base_ != nullptr) ::munmap(base_, size_);
  }
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return static_cast<const uint8_t*>(base_); }
  size_t size() const { return size_; }

 private:
  MappedFile() = default;
  void* base_ = nullptr;
  size_t size_ = 0;
};

// Serializes the dictionary, terms in id order.
std::string SerializeDictionary(const Dictionary& dict) {
  std::string out;
  for (TermId id = dict.min_id(); id <= dict.max_id(); ++id) {
    const Term& t = dict.Decode(id);
    TermRecord rec{};
    rec.kind = static_cast<uint8_t>(t.kind());
    rec.lexical_len = static_cast<uint32_t>(t.lexical().size());
    rec.datatype_len = static_cast<uint32_t>(t.datatype().size());
    rec.language_len = static_cast<uint32_t>(t.language().size());
    out.append(reinterpret_cast<const char*>(&rec), sizeof(rec));
    out.append(t.lexical());
    out.append(t.datatype());
    out.append(t.language());
  }
  return out;
}

}  // namespace

StatusOr<SnapshotReport> SaveStoreSnapshot(const TripleStore& store,
                                           const Dictionary& dict,
                                           const std::string& path) {
  store.EnsureIndexed();
  const size_t num_shards = store.num_shards();

  const std::string dict_buf = SerializeDictionary(dict);

  // Lay out the file up front so the shard table can carry absolute
  // offsets: header, shard table, dictionary, segments.
  const uint64_t dict_off =
      AlignUp8(kHeaderSize + num_shards * sizeof(ShardEntry));
  uint64_t cursor = AlignUp8(dict_off + dict_buf.size());

  std::vector<ShardEntry> table(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    const TripleStore::MappedShardSegments seg = store.ShardSegments(i);
    table[i].count = seg.spo.size();
    table[i].spo_off = cursor;
    cursor = AlignUp8(cursor + seg.spo.size() * sizeof(Triple));
    table[i].pos_off = cursor;
    cursor = AlignUp8(cursor + seg.pos.size() * sizeof(Triple));
    table[i].osp_off = cursor;
    cursor = AlignUp8(cursor + seg.osp.size() * sizeof(Triple));
  }
  const uint64_t file_size = cursor;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot write snapshot: " + path);

  Checksummer sum;
  uint64_t written = kHeaderSize;
  // Header placeholder first; the real header (with checksum) lands last.
  {
    const std::string zeros(kHeaderSize, '\0');
    out.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  auto emit = [&](const void* data, size_t n) {
    if (n == 0) return;
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(n));
    sum.Update(data, n);
    written += n;
  };
  auto pad_to = [&](uint64_t off) {
    static const char kZeros[8] = {0};
    while (written < off) {
      emit(kZeros, std::min<size_t>(8, off - written));
    }
  };

  emit(table.data(), table.size() * sizeof(ShardEntry));
  pad_to(dict_off);
  emit(dict_buf.data(), dict_buf.size());
  for (size_t i = 0; i < num_shards; ++i) {
    const TripleStore::MappedShardSegments seg = store.ShardSegments(i);
    pad_to(table[i].spo_off);
    emit(seg.spo.data(), seg.spo.size() * sizeof(Triple));
    pad_to(table[i].pos_off);
    emit(seg.pos.data(), seg.pos.size() * sizeof(Triple));
    pad_to(table[i].osp_off);
    emit(seg.osp.data(), seg.osp.size() * sizeof(Triple));
  }
  pad_to(file_size);

  SnapshotHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.num_hash_shards = static_cast<uint32_t>(num_shards);
  header.term_count = dict.size();
  header.triple_count = store.size();
  header.dict_offset = dict_off;
  header.dict_size = dict_buf.size();
  header.checksum = sum.Finish();
  header.file_size = file_size;
  out.seekp(0);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.flush();
  if (!out) return Status::Internal("short write while saving snapshot");

  SnapshotReport report;
  report.terms = dict.size();
  report.triples = store.size();
  report.shards = num_shards;
  report.bytes = file_size;
  return report;
}

StatusOr<SnapshotReport> LoadStoreSnapshot(const std::string& path,
                                           Dictionary* dict,
                                           TripleStore* store) {
  if (!dict->empty() || !store->empty()) {
    return Status::InvalidArgument(
        "snapshot load requires an empty dictionary and store");
  }
  SOFYA_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                         MappedFile::Open(path));
  const uint8_t* base = file->data();
  const size_t size = file->size();
  if (size < kHeaderSize) {
    return Status::ParseError("snapshot truncated: no header");
  }
  SnapshotHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("not a snapshot file (bad magic)");
  }
  if (header.version != kVersion) {
    return Status::ParseError("unsupported snapshot version " +
                              std::to_string(header.version));
  }
  if (header.file_size != size) {
    return Status::ParseError("snapshot truncated or padded: header claims " +
                              std::to_string(header.file_size) +
                              " bytes, file has " + std::to_string(size));
  }
  Checksummer sum;
  sum.Update(base + kHeaderSize, size - kHeaderSize);
  if (sum.Finish() != header.checksum) {
    return Status::ParseError("snapshot payload checksum mismatch");
  }

  const uint64_t num_shards = header.num_hash_shards;
  if (num_shards == 0 || num_shards > (1u << 20)) {
    return Status::ParseError("snapshot shard geometry out of range");
  }
  const uint64_t tables_end = kHeaderSize + num_shards * sizeof(ShardEntry);
  if (tables_end > size || header.dict_offset < tables_end ||
      header.dict_offset + header.dict_size > size) {
    return Status::ParseError("snapshot tables exceed file bounds");
  }

  // Dictionary: rebuild eagerly, terms in id order (ids are dense from 1 in
  // interning order, so re-interning reproduces them exactly).
  dict->Reserve(header.term_count);
  {
    const uint8_t* cur = base + header.dict_offset;
    const uint8_t* end = cur + header.dict_size;
    for (uint64_t id = 1; id <= header.term_count; ++id) {
      if (static_cast<size_t>(end - cur) < sizeof(TermRecord)) {
        return Status::ParseError("snapshot dictionary truncated");
      }
      TermRecord rec;
      std::memcpy(&rec, cur, sizeof(rec));
      cur += sizeof(rec);
      const uint64_t body = static_cast<uint64_t>(rec.lexical_len) +
                            rec.datatype_len + rec.language_len;
      if (static_cast<uint64_t>(end - cur) < body) {
        return Status::ParseError("snapshot dictionary truncated");
      }
      std::string lexical(reinterpret_cast<const char*>(cur),
                          rec.lexical_len);
      cur += rec.lexical_len;
      std::string datatype(reinterpret_cast<const char*>(cur),
                           rec.datatype_len);
      cur += rec.datatype_len;
      std::string language(reinterpret_cast<const char*>(cur),
                           rec.language_len);
      cur += rec.language_len;
      Term term;
      if (rec.kind == static_cast<uint8_t>(TermKind::kIri)) {
        if (!datatype.empty() || !language.empty()) {
          return Status::ParseError("snapshot IRI with datatype/language");
        }
        term = Term::Iri(std::move(lexical));
      } else if (rec.kind == static_cast<uint8_t>(TermKind::kLiteral)) {
        if (!datatype.empty() && !language.empty()) {
          return Status::ParseError(
              "snapshot literal with both datatype and language");
        }
        term = !datatype.empty()
                   ? Term::TypedLiteral(std::move(lexical), std::move(datatype))
                   : (!language.empty()
                          ? Term::LangLiteral(std::move(lexical),
                                              std::move(language))
                          : Term::Literal(std::move(lexical)));
      } else {
        return Status::ParseError("snapshot term has unknown kind");
      }
      const TermId got = dict->InternNew(std::move(term));
      if (got != id) {
        return Status::ParseError("snapshot dictionary ids not dense");
      }
    }
  }

  // Store: attach shard segments zero-copy.
  TripleStore::MappedLayout layout;
  layout.options.num_hash_shards = header.num_hash_shards;
  layout.keepalive = file;
  uint64_t total = 0;
  layout.shards.reserve(num_shards);
  for (uint64_t i = 0; i < num_shards; ++i) {
    ShardEntry entry;
    std::memcpy(&entry, base + kHeaderSize + i * sizeof(ShardEntry),
                sizeof(entry));
    const uint64_t bytes = entry.count * sizeof(Triple);
    for (uint64_t off : {entry.spo_off, entry.pos_off, entry.osp_off}) {
      if (off % 8 != 0 || off < tables_end || off + bytes > size) {
        return Status::ParseError("snapshot shard segment exceeds file bounds");
      }
    }
    TripleStore::MappedShardSegments seg;
    seg.spo = {reinterpret_cast<const Triple*>(base + entry.spo_off),
               entry.count};
    seg.pos = {reinterpret_cast<const Triple*>(base + entry.pos_off),
               entry.count};
    seg.osp = {reinterpret_cast<const Triple*>(base + entry.osp_off),
               entry.count};
    layout.shards.push_back(seg);
    total += entry.count;
  }
  if (total != header.triple_count) {
    return Status::ParseError("snapshot shard counts disagree with header");
  }
  SOFYA_RETURN_IF_ERROR(store->AttachMapped(std::move(layout)));

  SnapshotReport report;
  report.terms = header.term_count;
  report.triples = header.triple_count;
  report.shards = num_shards;
  report.bytes = size;
  return report;
}

bool LooksLikeSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  if (!in.read(magic, sizeof(magic))) return false;
  return std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

}  // namespace sofya
