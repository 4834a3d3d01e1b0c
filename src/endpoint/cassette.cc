#include "endpoint/cassette.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "util/checksum.h"
#include "util/hash.h"

namespace sofya {
namespace {

constexpr char kMagic[8] = {'S', 'O', 'F', 'Y', 'C', 'A', 'S', 'S'};
constexpr uint32_t kVersion = 1;
// magic + version + reserved + payload_size + checksum.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

// ---- Little serialization kit (native-endian, like store_snapshot) ----

void AppendU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void AppendU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendF64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void AppendStr(std::string& out, const std::string& s) {
  AppendU64(out, s.size());
  out.append(s);
}

void AppendTerm(std::string& out, const Term& term) {
  // 0 = IRI, 1 = plain literal, 2 = typed literal, 3 = lang literal.
  uint8_t tag;
  if (term.is_iri()) {
    tag = 0;
  } else if (!term.datatype().empty()) {
    tag = 2;
  } else if (!term.language().empty()) {
    tag = 3;
  } else {
    tag = 1;
  }
  AppendU8(out, tag);
  AppendStr(out, term.lexical());
  if (tag == 2) AppendStr(out, term.datatype());
  if (tag == 3) AppendStr(out, term.language());
}

void AppendEntry(std::string& out, const CassetteEntry& e) {
  AppendU8(out, static_cast<uint8_t>(e.kind));
  AppendStr(out, e.key);
  AppendU32(out, static_cast<uint32_t>(e.code));
  AppendStr(out, e.message);
  AppendF64(out, e.retry_after_ms);
  switch (e.kind) {
    case CassetteEntryKind::kSelect: {
      AppendU32(out, static_cast<uint32_t>(e.var_names.size()));
      for (const std::string& name : e.var_names) AppendStr(out, name);
      AppendU64(out, e.rows.size());
      for (const auto& row : e.rows) {
        AppendU32(out, static_cast<uint32_t>(row.size()));
        for (const CassetteCell& cell : row) {
          AppendU8(out, cell.bound ? 1 : 0);
          if (cell.bound) AppendTerm(out, cell.term);
        }
      }
      break;
    }
    case CassetteEntryKind::kAsk:
      AppendU8(out, e.ask_value ? 1 : 0);
      break;
    case CassetteEntryKind::kLookup:
      AppendU8(out, e.lookup_known ? 1 : 0);
      break;
  }
}

/// Bounds-checked cursor over the payload; every Read* fails cleanly on
/// truncation instead of walking off the buffer.
struct Cursor {
  const char* data;
  size_t size;
  size_t off = 0;

  bool ReadBytes(void* out, size_t n) {
    if (size - off < n) return false;
    std::memcpy(out, data + off, n);
    off += n;
    return true;
  }
  bool ReadU8(uint8_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU32(uint32_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadU64(uint64_t* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadF64(double* v) { return ReadBytes(v, sizeof(*v)); }
  bool ReadStr(std::string* s) {
    uint64_t n;
    if (!ReadU64(&n)) return false;
    if (size - off < n) return false;
    s->assign(data + off, n);
    off += n;
    return true;
  }
};

bool ReadTerm(Cursor& c, Term* out) {
  uint8_t tag;
  std::string lexical;
  if (!c.ReadU8(&tag) || tag > 3) return false;
  if (!c.ReadStr(&lexical)) return false;
  switch (tag) {
    case 0:
      *out = Term::Iri(std::move(lexical));
      return true;
    case 1:
      *out = Term::Literal(std::move(lexical));
      return true;
    case 2: {
      std::string datatype;
      if (!c.ReadStr(&datatype)) return false;
      *out = Term::TypedLiteral(std::move(lexical), std::move(datatype));
      return true;
    }
    default: {
      std::string lang;
      if (!c.ReadStr(&lang)) return false;
      *out = Term::LangLiteral(std::move(lexical), std::move(lang));
      return true;
    }
  }
}

bool ReadEntry(Cursor& c, CassetteEntry* e) {
  uint8_t kind;
  uint32_t code;
  if (!c.ReadU8(&kind) || kind > 2) return false;
  e->kind = static_cast<CassetteEntryKind>(kind);
  if (!c.ReadStr(&e->key)) return false;
  if (!c.ReadU32(&code) || code > static_cast<uint32_t>(StatusCode::kUnimplemented)) {
    return false;
  }
  e->code = static_cast<StatusCode>(code);
  if (!c.ReadStr(&e->message)) return false;
  if (!c.ReadF64(&e->retry_after_ms)) return false;
  switch (e->kind) {
    case CassetteEntryKind::kSelect: {
      uint32_t num_vars;
      uint64_t num_rows;
      if (!c.ReadU32(&num_vars)) return false;
      e->var_names.resize(num_vars);
      for (std::string& name : e->var_names) {
        if (!c.ReadStr(&name)) return false;
      }
      if (!c.ReadU64(&num_rows)) return false;
      // Guard against a corrupt count larger than the remaining payload
      // could possibly encode (>= 1 byte per row).
      if (num_rows > c.size - c.off) return false;
      e->rows.resize(num_rows);
      for (auto& row : e->rows) {
        uint32_t cells;
        if (!c.ReadU32(&cells)) return false;
        if (cells > c.size - c.off) return false;
        row.resize(cells);
        for (CassetteCell& cell : row) {
          uint8_t bound;
          if (!c.ReadU8(&bound) || bound > 1) return false;
          cell.bound = bound == 1;
          if (cell.bound && !ReadTerm(c, &cell.term)) return false;
        }
      }
      return true;
    }
    case CassetteEntryKind::kAsk: {
      uint8_t v;
      if (!c.ReadU8(&v) || v > 1) return false;
      e->ask_value = v == 1;
      return true;
    }
    default: {
      uint8_t v;
      if (!c.ReadU8(&v) || v > 1) return false;
      e->lookup_known = v == 1;
      return true;
    }
  }
}

Status CorruptError(const std::string& path, const std::string& what) {
  return Status::ParseError("cassette " + path + ": " + what);
}

}  // namespace

Status CassetteEntry::ToStatus() const {
  if (code == StatusCode::kOk) return Status::OK();
  Status status(code, message);
  if (retry_after_ms >= 0.0) status = status.WithRetryAfterMs(retry_after_ms);
  return status;
}

void CassetteEntry::SetStatus(const Status& status) {
  code = status.code();
  message = status.message();
  retry_after_ms = status.has_retry_after() ? status.retry_after_ms() : -1.0;
}

bool operator==(const CassetteEntry& a, const CassetteEntry& b) {
  return a.kind == b.kind && a.key == b.key && a.code == b.code &&
         a.message == b.message && a.retry_after_ms == b.retry_after_ms &&
         a.var_names == b.var_names && a.rows == b.rows &&
         a.ask_value == b.ask_value && a.lookup_known == b.lookup_known;
}

Status SaveCassette(const Cassette& cassette, const std::string& path) {
  std::string payload;
  AppendStr(payload, cassette.endpoint_name);
  AppendStr(payload, cassette.base_iri);
  AppendU64(payload, cassette.data_epoch);

  // Sort by (kind, key) so the file bytes are schedule-independent: the
  // same session recorded under any thread count writes identical files.
  std::vector<const CassetteEntry*> sorted;
  sorted.reserve(cassette.entries.size());
  for (const CassetteEntry& e : cassette.entries) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(),
            [](const CassetteEntry* a, const CassetteEntry* b) {
              if (a->kind != b->kind) return a->kind < b->kind;
              return a->key < b->key;
            });

  AppendU64(payload, sorted.size());
  for (const CassetteEntry* e : sorted) AppendEntry(payload, *e);

  Checksummer checksummer;
  checksummer.Update(payload.data(), payload.size());
  const uint64_t checksum = checksummer.Finish();

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  AppendU32(header, kVersion);
  AppendU32(header, 0);  // Reserved.
  AppendU64(header, payload.size());
  AppendU64(header, checksum);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::Unavailable("cannot open for write: " + path);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) return Status::Unavailable("write failed: " + path);
  return Status::OK();
}

StatusOr<Cassette> LoadCassette(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open cassette: " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  if (bytes.size() < kHeaderSize) {
    return CorruptError(path, "truncated header");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return CorruptError(path, "bad magic");
  }
  Cursor header{bytes.data() + sizeof(kMagic), kHeaderSize - sizeof(kMagic)};
  uint32_t version, reserved;
  uint64_t payload_size, checksum;
  header.ReadU32(&version);
  header.ReadU32(&reserved);
  header.ReadU64(&payload_size);
  header.ReadU64(&checksum);
  if (version != kVersion) {
    return CorruptError(path, "unsupported version " + std::to_string(version));
  }
  if (bytes.size() - kHeaderSize != payload_size) {
    return CorruptError(path, "payload size mismatch");
  }

  // Verify integrity before *any* entry is parsed or served.
  Checksummer checksummer;
  checksummer.Update(bytes.data() + kHeaderSize, payload_size);
  if (checksummer.Finish() != checksum) {
    return CorruptError(path, "checksum mismatch");
  }

  Cursor c{bytes.data() + kHeaderSize, payload_size};
  Cassette cassette;
  uint64_t num_entries;
  if (!c.ReadStr(&cassette.endpoint_name) || !c.ReadStr(&cassette.base_iri) ||
      !c.ReadU64(&cassette.data_epoch) || !c.ReadU64(&num_entries)) {
    return CorruptError(path, "truncated cassette header");
  }
  if (num_entries > payload_size) {
    return CorruptError(path, "implausible entry count");
  }
  cassette.entries.resize(num_entries);
  std::unordered_set<std::string> seen;
  seen.reserve(num_entries);
  for (CassetteEntry& e : cassette.entries) {
    if (!ReadEntry(c, &e)) return CorruptError(path, "malformed entry");
    // Kind prefixed so a SELECT and an ASK with equal keys stay distinct.
    std::string dedup_key =
        std::to_string(static_cast<int>(e.kind)) + "|" + e.key;
    if (!seen.insert(std::move(dedup_key)).second) {
      return CorruptError(path, "duplicate entry key: " + e.key);
    }
  }
  if (c.off != c.size) return CorruptError(path, "trailing bytes");
  return cassette;
}

bool LooksLikeCassette(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  char head[sizeof(kMagic)];
  in.read(head, sizeof(head));
  return in.gcount() == sizeof(head) &&
         std::memcmp(head, kMagic, sizeof(kMagic)) == 0;
}

uint64_t CassetteEntryHash(const CassetteEntry& entry) {
  std::string bytes;
  AppendEntry(bytes, entry);
  return Fnv1a(bytes.data(), bytes.size());
}

uint64_t CassetteDigest::Value() const {
  // Mix the three commutative accumulators into one word; the mix itself
  // need not be commutative, only the accumulation was.
  std::string bytes;
  AppendU64(bytes, count);
  AppendU64(bytes, sum);
  AppendU64(bytes, xored);
  return Fnv1a(bytes.data(), bytes.size());
}

std::string CassetteDigest::ToHex() const {
  static const char* kHex = "0123456789abcdef";
  uint64_t v = Value();
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[i] = kHex[v & 0xF];
    v >>= 4;
  }
  return out;
}

namespace {

/// Spells a constant by its surface form in `endpoint`'s dictionary.
class SurfaceForms : public TermKeyRenderer {
 public:
  explicit SurfaceForms(const Endpoint& endpoint) : endpoint_(endpoint) {}

  void Append(TermId id, std::string& out) const override {
    StatusOr<Term> term = endpoint_.DecodeTerm(id);
    if (term.ok()) {
      out += term->ToNTriples();
    } else {
      // Undecodable constant: deterministic in-process fallback (such a
      // query cannot be rendered for a live endpoint either).
      out += '!';
      out += std::to_string(id);
    }
  }

 private:
  const Endpoint& endpoint_;
};

}  // namespace

std::string CanonicalSelectKey(const Endpoint& endpoint,
                               const SelectQuery& query) {
  const SurfaceForms constants(endpoint);
  return query.RenderKey(QueryKeyMode::kSelect, &constants);
}

std::string CanonicalAskKey(const Endpoint& endpoint,
                            const SelectQuery& query) {
  const SurfaceForms constants(endpoint);
  return query.RenderKey(QueryKeyMode::kAsk, &constants);
}

std::string CanonicalLookupKey(const Term& term) { return term.ToNTriples(); }

StatusOr<SelectQuery> TranslateQuery(const SelectQuery& query,
                                     const Endpoint& from, Endpoint& to) {
  SelectQuery out;
  for (VarId v = 0; v < static_cast<VarId>(query.num_vars()); ++v) {
    out.NewVar(query.var_name(v));
  }
  auto translate_id = [&](TermId id) -> StatusOr<TermId> {
    SOFYA_ASSIGN_OR_RETURN(Term term, from.DecodeTerm(id));
    return to.EncodeTerm(term);
  };
  auto translate_node = [&](const NodeRef& ref) -> StatusOr<NodeRef> {
    if (ref.is_var()) return NodeRef::Variable(ref.var());
    SOFYA_ASSIGN_OR_RETURN(TermId id, translate_id(ref.term()));
    return NodeRef::Constant(id);
  };
  for (const auto& clause : query.clauses()) {
    SOFYA_ASSIGN_OR_RETURN(NodeRef s, translate_node(clause.subject));
    SOFYA_ASSIGN_OR_RETURN(NodeRef p, translate_node(clause.predicate));
    SOFYA_ASSIGN_OR_RETURN(NodeRef o, translate_node(clause.object));
    out.Where(s, p, o);
  }
  for (FilterExpr filter : query.filters()) {
    if (filter.rhs_term != kNullTermId) {
      SOFYA_ASSIGN_OR_RETURN(filter.rhs_term, translate_id(filter.rhs_term));
    }
    out.Filter(filter);
  }
  if (!query.projection().empty()) {
    out.Select(query.projection());
  }
  out.Distinct(query.distinct()).Limit(query.limit()).Offset(query.offset());
  return out;
}

}  // namespace sofya
