#include "endpoint/cassette.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "endpoint/endpoint.h"
#include "endpoint/local_endpoint.h"
#include "endpoint/query_forms.h"
#include "endpoint/recording_endpoint.h"
#include "endpoint/replay_endpoint.h"
#include "rdf/knowledge_base.h"
#include "rdf/term.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CassetteCell Bound(Term term) {
  CassetteCell cell;
  cell.bound = true;
  cell.term = std::move(term);
  return cell;
}

/// A cassette exercising every entry kind, every term kind, unbound cells,
/// and a recorded error with a retry-after hint.
Cassette MixedCassette() {
  Cassette cassette;
  cassette.endpoint_name = "kb1";
  cassette.base_iri = "http://kb1.test/";
  cassette.data_epoch = 7;

  CassetteEntry select;
  select.kind = CassetteEntryKind::kSelect;
  select.key = "v:2;c:?0 #<http://kb1.test/p> ?1;";
  select.var_names = {"x", "y"};
  select.rows.push_back(
      {Bound(Term::Iri("http://kb1.test/s")), Bound(Term::Literal("plain"))});
  select.rows.push_back(
      {Bound(Term::TypedLiteral(
           "42", "http://www.w3.org/2001/XMLSchema#integer")),
       Bound(Term::LangLiteral("Wien", "de"))});
  select.rows.push_back({CassetteCell{}, Bound(Term::Iri("http://kb1.test/o"))});
  cassette.entries.push_back(select);

  CassetteEntry failed;
  failed.kind = CassetteEntryKind::kSelect;
  failed.key = "v:1;c:?0 #<http://kb1.test/gone> ?0;";
  failed.SetStatus(Status::Unavailable("503").WithRetryAfterMs(1500.0));
  cassette.entries.push_back(failed);

  CassetteEntry ask;
  ask.kind = CassetteEntryKind::kAsk;
  ask.key = "v:1;c:?0 #<http://kb1.test/p> ?0;#ask";
  ask.ask_value = true;
  cassette.entries.push_back(ask);

  CassetteEntry lookup;
  lookup.kind = CassetteEntryKind::kLookup;
  lookup.key = "<http://kb1.test/s>";
  lookup.lookup_known = true;
  cassette.entries.push_back(lookup);

  CassetteEntry unknown;
  unknown.kind = CassetteEntryKind::kLookup;
  unknown.key = "<http://elsewhere.test/nobody>";
  unknown.lookup_known = false;
  cassette.entries.push_back(unknown);

  return cassette;
}

const CassetteEntry* FindEntry(const Cassette& cassette,
                               CassetteEntryKind kind,
                               const std::string& key) {
  for (const CassetteEntry& e : cassette.entries) {
    if (e.kind == kind && e.key == key) return &e;
  }
  return nullptr;
}

TEST(CassetteFormatTest, RoundTripAllPayloadKinds) {
  const Cassette original = MixedCassette();
  const std::string path = TempPath("mixed.cass");
  ASSERT_TRUE(SaveCassette(original, path).ok());
  EXPECT_TRUE(LooksLikeCassette(path));

  auto loaded = LoadCassette(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->endpoint_name, original.endpoint_name);
  EXPECT_EQ(loaded->base_iri, original.base_iri);
  EXPECT_EQ(loaded->data_epoch, original.data_epoch);
  ASSERT_EQ(loaded->entries.size(), original.entries.size());
  // Save sorts by (kind, key); compare entry-for-entry by key.
  for (const CassetteEntry& want : original.entries) {
    const CassetteEntry* got = FindEntry(*loaded, want.kind, want.key);
    ASSERT_NE(got, nullptr) << want.key;
    EXPECT_TRUE(*got == want) << want.key;
  }

  // The recorded error reconstructs with its retry-after hint.
  const CassetteEntry* failed = FindEntry(
      *loaded, CassetteEntryKind::kSelect,
      "v:1;c:?0 #<http://kb1.test/gone> ?0;");
  ASSERT_NE(failed, nullptr);
  const Status status = failed->ToStatus();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  ASSERT_TRUE(status.has_retry_after());
  EXPECT_DOUBLE_EQ(status.retry_after_ms(), 1500.0);
}

TEST(CassetteFormatTest, FileBytesIndependentOfEntryOrder) {
  Cassette forward = MixedCassette();
  Cassette reversed = MixedCassette();
  std::reverse(reversed.entries.begin(), reversed.entries.end());

  const std::string a = TempPath("order_a.cass");
  const std::string b = TempPath("order_b.cass");
  ASSERT_TRUE(SaveCassette(forward, a).ok());
  ASSERT_TRUE(SaveCassette(reversed, b).ok());
  EXPECT_EQ(ReadFile(a), ReadFile(b));
}

TEST(CassetteFormatTest, MissingFileIsNotFoundNotParseError) {
  auto loaded = LoadCassette(TempPath("never_written.cass"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(LooksLikeCassette(TempPath("never_written.cass")));
}

TEST(CassetteFormatTest, TruncatedFileIsRejected) {
  const std::string path = TempPath("trunc.cass");
  ASSERT_TRUE(SaveCassette(MixedCassette(), path).ok());
  const std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 40u);

  // Cut mid-header, mid-payload, and one byte short: each is a clean
  // ParseError, never a crash or partial cassette.
  for (size_t keep : {size_t{0}, size_t{7}, size_t{31}, bytes.size() / 2,
                      bytes.size() - 1}) {
    const std::string cut = TempPath("trunc_cut.cass");
    WriteFile(cut, bytes.substr(0, keep));
    auto loaded = LoadCassette(cut);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "keep=" << keep << ": " << loaded.status();
  }
}

TEST(CassetteFormatTest, BadMagicIsRejected) {
  const std::string path = TempPath("magic.cass");
  ASSERT_TRUE(SaveCassette(MixedCassette(), path).ok());
  std::string bytes = ReadFile(path);
  bytes[0] = 'X';
  WriteFile(path, bytes);
  EXPECT_FALSE(LooksLikeCassette(path));
  EXPECT_EQ(LoadCassette(path).status().code(), StatusCode::kParseError);
}

TEST(CassetteFormatTest, UnsupportedVersionIsRejected) {
  const std::string path = TempPath("version.cass");
  ASSERT_TRUE(SaveCassette(MixedCassette(), path).ok());
  std::string bytes = ReadFile(path);
  bytes[8] = static_cast<char>(bytes[8] + 1);  // Version is right after magic.
  WriteFile(path, bytes);
  EXPECT_EQ(LoadCassette(path).status().code(), StatusCode::kParseError);
}

TEST(CassetteFormatTest, EveryFlippedPayloadByteIsRejected) {
  const std::string path = TempPath("flip.cass");
  ASSERT_TRUE(SaveCassette(MixedCassette(), path).ok());
  const std::string bytes = ReadFile(path);
  const size_t header = 32;
  ASSERT_GT(bytes.size(), header);

  // The checksum is verified before any entry is parsed, so *every*
  // single-byte payload corruption must be caught.
  for (size_t i = header; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x20);
    const std::string cut = TempPath("flip_mut.cass");
    WriteFile(cut, mutated);
    auto loaded = LoadCassette(cut);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << "flipped byte " << i;
  }
}

TEST(CassetteFormatTest, TrailingBytesAreRejected) {
  const std::string path = TempPath("trailing.cass");
  ASSERT_TRUE(SaveCassette(MixedCassette(), path).ok());
  WriteFile(path, ReadFile(path) + "junk");
  EXPECT_EQ(LoadCassette(path).status().code(), StatusCode::kParseError);
}

TEST(CassetteFormatTest, DuplicateKeyIsRejected) {
  // SaveCassette writes whatever it is given; a duplicated (kind, key) pair
  // must be caught at load, before any entry could be served ambiguously.
  Cassette cassette = MixedCassette();
  cassette.entries.push_back(cassette.entries[0]);
  const std::string path = TempPath("dup.cass");
  ASSERT_TRUE(SaveCassette(cassette, path).ok());
  auto loaded = LoadCassette(path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);

  // Same key under a *different* kind is not a duplicate.
  Cassette ok = MixedCassette();
  CassetteEntry ask = ok.entries[0];
  ask.kind = CassetteEntryKind::kAsk;
  ask.var_names.clear();
  ask.rows.clear();
  ask.ask_value = true;
  ok.entries.push_back(ask);
  ASSERT_TRUE(SaveCassette(ok, path).ok());
  EXPECT_TRUE(LoadCassette(path).ok());
}

TEST(CassetteDigestTest, OrderIndependentAndContentSensitive) {
  const Cassette cassette = MixedCassette();
  CassetteDigest forward;
  for (const CassetteEntry& e : cassette.entries) {
    forward.Add(CassetteEntryHash(e));
  }
  CassetteDigest backward;
  for (auto it = cassette.entries.rbegin(); it != cassette.entries.rend();
       ++it) {
    backward.Add(CassetteEntryHash(*it));
  }
  EXPECT_TRUE(forward == backward);
  EXPECT_EQ(forward.ToHex(), backward.ToHex());
  EXPECT_EQ(forward.ToHex().size(), 16u);

  // Dropping one entry changes the digest; so does mutating a row.
  CassetteDigest partial;
  for (size_t i = 1; i < cassette.entries.size(); ++i) {
    partial.Add(CassetteEntryHash(cassette.entries[i]));
  }
  EXPECT_FALSE(forward == partial);

  CassetteEntry mutated = cassette.entries[0];
  mutated.rows[0][1] = Bound(Term::Literal("tampered"));
  EXPECT_NE(CassetteEntryHash(mutated),
            CassetteEntryHash(cassette.entries[0]));
}

/// Two KBs with the same logical triples interned in different orders, so
/// every shared term has different ids in the two dictionaries.
struct TwinKbFixture {
  KnowledgeBase kb_a{"kb_a", "http://kb.test/"};
  KnowledgeBase kb_b{"kb_b", "http://kb.test/"};

  TwinKbFixture() {
    kb_a.AddFact("s1", "p", "o1");
    kb_a.AddFact("s2", "p", "o2");
    kb_a.AddFact("s1", "q", "o2");
    // Same triples, reversed insertion order => shifted term ids.
    kb_b.AddFact("s1", "q", "o2");
    kb_b.AddFact("s2", "p", "o2");
    kb_b.AddFact("s1", "p", "o1");
  }
};

TEST(CanonicalKeyTest, KeyIsIdIndependent) {
  TwinKbFixture fx;
  LocalEndpoint a(&fx.kb_a);
  LocalEndpoint b(&fx.kb_b);
  const TermId p_a = a.LookupTerm(Term::Iri("http://kb.test/p"));
  const TermId p_b = b.LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p_a, kNullTermId);
  ASSERT_NE(p_b, kNullTermId);
  ASSERT_NE(p_a, p_b) << "fixture must intern in different orders";

  const SelectQuery qa = queries::FactsOfPredicate(p_a);
  const SelectQuery qb = queries::FactsOfPredicate(p_b);
  // Fingerprints differ (id-based) but canonical keys agree (surface-based).
  EXPECT_NE(qa.Fingerprint(), qb.Fingerprint());
  EXPECT_EQ(CanonicalSelectKey(a, qa), CanonicalSelectKey(b, qb));
  EXPECT_EQ(CanonicalAskKey(a, qa), CanonicalAskKey(b, qb));
}

TEST(CanonicalKeyTest, AskKeyNormalizesModifiersAndNeverCollidesWithSelect) {
  TwinKbFixture fx;
  LocalEndpoint a(&fx.kb_a);
  const TermId p = a.LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p, kNullTermId);

  const SelectQuery plain = queries::FactsOfPredicate(p);
  SelectQuery modified = plain;
  modified.Distinct().Limit(5).Offset(2);
  // Existence ignores solution modifiers, so both land on one ASK entry —
  // but SELECT keys keep them apart, and ASK never aliases SELECT.
  EXPECT_EQ(CanonicalAskKey(a, plain), CanonicalAskKey(a, modified));
  EXPECT_NE(CanonicalSelectKey(a, plain), CanonicalSelectKey(a, modified));
  EXPECT_NE(CanonicalAskKey(a, plain), CanonicalSelectKey(a, plain));
}

TEST(CanonicalKeyTest, TranslateQueryReencodesConstants) {
  TwinKbFixture fx;
  LocalEndpoint a(&fx.kb_a);
  LocalEndpoint b(&fx.kb_b);
  const TermId p_a = a.LookupTerm(Term::Iri("http://kb.test/p"));
  const SelectQuery qa = queries::FactsOfPredicate(p_a);

  auto qb = TranslateQuery(qa, a, b);
  ASSERT_TRUE(qb.ok()) << qb.status();
  EXPECT_EQ(CanonicalSelectKey(b, *qb), CanonicalSelectKey(a, qa));
  auto rows = b.Select(*qb);
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows->rows.size(), 2u);
}

/// Cassette keys are an on-disk format: recorded cassettes (including
/// tests/data/replay/) are looked up by these exact bytes, so any change to
/// the canonical renderer must leave them alone. The golden strings cover
/// every filter kind, SELECT * vs an explicit all-variables projection, the
/// solution modifiers, and the "#!<id>" undecodable-constant fallback.
TEST(CanonicalKeyTest, GoldenKeyBytes) {
  KnowledgeBase kb{"kb", "http://kb.test/"};
  kb.AddFact("s1", "p", "o1");
  kb.AddLiteralFact("s1", "label", "one");
  LocalEndpoint ep(&kb);
  const TermId p = ep.LookupTerm(Term::Iri("http://kb.test/p"));
  const TermId o1 = ep.LookupTerm(Term::Iri("http://kb.test/o1"));
  const TermId one = ep.LookupTerm(Term::Literal("one"));
  ASSERT_NE(p, kNullTermId);
  ASSERT_NE(o1, kNullTermId);
  ASSERT_NE(one, kNullTermId);
  const TermId unknown = 987654;  // Not in the dictionary: "#!" fallback.

  // Declared out of first-use order so renumbering shows in the key.
  SelectQuery q;
  const VarId z = q.NewVar("z");
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(p), NodeRef::Variable(y));
  q.Where(NodeRef::Variable(x), NodeRef::Variable(z), NodeRef::Constant(one));
  q.Filter(FilterExpr::VarEqVar(x, y));
  q.Filter(FilterExpr::VarNeqVar(y, z));
  q.Filter(FilterExpr::VarEqTerm(y, o1));
  q.Filter(FilterExpr::VarNeqTerm(x, unknown));
  q.Filter(FilterExpr::IsIri(y));
  q.Filter(FilterExpr::IsLiteral(z));

  const std::string star_select =
      "v:z,x,y,;c:?1 #<http://kb.test/p> ?2 .?1 ?0 #\"one\" .;"
      "f:0/1/2/-,1/2/0/-,2/2/-1/#<http://kb.test/o1>,3/1/-1/#!987654,"
      "4/2/-1/-,5/0/-1/-,;p:0,1,2,;d0;l:18446744073709551615;o:0";
  const std::string ask =
      "v:z,x,y,;c:?1 #<http://kb.test/p> ?2 .?1 ?0 #\"one\" .;"
      "f:0/1/2/-,1/2/0/-,2/2/-1/#<http://kb.test/o1>,3/1/-1/#!987654,"
      "4/2/-1/-,5/0/-1/-,;p:0,1,2,;d0;l:18446744073709551615;o:0#ask";
  EXPECT_EQ(CanonicalSelectKey(ep, q), star_select);
  EXPECT_EQ(CanonicalAskKey(ep, q), ask);

  // An explicit all-variables projection in declaration order is SELECT *.
  SelectQuery all = q;
  all.Select({z, x, y});
  EXPECT_EQ(CanonicalSelectKey(ep, all), star_select);

  // A reordered projection renumbers by projection order; modifiers are
  // spelled out on SELECT keys and normalized away on ASK keys.
  SelectQuery modified = q;
  modified.Select({y, x}).Distinct().Limit(10).Offset(20);
  EXPECT_EQ(CanonicalSelectKey(ep, modified),
            "v:y,x,z,;c:?1 #<http://kb.test/p> ?0 .?1 ?2 #\"one\" .;"
            "f:0/1/0/-,1/0/2/-,2/0/-1/#<http://kb.test/o1>,3/1/-1/#!987654,"
            "4/0/-1/-,5/2/-1/-,;p:0,1,;d1;l:10;o:20");
  EXPECT_EQ(CanonicalAskKey(ep, modified),
            "v:y,x,z,;c:?1 #<http://kb.test/p> ?0 .?1 ?2 #\"one\" .;"
            "f:0/1/0/-,1/0/2/-,2/0/-1/#<http://kb.test/o1>,3/1/-1/#!987654,"
            "4/0/-1/-,5/2/-1/-,;p:0,1,;d0;l:18446744073709551615;o:0#ask");

  // An undecodable constant in a clause position takes the same fallback.
  SelectQuery dangling;
  const VarId s = dangling.NewVar("s");
  dangling.Where(NodeRef::Variable(s), NodeRef::Constant(unknown),
                 NodeRef::Constant(o1));
  EXPECT_EQ(CanonicalSelectKey(ep, dangling),
            "v:s,;c:?0 #!987654 #<http://kb.test/o1> .;f:;p:0,;d0;"
            "l:18446744073709551615;o:0");
}

/// Decodes a result to sorted surface-form rows: the id-independent way to
/// compare a live result against its replayed re-interned counterpart.
std::vector<std::vector<std::string>> Surface(const Endpoint& endpoint,
                                              const ResultSet& result) {
  std::vector<std::vector<std::string>> out;
  for (const auto& row : result.rows) {
    std::vector<std::string> cells;
    for (TermId id : row) {
      if (id == kNullTermId) {
        cells.push_back("");
      } else {
        auto term = endpoint.DecodeTerm(id);
        cells.push_back(term.ok() ? term->ToNTriples() : "<undecodable>");
      }
    }
    out.push_back(std::move(cells));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Fails the first Select per distinct query with a retryable error, then
/// forwards — the shape a flaky-but-retried network session records.
class FlakyOnce : public Endpoint {
 public:
  explicit FlakyOnce(Endpoint* inner) : inner_(inner) {}

  const std::string& name() const override { return inner_->name(); }
  const std::string& base_iri() const override { return inner_->base_iri(); }

  StatusOr<ResultSet> Select(const SelectQuery& query) override {
    if (failed_.insert(query.Fingerprint()).second) {
      return Status::Unavailable("flaky").WithRetryAfterMs(250.0);
    }
    return inner_->Select(query);
  }

  TermId EncodeTerm(const Term& term) override {
    return inner_->EncodeTerm(term);
  }
  TermId LookupTerm(const Term& term) const override {
    return inner_->LookupTerm(term);
  }
  StatusOr<Term> DecodeTerm(TermId id) const override {
    return inner_->DecodeTerm(id);
  }
  uint64_t data_epoch() const override { return inner_->data_epoch(); }
  EndpointStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  Endpoint* inner_;
  std::unordered_set<std::string> failed_;
};

TEST(RecordingEndpointTest, RecordsSelectAskAndLookup) {
  TwinKbFixture fx;
  LocalEndpoint inner(&fx.kb_a);
  RecordingEndpoint recording(&inner);

  const TermId p = recording.LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p, kNullTermId);
  const TermId nobody =
      recording.LookupTerm(Term::Iri("http://kb.test/nobody"));
  EXPECT_EQ(nobody, kNullTermId);

  auto rows = recording.Select(queries::FactsOfPredicate(p));
  ASSERT_TRUE(rows.ok());
  auto exists = recording.Ask(queries::FactsOfPredicate(p));
  ASSERT_TRUE(exists.ok());
  EXPECT_TRUE(*exists);

  // 2 lookups + 1 select + 1 ask; the repeat of a recorded interaction does
  // not grow the cassette.
  EXPECT_EQ(recording.num_entries(), 4u);
  (void)recording.Select(queries::FactsOfPredicate(p));
  EXPECT_EQ(recording.num_entries(), 4u);
  EXPECT_EQ(recording.conflicts(), 0u);

  const Cassette cassette = recording.Snapshot();
  EXPECT_EQ(cassette.endpoint_name, "kb_a");
  EXPECT_EQ(cassette.base_iri, "http://kb.test/");
  const CassetteEntry* unknown = FindEntry(
      cassette, CassetteEntryKind::kLookup, "<http://kb.test/nobody>");
  ASSERT_NE(unknown, nullptr);
  EXPECT_FALSE(unknown->lookup_known);
}

TEST(RecordingEndpointTest, ErrorThenSuccessUpgradesToSuccess) {
  TwinKbFixture fx;
  LocalEndpoint local(&fx.kb_a);
  FlakyOnce flaky(&local);
  RecordingEndpoint recording(&flaky);

  const TermId p = recording.LookupTerm(Term::Iri("http://kb.test/p"));
  const SelectQuery query = queries::FactsOfPredicate(p);

  // First attempt fails (recorded), a "retry" succeeds: the cassette keeps
  // the settled outcome, so replay-side retry layers see success at once.
  EXPECT_EQ(recording.Select(query).status().code(),
            StatusCode::kUnavailable);
  const Cassette after_failure = recording.Snapshot();
  const CassetteEntry* entry = FindEntry(
      after_failure, CassetteEntryKind::kSelect,
      CanonicalSelectKey(recording, query));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->code, StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(entry->retry_after_ms, 250.0);

  ASSERT_TRUE(recording.Select(query).ok());
  const Cassette after_retry = recording.Snapshot();
  entry = FindEntry(after_retry, CassetteEntryKind::kSelect,
                    CanonicalSelectKey(recording, query));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->code, StatusCode::kOk);
  EXPECT_EQ(entry->rows.size(), 2u);
  EXPECT_EQ(recording.conflicts(), 0u);

  // A later error does not downgrade the recorded success.
  EXPECT_EQ(after_retry.entries.size(), recording.Snapshot().entries.size());
}

TEST(RecordingEndpointTest, BatchSlotsRoundTripThroughCassette) {
  TwinKbFixture fx;
  LocalEndpoint inner(&fx.kb_a);
  RecordingEndpoint recording(&inner);

  const TermId p = recording.LookupTerm(Term::Iri("http://kb.test/p"));
  const TermId q = recording.LookupTerm(Term::Iri("http://kb.test/q"));
  std::vector<SelectQuery> batch = {queries::FactsOfPredicate(p),
                                    queries::FactsOfPredicate(q)};
  const SelectBatchResult live = recording.SelectMany(batch);
  ASSERT_EQ(live.statuses.size(), 2u);
  ASSERT_TRUE(live.statuses[0].ok());
  ASSERT_TRUE(live.statuses[1].ok());

  ReplayEndpoint replay(recording.Snapshot());
  std::vector<SelectQuery> replay_batch = {
      queries::FactsOfPredicate(
          replay.EncodeTerm(Term::Iri("http://kb.test/p"))),
      queries::FactsOfPredicate(
          replay.EncodeTerm(Term::Iri("http://kb.test/q")))};
  const SelectBatchResult replayed = replay.SelectMany(replay_batch);
  ASSERT_EQ(replayed.statuses.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(replayed.statuses[i].ok()) << replayed.statuses[i];
    EXPECT_EQ(Surface(replay, replayed.values[i]),
              Surface(recording, live.values[i]))
        << "slot " << i;
  }
  EXPECT_EQ(replay.strict_misses(), 0u);
}

TEST(ReplayEndpointTest, ServesRecordedSessionByteForByte) {
  TwinKbFixture fx;
  LocalEndpoint inner(&fx.kb_a);
  RecordingEndpoint recording(&inner);

  const TermId p = recording.LookupTerm(Term::Iri("http://kb.test/p"));
  const auto live = recording.Select(queries::FactsOfPredicate(p));
  ASSERT_TRUE(live.ok());

  const std::string path = TempPath("session.cass");
  ASSERT_TRUE(recording.Save(path).ok());
  auto replay = ReplayEndpoint::Open(path);
  ASSERT_TRUE(replay.ok()) << replay.status();

  // Identity and epoch are frozen from the cassette header.
  EXPECT_EQ((*replay)->name(), "kb_a");
  EXPECT_EQ((*replay)->base_iri(), "http://kb.test/");
  EXPECT_EQ((*replay)->data_epoch(), inner.data_epoch());

  const TermId p_r =
      (*replay)->LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p_r, kNullTermId);
  const auto replayed = (*replay)->Select(queries::FactsOfPredicate(p_r));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(Surface(**replay, *replayed), Surface(recording, *live));
  EXPECT_EQ((*replay)->strict_misses(), 0u);

  // Serving the full recorded session makes the journals agree — the
  // property the run manifest's query-stream entries are built on.
  EXPECT_TRUE((*replay)->digest() == recording.digest());
}

TEST(ReplayEndpointTest, ReplayedErrorKeepsRetryAfterHint) {
  TwinKbFixture fx;
  LocalEndpoint local(&fx.kb_a);
  FlakyOnce flaky(&local);
  RecordingEndpoint recording(&flaky);

  const TermId q = recording.LookupTerm(Term::Iri("http://kb.test/q"));
  const SelectQuery query = queries::FactsOfPredicate(q);
  ASSERT_FALSE(recording.Select(query).ok());  // Never retried: stays failed.

  ReplayEndpoint replay(recording.Snapshot());
  const TermId q_r = replay.LookupTerm(Term::Iri("http://kb.test/q"));
  const auto replayed = replay.Select(queries::FactsOfPredicate(q_r));
  ASSERT_FALSE(replayed.ok());
  EXPECT_EQ(replayed.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(replayed.status().has_retry_after());
  EXPECT_DOUBLE_EQ(replayed.status().retry_after_ms(), 250.0);
  EXPECT_EQ(replay.strict_misses(), 0u);
}

TEST(ReplayEndpointTest, StrictMissIsNotFoundAndCounted) {
  ReplayEndpoint replay(Cassette{"empty", "http://kb.test/", 0, {}});

  const TermId p = replay.EncodeTerm(Term::Iri("http://kb.test/p"));
  const auto result = replay.Select(queries::FactsOfPredicate(p));
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(replay.strict_misses(), 1u);

  // An unrecorded membership judgment degrades to "unknown term" (the
  // pipeline then skips the query) but is still counted as a miss.
  EXPECT_EQ(replay.LookupTerm(Term::Iri("http://kb.test/s1")), kNullTermId);
  EXPECT_EQ(replay.strict_misses(), 2u);
  EXPECT_EQ(replay.appended(), 0u);
}

TEST(ReplayEndpointTest, LenientFallsThroughAppendsAndPersists) {
  TwinKbFixture fx;
  LocalEndpoint fallback(&fx.kb_a);
  ReplayEndpoint lenient(Cassette{"kb_a", "http://kb.test/", 0, {}},
                         &fallback);

  const TermId p = lenient.LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p, kNullTermId);
  const auto through = lenient.Select(queries::FactsOfPredicate(p));
  ASSERT_TRUE(through.ok()) << through.status();
  EXPECT_EQ(through->rows.size(), 2u);
  EXPECT_EQ(lenient.strict_misses(), 0u);
  EXPECT_EQ(lenient.appended(), 2u);  // Lookup + select.

  // The extended session persists; a strict reopen serves it dataset-free.
  const std::string path = TempPath("extended.cass");
  ASSERT_TRUE(lenient.Save(path).ok());
  auto strict = ReplayEndpoint::Open(path);
  ASSERT_TRUE(strict.ok()) << strict.status();
  const TermId p_s =
      (*strict)->LookupTerm(Term::Iri("http://kb.test/p"));
  ASSERT_NE(p_s, kNullTermId);
  const auto replayed = (*strict)->Select(queries::FactsOfPredicate(p_s));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(Surface(**strict, *replayed), Surface(lenient, *through));
  EXPECT_EQ((*strict)->strict_misses(), 0u);
}

}  // namespace
}  // namespace sofya
