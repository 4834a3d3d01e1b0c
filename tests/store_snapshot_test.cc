#include "rdf/store_snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"

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

/// A store with mixed term kinds and several predicates on a small
/// 2-shard ring.
struct Fixture {
  Dictionary dict;
  TripleStore store;
  TermId hot, cold, label;

  Fixture() : store(StoreOptions{/*num_hash_shards=*/2}) {
    hot = dict.InternIri("http://kb/hot");
    cold = dict.InternIri("http://kb/cold");
    label = dict.InternIri("http://kb/label");
    for (int i = 0; i < 60; ++i) {
      store.Insert(dict.InternIri("http://kb/s" + std::to_string(i)), hot,
                   dict.InternIri("http://kb/o" + std::to_string(i % 7)));
    }
    store.Insert(dict.InternIri("http://kb/s0"), cold,
                 dict.Intern(Term::Literal("plain")));
    store.Insert(dict.InternIri("http://kb/s1"), cold,
                 dict.Intern(Term::TypedLiteral(
                     "42", "http://www.w3.org/2001/XMLSchema#integer")));
    store.Insert(dict.InternIri("http://kb/s2"), label,
                 dict.Intern(Term::LangLiteral("Wien", "de")));
  }
};

void ExpectStoresEqual(const TripleStore& a, const TripleStore& b) {
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.Predicates(), b.Predicates());
  for (TermId p : a.Predicates()) {
    const PredicateStats sa = a.StatsFor(p);
    const PredicateStats sb = b.StatsFor(p);
    EXPECT_EQ(sa.facts, sb.facts) << "pred " << p;
    EXPECT_EQ(sa.distinct_subjects, sb.distinct_subjects) << "pred " << p;
    EXPECT_EQ(sa.distinct_objects, sb.distinct_objects) << "pred " << p;
    // Per-predicate enumeration order is part of the store contract
    // (sampling determinism), so compare unsorted.
    EXPECT_EQ(a.Match(TriplePattern(kNullTermId, p, kNullTermId)),
              b.Match(TriplePattern(kNullTermId, p, kNullTermId)));
  }
  const StoreStats ga = a.GlobalStats();
  const StoreStats gb = b.GlobalStats();
  EXPECT_EQ(ga.triples, gb.triples);
  EXPECT_EQ(ga.distinct_subjects, gb.distinct_subjects);
  EXPECT_EQ(ga.distinct_predicates, gb.distinct_predicates);
  EXPECT_EQ(ga.distinct_objects, gb.distinct_objects);
}

TEST(StoreSnapshotTest, RoundTripParity) {
  Fixture fx;
  const std::string path = TempPath("roundtrip.snap");
  auto saved = SaveStoreSnapshot(fx.store, fx.dict, path);
  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved->triples, fx.store.size());
  EXPECT_EQ(saved->terms, fx.dict.size());
  EXPECT_EQ(saved->shards, 2u);

  Dictionary dict2;
  TripleStore store2;
  auto loaded = LoadStoreSnapshot(path, &dict2, &store2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(store2.is_mapped());
  EXPECT_EQ(loaded->triples, fx.store.size());
  EXPECT_EQ(loaded->shards, 2u);
  EXPECT_EQ(store2.num_shards(), 2u);

  // Dictionary parity: every id decodes to the identical term.
  ASSERT_EQ(dict2.size(), fx.dict.size());
  for (TermId id = fx.dict.min_id(); id <= fx.dict.max_id(); ++id) {
    EXPECT_EQ(dict2.Decode(id), fx.dict.Decode(id)) << "id " << id;
  }
  ExpectStoresEqual(fx.store, store2);

  // Mapped membership checks (no hash set in mapped mode).
  EXPECT_TRUE(
      store2.Contains(*fx.store.Match(TriplePattern()).begin()));
  EXPECT_FALSE(store2.Contains(Triple(9999, 9999, 9999)));
}

TEST(StoreSnapshotTest, MappedStoreThawsOnFirstWrite) {
  Fixture fx;
  const std::string path = TempPath("thaw.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());

  Dictionary dict2;
  TripleStore store2;
  ASSERT_TRUE(LoadStoreSnapshot(path, &dict2, &store2).ok());
  ASSERT_TRUE(store2.is_mapped());
  const uint64_t epoch = store2.mutation_epoch();

  // First write thaws and behaves like a normal store.
  EXPECT_TRUE(store2.Insert(1, fx.cold, 2));
  EXPECT_FALSE(store2.is_mapped());
  EXPECT_GT(store2.mutation_epoch(), epoch);
  EXPECT_EQ(store2.size(), fx.store.size() + 1);
  EXPECT_TRUE(store2.Contains(1, fx.cold, 2));
  // Duplicate insert of a mapped triple is detected post-thaw. Use a `hot`
  // triple so the earlier `cold` insert can't skew the stats below.
  const Triple existing =
      fx.store.Match(TriplePattern(kNullTermId, fx.hot, kNullTermId))[0];
  EXPECT_FALSE(store2.Insert(existing));
  // Erase works and stats follow.
  ASSERT_TRUE(store2.Erase(existing));
  EXPECT_EQ(store2.StatsFor(existing.predicate).facts,
            fx.store.StatsFor(existing.predicate).facts - 1);
}

TEST(StoreSnapshotTest, NoOpWritesKeepStoreMapped) {
  Fixture fx;
  const std::string path = TempPath("noop.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());

  Dictionary dict2;
  TripleStore store2;
  ASSERT_TRUE(LoadStoreSnapshot(path, &dict2, &store2).ok());
  ASSERT_TRUE(store2.is_mapped());
  const uint64_t epoch = store2.mutation_epoch();

  // Neither write changes the data, so neither may thaw the mapping or
  // bump the epoch.
  EXPECT_FALSE(store2.Erase(Triple(9999, fx.cold, 9999)));
  EXPECT_TRUE(store2.is_mapped());
  const Triple existing =
      fx.store.Match(TriplePattern(kNullTermId, fx.hot, kNullTermId))[0];
  EXPECT_FALSE(store2.Insert(existing));
  EXPECT_TRUE(store2.is_mapped());
  EXPECT_EQ(store2.mutation_epoch(), epoch);
  EXPECT_EQ(store2.size(), fx.store.size());
  ExpectStoresEqual(fx.store, store2);

  // A real write still thaws.
  EXPECT_TRUE(store2.Erase(existing));
  EXPECT_FALSE(store2.is_mapped());
}

TEST(StoreSnapshotTest, KnowledgeBaseRoundTripThroughNTriples) {
  KnowledgeBase kb("kb1", "http://kb1/");
  kb.AddFact("a", "knows", "b");
  kb.AddFact("a", "knows", "c");
  kb.AddLiteralFact("a", "age", "30");
  const std::string path = TempPath("kb.snap");
  auto saved = kb.SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.status();

  KnowledgeBase kb2("kb2", "http://kb1/");
  auto loaded = kb2.LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(kb2.size(), kb.size());
  // The serialized N-Triples documents agree line for line.
  auto nt1 = WriteNTriplesString(kb.store(), kb.dict());
  auto nt2 = WriteNTriplesString(kb2.store(), kb2.dict());
  ASSERT_TRUE(nt1.ok());
  ASSERT_TRUE(nt2.ok());
  EXPECT_EQ(*nt1, *nt2);
  // A loaded KB rejects a second load (non-empty).
  EXPECT_FALSE(kb2.LoadSnapshot(path).ok());
}

TEST(StoreSnapshotTest, CorruptPayloadByteIsRejected) {
  Fixture fx;
  const std::string path = TempPath("corrupt.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());
  std::string bytes = ReadFile(path);
  ASSERT_GT(bytes.size(), 200u);
  bytes[bytes.size() / 2] ^= 0x5a;  // Flip one payload byte.
  WriteFile(path, bytes);

  Dictionary dict2;
  TripleStore store2;
  auto loaded = LoadStoreSnapshot(path, &dict2, &store2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
}

TEST(StoreSnapshotTest, VersionOneHeaderIsRejected) {
  // Version 1 files carried a promoted-predicate group table; the loader
  // reads only the current layout and names the version it refuses.
  Fixture fx;
  const std::string path = TempPath("version1.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());
  std::string bytes = ReadFile(path);
  const uint32_t version = 1;
  std::memcpy(&bytes[8], &version, sizeof(version));  // After the magic.
  WriteFile(path, bytes);
  EXPECT_TRUE(LooksLikeSnapshot(path));

  Dictionary dict2;
  TripleStore store2;
  auto loaded = LoadStoreSnapshot(path, &dict2, &store2);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  EXPECT_NE(loaded.status().message().find("unsupported snapshot version 1"),
            std::string::npos)
      << loaded.status();
  EXPECT_TRUE(dict2.empty());
  EXPECT_TRUE(store2.empty());
}

TEST(StoreSnapshotTest, TruncatedFileIsRejected) {
  Fixture fx;
  const std::string path = TempPath("trunc.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());
  std::string bytes = ReadFile(path);
  for (size_t keep : {bytes.size() - 1, bytes.size() / 2, size_t{40}}) {
    WriteFile(path, bytes.substr(0, keep));
    Dictionary dict2;
    TripleStore store2;
    auto loaded = LoadStoreSnapshot(path, &dict2, &store2);
    ASSERT_FALSE(loaded.ok()) << "kept " << keep;
    EXPECT_TRUE(loaded.status().IsParseError() ||
                loaded.status().IsInvalidArgument())
        << loaded.status();
  }
}

TEST(StoreSnapshotTest, BadMagicAndMissingFileRejected) {
  const std::string path = TempPath("notasnap.bin");
  WriteFile(path, "definitely not a snapshot file, much too short header??");
  Dictionary dict;
  TripleStore store;
  auto loaded = LoadStoreSnapshot(path, &dict, &store);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsParseError()) << loaded.status();
  EXPECT_FALSE(LooksLikeSnapshot(path));

  auto missing = LoadStoreSnapshot(TempPath("does_not_exist.snap"), &dict,
                                   &store);
  ASSERT_FALSE(missing.ok());

  // And the detector accepts a real snapshot.
  Fixture fx;
  const std::string good = TempPath("good.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, good).ok());
  EXPECT_TRUE(LooksLikeSnapshot(good));
}

TEST(StoreSnapshotTest, LoadRequiresEmptyTargets) {
  Fixture fx;
  const std::string path = TempPath("nonempty.snap");
  ASSERT_TRUE(SaveStoreSnapshot(fx.store, fx.dict, path).ok());
  {
    Dictionary dict2;
    dict2.InternIri("occupied");
    TripleStore store2;
    EXPECT_FALSE(LoadStoreSnapshot(path, &dict2, &store2).ok());
  }
  {
    Dictionary dict2;
    TripleStore store2;
    store2.Insert(1, 2, 3);
    EXPECT_FALSE(LoadStoreSnapshot(path, &dict2, &store2).ok());
  }
}

TEST(StoreSnapshotTest, EmptyStoreRoundTrips) {
  Dictionary dict;
  TripleStore store;
  const std::string path = TempPath("empty.snap");
  ASSERT_TRUE(SaveStoreSnapshot(store, dict, path).ok());
  Dictionary dict2;
  TripleStore store2;
  auto loaded = LoadStoreSnapshot(path, &dict2, &store2);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(store2.size(), 0u);
  EXPECT_TRUE(store2.Match(TriplePattern()).empty());
}

}  // namespace
}  // namespace sofya
