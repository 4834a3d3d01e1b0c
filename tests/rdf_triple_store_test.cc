#include "rdf/triple_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <ostream>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "rdf/triple.h"
#include "util/random.h"

namespace sofya {
namespace {

TEST(TripleStoreTest, InsertAndContains) {
  TripleStore store;
  EXPECT_TRUE(store.Insert(1, 2, 3));
  EXPECT_TRUE(store.Contains(1, 2, 3));
  EXPECT_FALSE(store.Contains(1, 2, 4));
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, InsertDeduplicates) {
  TripleStore store;
  EXPECT_TRUE(store.Insert(1, 2, 3));
  EXPECT_FALSE(store.Insert(1, 2, 3));
  EXPECT_EQ(store.size(), 1u);
}

TEST(TripleStoreTest, EraseRemoves) {
  TripleStore store;
  store.Insert(1, 2, 3);
  store.Insert(1, 2, 4);
  EXPECT_TRUE(store.Erase(Triple(1, 2, 3)));
  EXPECT_FALSE(store.Erase(Triple(1, 2, 3)));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.Contains(1, 2, 3));
  EXPECT_TRUE(store.Contains(1, 2, 4));
  // Scans still coherent after erase.
  EXPECT_EQ(store.Match(TriplePattern(1, 0, 0)).size(), 1u);
}

TEST(TripleStoreTest, MatchBySubject) {
  TripleStore store;
  store.Insert(1, 10, 100);
  store.Insert(1, 11, 101);
  store.Insert(2, 10, 100);
  auto rows = store.Match(TriplePattern(1, 0, 0));
  EXPECT_EQ(rows.size(), 2u);
  for (const auto& t : rows) EXPECT_EQ(t.subject, 1u);
}

TEST(TripleStoreTest, MatchByPredicate) {
  TripleStore store;
  store.Insert(1, 10, 100);
  store.Insert(2, 10, 101);
  store.Insert(3, 11, 100);
  EXPECT_EQ(store.Match(TriplePattern(0, 10, 0)).size(), 2u);
  EXPECT_EQ(store.CountMatches(TriplePattern(0, 10, 0)), 2u);
}

TEST(TripleStoreTest, MatchByObjectAndSubjectObject) {
  TripleStore store;
  store.Insert(1, 10, 100);
  store.Insert(2, 11, 100);
  store.Insert(1, 12, 100);
  EXPECT_EQ(store.Match(TriplePattern(0, 0, 100)).size(), 3u);
  EXPECT_EQ(store.Match(TriplePattern(1, 0, 100)).size(), 2u);
}

TEST(TripleStoreTest, FullScanAndPointLookup) {
  TripleStore store;
  store.Insert(1, 10, 100);
  store.Insert(2, 11, 101);
  EXPECT_EQ(store.Match(TriplePattern()).size(), 2u);
  EXPECT_EQ(store.Match(TriplePattern(1, 10, 100)).size(), 1u);
  EXPECT_EQ(store.Match(TriplePattern(1, 10, 101)).size(), 0u);
}

TEST(TripleStoreTest, ForEachMatchEarlyStop) {
  TripleStore store;
  for (TermId i = 1; i <= 10; ++i) store.Insert(i, 1, i + 100);
  size_t seen = 0;
  store.ForEachMatch(TriplePattern(0, 1, 0), [&](const Triple&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3u);
}

TEST(TripleStoreTest, ObjectsAndSubjectsAreDistinctSorted) {
  TripleStore store;
  store.Insert(1, 10, 103);
  store.Insert(1, 10, 101);
  store.Insert(1, 10, 102);
  store.Insert(2, 10, 101);
  auto objects = store.Objects(1, 10);
  EXPECT_EQ(objects, (std::vector<TermId>{101, 102, 103}));
  auto subjects = store.Subjects(10, 101);
  EXPECT_EQ(subjects, (std::vector<TermId>{1, 2}));
}

TEST(TripleStoreTest, SubjectsOfAndPredicates) {
  TripleStore store;
  store.Insert(3, 20, 1);
  store.Insert(1, 20, 2);
  store.Insert(1, 21, 3);
  EXPECT_EQ(store.SubjectsOf(20), (std::vector<TermId>{1, 3}));
  EXPECT_EQ(store.Predicates(), (std::vector<TermId>{20, 21}));
}

TEST(TripleStoreTest, StatsForComputesFunctionality) {
  TripleStore store;
  // Predicate 5: 2 subjects, 3 facts, 3 distinct objects.
  store.Insert(1, 5, 100);
  store.Insert(1, 5, 101);
  store.Insert(2, 5, 102);
  PredicateStats stats = store.StatsFor(5);
  EXPECT_EQ(stats.facts, 3u);
  EXPECT_EQ(stats.distinct_subjects, 2u);
  EXPECT_EQ(stats.distinct_objects, 3u);
  EXPECT_DOUBLE_EQ(stats.functionality(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(stats.inverse_functionality(), 1.0);
}

TEST(TripleStoreTest, StatsForAbsentPredicateIsZero) {
  TripleStore store;
  PredicateStats stats = store.StatsFor(99);
  EXPECT_EQ(stats.facts, 0u);
  EXPECT_DOUBLE_EQ(stats.functionality(), 0.0);
}

TEST(TripleStoreTest, StatsCacheInvalidatedByWrites) {
  TripleStore store;
  store.Insert(1, 5, 100);
  EXPECT_EQ(store.StatsFor(5).facts, 1u);
  store.Insert(2, 5, 101);
  EXPECT_EQ(store.StatsFor(5).facts, 2u);
}

// Regression: the stats memo is keyed off mutation_epoch(), so a stale
// entry can never survive a KB edit — including Erase, and including stats
// for a predicate *other* than the touched one (the epoch bump drops the
// whole memo).
TEST(TripleStoreTest, StaleStatsCannotSurviveMutation) {
  TripleStore store;
  store.Insert(1, 5, 100);
  store.Insert(2, 5, 101);
  store.Insert(1, 7, 200);
  const uint64_t epoch0 = store.mutation_epoch();
  EXPECT_EQ(store.StatsFor(5).facts, 2u);
  EXPECT_EQ(store.StatsFor(7).facts, 1u);  // Both memoized now.

  ASSERT_TRUE(store.Erase(Triple(2, 5, 101)));
  EXPECT_GT(store.mutation_epoch(), epoch0);
  EXPECT_EQ(store.StatsFor(5).facts, 1u);
  EXPECT_EQ(store.StatsFor(5).distinct_subjects, 1u);
  // Unrelated predicate re-reads fresh too (memo dropped wholesale).
  EXPECT_EQ(store.StatsFor(7).facts, 1u);

  // A duplicate insert is a no-op: the epoch must not move, so cached
  // derived state (e.g. compiled plans) stays valid.
  const uint64_t epoch1 = store.mutation_epoch();
  EXPECT_FALSE(store.Insert(1, 5, 100));
  EXPECT_EQ(store.mutation_epoch(), epoch1);
}

TEST(TripleStoreTest, GlobalStatsTrackMutations) {
  TripleStore store;
  store.Insert(1, 5, 100);
  store.Insert(2, 5, 100);
  store.Insert(2, 6, 101);
  StoreStats global = store.GlobalStats();
  EXPECT_EQ(global.triples, 3u);
  EXPECT_EQ(global.distinct_subjects, 2u);
  EXPECT_EQ(global.distinct_predicates, 2u);
  EXPECT_EQ(global.distinct_objects, 2u);

  store.Insert(3, 7, 102);
  global = store.GlobalStats();  // The write updated the counts.
  EXPECT_EQ(global.triples, 4u);
  EXPECT_EQ(global.distinct_subjects, 3u);
  EXPECT_EQ(global.distinct_predicates, 3u);
  EXPECT_EQ(global.distinct_objects, 3u);
}

TEST(TripleStoreTest, InterleavedWritesAndReads) {
  TripleStore store;
  store.Insert(1, 2, 3);
  EXPECT_EQ(store.Match(TriplePattern(0, 2, 0)).size(), 1u);
  store.Insert(4, 2, 5);  // Write after read re-dirties indexes.
  EXPECT_EQ(store.Match(TriplePattern(0, 2, 0)).size(), 2u);
}

// Property: every pattern shape agrees with a brute-force filter over
// randomly generated triples. A case with `run` > 0 adds, on a one-shard
// ring, blocks in which every bound prefix of each index (SPO, POS, OSP)
// spans exactly `run` entries between neighbouring prefixes, so the range
// lookup meets ends just before, at and just past each power of two.
struct PatternCase {
  uint64_t seed;
  size_t run = 0;
};

void PrintTo(const PatternCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", run " << c.run;
}

class TripleStorePatternProperty
    : public ::testing::TestWithParam<PatternCase> {};

TEST_P(TripleStorePatternProperty, MatchesAgreeWithBruteForce) {
  const PatternCase param = GetParam();
  Rng rng(param.seed);
  TripleStore store(param.run > 0 ? StoreOptions{/*num_hash_shards=*/1}
                                  : StoreOptions());
  std::vector<Triple> all;
  for (int i = 0; i < 400; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Below(12)),
             static_cast<TermId>(1 + rng.Below(6)),
             static_cast<TermId>(1 + rng.Below(12)));
    if (store.Insert(t)) all.push_back(t);
  }
  // The first and last triple of each run are its probes: every shape of
  // a run's triples hits the same ranges.
  std::vector<Triple> probes;
  for (TermId k = 0; k < 3; ++k) {
    for (TermId j = 0; j < param.run; ++j) {
      const Triple block[] = {
          // SPO: (s, 50) and (s, 51) each span `run`.
          {1000 + k, 50, 2000 + j},
          {1000 + k, 51, 2000 + j},
          // POS: (52, o) spans `run`.
          {4000 + j, 52, 3000 + k},
          // OSP: (o, 6000) and (o, 6001) each span `run`.
          {6000, 53 + j, 5000 + k},
          {6001, 53 + j, 5000 + k},
      };
      for (const Triple& t : block) {
        ASSERT_TRUE(store.Insert(t));
        all.push_back(t);
        if (j == 0 || j + 1 == param.run) probes.push_back(t);
      }
    }
  }

  // Random patterns, then every shape of every probe.
  std::vector<TriplePattern> patterns;
  for (int trial = 0; trial < 200; ++trial) {
    patterns.emplace_back(
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(12))
                           : kNullTermId,
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(6))
                           : kNullTermId,
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(12))
                           : kNullTermId);
  }
  std::set<std::tuple<TermId, TermId, TermId>> shapes;
  for (const Triple& t : probes) {
    for (int shape = 0; shape < 8; ++shape) {
      shapes.emplace((shape & 1) ? t.subject : kNullTermId,
                     (shape & 2) ? t.predicate : kNullTermId,
                     (shape & 4) ? t.object : kNullTermId);
    }
  }
  for (const auto& [ps, pp, po] : shapes) patterns.emplace_back(ps, pp, po);

  auto brute = [&](const TriplePattern& p) {
    std::vector<Triple> out;
    for (const Triple& t : all) {
      if (p.Matches(t)) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // The same checks on the owned store and on a mapped attach of its
  // segments.
  TripleStore::MappedLayout layout;
  layout.options = store.options();
  for (size_t i = 0; i < store.num_shards(); ++i) {
    layout.shards.push_back(store.ShardSegments(i));
  }
  TripleStore mapped;
  ASSERT_TRUE(mapped.AttachMapped(std::move(layout)).ok());
  for (const TripleStore* s : {&store, &mapped}) {
    SCOPED_TRACE(s->is_mapped() ? "mapped" : "owned");
    for (const TriplePattern& p : patterns) {
      const std::vector<Triple> want = brute(p);
      std::vector<Triple> got = s->Match(p);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "pattern (" << p.subject << "," << p.predicate
                           << "," << p.object << ")";
      const MatchView view = s->MatchSpans(p);
      std::vector<Triple> spans;
      for (size_t i = 0; i < view.num_spans(); ++i) {
        spans.insert(spans.end(), view.span(i).begin(), view.span(i).end());
      }
      std::sort(spans.begin(), spans.end());
      EXPECT_EQ(spans, want) << "pattern (" << p.subject << ","
                             << p.predicate << "," << p.object << ")";
      EXPECT_EQ(view.total(), want.size());
      EXPECT_EQ(s->CountMatches(p), want.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, TripleStorePatternProperty,
    ::testing::Values(PatternCase{1}, PatternCase{2}, PatternCase{3},
                      PatternCase{17}, PatternCase{99}, PatternCase{5, 1},
                      PatternCase{5, 2}, PatternCase{5, 3}, PatternCase{5, 4},
                      PatternCase{5, 5}, PatternCase{5, 8}, PatternCase{5, 9},
                      PatternCase{5, 16}, PatternCase{5, 17},
                      PatternCase{5, 33}));

// ---------------------------------------------------------------------------
// Sharded-store specifics: per-shard stat isolation, bulk load, geometries.
// ---------------------------------------------------------------------------

StoreOptions TinyShards() { return StoreOptions{/*num_hash_shards=*/2}; }

/// The ring shard holding predicate `p` (which must have facts).
size_t ShardOf(const TripleStore& store, TermId p) {
  for (size_t i = 0; i < store.num_shards(); ++i) {
    for (const Triple& t : store.ShardSegments(i).pos) {
      if (t.predicate == p) return i;
    }
  }
  ADD_FAILURE() << "predicate " << p << " is in no shard";
  return store.num_shards();
}

TEST(ShardedStoreTest, StatsRecomputeIsolatedPerPredicate) {
  // Two predicates on different ring shards: a write to one must leave the
  // other's memo in place. The shard hash is fixed, so the pair found here
  // is the same on every platform.
  TripleStore store(TinyShards());
  const TermId p1 = 1;
  store.Insert(1, p1, 100);
  store.Insert(2, p1, 101);
  TermId p2 = 2;
  for (; p2 <= 16; ++p2) {
    store.Insert(1, p2, 200);
    if (ShardOf(store, p2) != ShardOf(store, p1)) break;
    store.Erase(Triple(1, p2, 200));
  }
  ASSERT_LE(p2, 16u) << "no predicate separated from p1 across 2 shards";
  (void)store.StatsFor(p1);
  (void)store.StatsFor(p2);
  const uint64_t warm = store.stats_recomputes();
  // Re-reads are memoized: no new recomputes.
  (void)store.StatsFor(p1);
  (void)store.StatsFor(p2);
  ASSERT_EQ(store.stats_recomputes(), warm);

  // Write to p1: its own memo must drop...
  store.Insert(3, p1, 102);
  EXPECT_EQ(store.StatsFor(p1).facts, 3u);
  const uint64_t after_p1 = store.stats_recomputes();
  EXPECT_EQ(after_p1, warm + 1);
  // ...and p2's, on the other shard, must survive.
  EXPECT_EQ(store.StatsFor(p2).facts, 1u);
  EXPECT_EQ(store.stats_recomputes(), after_p1);
}

TEST(ShardedStoreTest, BulkLoadBumpsEpochOnce) {
  TripleStore store(TinyShards());
  store.Insert(1, 2, 3);
  const uint64_t epoch0 = store.mutation_epoch();
  {
    TripleStore::BulkLoadScope bulk(&store, /*expected=*/64);
    for (TermId i = 1; i <= 30; ++i) {
      store.Insert(i, 5, i + 100);
      store.Insert(i, 6, i + 200);
    }
    // Inside the scope the epoch is frozen.
    EXPECT_EQ(store.mutation_epoch(), epoch0);
  }
  // One bump for the whole batch.
  EXPECT_EQ(store.mutation_epoch(), epoch0 + 1);
  EXPECT_EQ(store.size(), 61u);
  EXPECT_EQ(store.StatsFor(5).facts, 30u);
  EXPECT_EQ(store.CountMatches(TriplePattern(0, 6, 0)), 30u);

  // An empty bulk scope must not bump the epoch at all.
  const uint64_t epoch1 = store.mutation_epoch();
  { TripleStore::BulkLoadScope bulk(&store); }
  EXPECT_EQ(store.mutation_epoch(), epoch1);
}

/// GlobalStats against distinct counts taken from a full scan.
void ExpectGlobalStatsMatchFullWalk(const TripleStore& store) {
  std::set<TermId> subjects, predicates, objects;
  const std::vector<Triple> all = store.Match(TriplePattern());
  for (const Triple& t : all) {
    subjects.insert(t.subject);
    predicates.insert(t.predicate);
    objects.insert(t.object);
  }
  const StoreStats global = store.GlobalStats();
  EXPECT_EQ(global.triples, all.size());
  EXPECT_EQ(global.distinct_subjects, subjects.size());
  EXPECT_EQ(global.distinct_predicates, predicates.size());
  EXPECT_EQ(global.distinct_objects, objects.size());
}

TEST(ShardedStoreTest, GlobalStatsMatchesFullWalk) {
  constexpr TermId kS = 16, kP = 4, kO = 16;
  Rng rng(13);
  TripleStore store(TinyShards());
  auto random_triple = [&] {
    return Triple(static_cast<TermId>(1 + rng.Below(kS)),
                  static_cast<TermId>(1 + rng.Below(kP)),
                  static_cast<TermId>(1 + rng.Below(kO)));
  };
  for (int i = 0; i < 300; ++i) {
    const Triple t = random_triple();
    if (rng.Below(3) == 0) {
      store.Erase(t);
    } else {
      store.Insert(t);
    }
    ExpectGlobalStatsMatchFullWalk(store);
    if (::testing::Test::HasFailure()) return;
  }

  // A duplicate insert and an erase of an absent triple change nothing.
  const StoreStats settled = store.GlobalStats();
  EXPECT_FALSE(store.Insert(store.Match(TriplePattern()).front()));
  EXPECT_FALSE(store.Erase(Triple(kS + 1, 1, kO + 1)));
  ExpectGlobalStatsMatchFullWalk(store);
  EXPECT_EQ(store.GlobalStats().distinct_subjects, settled.distinct_subjects);
  EXPECT_EQ(store.GlobalStats().distinct_objects, settled.distinct_objects);

  // A subject and an object with two facts each: the first erase keeps
  // them, erasing the last fact drops them.
  const TermId s = kS + 2, o = kO + 2;
  ASSERT_TRUE(store.Insert(s, 1, o));
  ASSERT_TRUE(store.Insert(s, 2, o));
  ExpectGlobalStatsMatchFullWalk(store);
  EXPECT_EQ(store.GlobalStats().distinct_subjects,
            settled.distinct_subjects + 1);
  ASSERT_TRUE(store.Erase(Triple(s, 1, o)));
  ExpectGlobalStatsMatchFullWalk(store);
  ASSERT_TRUE(store.Erase(Triple(s, 2, o)));
  ExpectGlobalStatsMatchFullWalk(store);
  EXPECT_EQ(store.GlobalStats().distinct_subjects, settled.distinct_subjects);
  EXPECT_EQ(store.GlobalStats().distinct_objects, settled.distinct_objects);

  // A bulk load that adds a new predicate.
  {
    TripleStore::BulkLoadScope bulk(&store, /*expected=*/32);
    for (TermId i = 1; i <= 12; ++i) store.Insert(i, kP + 1, kO + i);
    store.Insert(1, kP + 1, kO + 1);  // Duplicate inside the scope.
    ExpectGlobalStatsMatchFullWalk(store);
  }
  EXPECT_EQ(store.StatsFor(kP + 1).facts, 12u);
  ExpectGlobalStatsMatchFullWalk(store);

  // A move carries the counts and leaves an empty store behind.
  TripleStore moved(std::move(store));
  ExpectGlobalStatsMatchFullWalk(moved);
  ExpectGlobalStatsMatchFullWalk(store);
  EXPECT_EQ(store.GlobalStats().distinct_subjects, 0u);
  ASSERT_TRUE(store.Insert(1, 1, 1));
  ExpectGlobalStatsMatchFullWalk(store);

  // Attaching `moved`'s segments as a mapped snapshot counts every term;
  // the first write that changes the data thaws and keeps counting.
  TripleStore::MappedLayout layout;
  layout.options = moved.options();
  for (size_t i = 0; i < moved.num_shards(); ++i) {
    layout.shards.push_back(moved.ShardSegments(i));
  }
  TripleStore attached;
  ASSERT_TRUE(attached.AttachMapped(std::move(layout)).ok());
  ASSERT_TRUE(attached.is_mapped());
  ExpectGlobalStatsMatchFullWalk(attached);
  EXPECT_FALSE(attached.Insert(moved.Match(TriplePattern()).front()));
  ASSERT_TRUE(attached.is_mapped());
  ASSERT_TRUE(attached.Insert(kS + 3, 1, kO + 3));
  EXPECT_FALSE(attached.is_mapped());
  ExpectGlobalStatsMatchFullWalk(attached);
  ASSERT_TRUE(attached.Erase(attached.Match(TriplePattern()).front()));
  ExpectGlobalStatsMatchFullWalk(attached);
}

// A layout whose predicates sit in the wrong ring slots is rejected before
// the store changes: it stays empty and unmapped, and takes a valid layout
// afterwards.
TEST(ShardedStoreTest, RejectedAttachLeavesStoreEmpty) {
  TripleStore source(TinyShards());
  for (TermId p = 1; p <= 8; ++p) {
    source.Insert(p, p, p + 100);
    source.Insert(p + 10, p, p + 100);
  }
  ASSERT_FALSE(source.ShardSegments(0).spo.empty());
  ASSERT_FALSE(source.ShardSegments(1).spo.empty());

  TripleStore::MappedLayout swapped;
  swapped.options = source.options();
  swapped.shards = {source.ShardSegments(1), source.ShardSegments(0)};
  TripleStore store;
  const Status status = store.AttachMapped(std::move(swapped));
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "snapshot predicate routed to wrong hash shard");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.is_mapped());
  EXPECT_TRUE(store.Predicates().empty());
  EXPECT_TRUE(store.Match(TriplePattern()).empty());
  EXPECT_EQ(store.GlobalStats().distinct_subjects, 0u);

  TripleStore::MappedLayout valid;
  valid.options = source.options();
  valid.shards = {source.ShardSegments(0), source.ShardSegments(1)};
  ASSERT_TRUE(store.AttachMapped(std::move(valid)).ok());
  EXPECT_TRUE(store.is_mapped());
  EXPECT_EQ(store.size(), source.size());
  EXPECT_EQ(store.Predicates(), source.Predicates());
  EXPECT_EQ(store.Match(TriplePattern()).size(), source.size());
}

TEST(ShardedStoreTest, GlobalStatsAfterWriteComputesNothing) {
  TripleStore store(TinyShards());
  for (TermId i = 1; i <= 20; ++i) store.Insert(i, 5, i + 100);
  store.Insert(1, 6, 300);
  (void)store.GlobalStats();
  const uint64_t warm = store.stats_recomputes();
  store.Insert(21, 5, 121);
  store.Insert(2, 6, 300);
  EXPECT_EQ(store.GlobalStats().distinct_subjects, 21u);
  EXPECT_EQ(store.stats_recomputes(), warm);
}

TEST(ShardedStoreTest, StatsParityAcrossShardGeometries) {
  // The same data must yield identical stats regardless of shard layout.
  Rng rng(42);
  std::vector<Triple> data;
  for (int i = 0; i < 500; ++i) {
    data.emplace_back(static_cast<TermId>(1 + rng.Below(40)),
                      static_cast<TermId>(1 + rng.Below(5)),
                      static_cast<TermId>(1 + rng.Below(60)));
  }
  TripleStore baseline(StoreOptions{/*num_hash_shards=*/1});
  TripleStore sharded(StoreOptions{/*num_hash_shards=*/4});
  for (const Triple& t : data) {
    const bool a = baseline.Insert(t);
    const bool b = sharded.Insert(t);
    EXPECT_EQ(a, b);
  }
  ASSERT_EQ(baseline.size(), sharded.size());
  EXPECT_EQ(baseline.Predicates(), sharded.Predicates());
  for (TermId p : baseline.Predicates()) {
    const PredicateStats sa = baseline.StatsFor(p);
    const PredicateStats sb = sharded.StatsFor(p);
    EXPECT_EQ(sa.facts, sb.facts) << "pred " << p;
    EXPECT_EQ(sa.distinct_subjects, sb.distinct_subjects) << "pred " << p;
    EXPECT_EQ(sa.distinct_objects, sb.distinct_objects) << "pred " << p;
  }
  const StoreStats ga = baseline.GlobalStats();
  const StoreStats gb = sharded.GlobalStats();
  EXPECT_EQ(ga.triples, gb.triples);
  EXPECT_EQ(ga.distinct_subjects, gb.distinct_subjects);
  EXPECT_EQ(ga.distinct_predicates, gb.distinct_predicates);
  EXPECT_EQ(ga.distinct_objects, gb.distinct_objects);

  // And pattern results agree (sorted: cross-shard order may differ).
  for (TermId p : baseline.Predicates()) {
    auto a = baseline.Match(TriplePattern(0, p, 0));
    auto b = sharded.Match(TriplePattern(0, p, 0));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "pred " << p;
  }
}

// The randomized property suite again, this time over a 3-shard ring so
// cross-shard routing faces the same oracle.
class ShardedPatternProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardedPatternProperty, MatchesAgreeWithBruteForce) {
  Rng rng(GetParam());
  TripleStore store(StoreOptions{/*num_hash_shards=*/3});
  std::vector<Triple> all;
  for (int i = 0; i < 400; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Below(12)),
             static_cast<TermId>(1 + rng.Below(6)),
             static_cast<TermId>(1 + rng.Below(12)));
    if (store.Insert(t)) all.push_back(t);
  }

  auto brute = [&](const TriplePattern& p) {
    std::vector<Triple> out;
    for (const Triple& t : all) {
      if (p.Matches(t)) out.push_back(t);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  for (int trial = 0; trial < 200; ++trial) {
    TriplePattern p(rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(12))
                                       : kNullTermId,
                    rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(6))
                                       : kNullTermId,
                    rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(12))
                                       : kNullTermId);
    std::vector<Triple> got = store.Match(p);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, brute(p))
        << "pattern (" << p.subject << "," << p.predicate << "," << p.object
        << ")";
    EXPECT_EQ(store.CountMatches(p), got.size());

    // MatchView spans cover exactly the same entries ForEachMatch visits.
    size_t via_foreach = 0;
    store.ForEachMatch(p, [&](const Triple&) {
      ++via_foreach;
      return true;
    });
    EXPECT_EQ(via_foreach, got.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedPatternProperty,
                         ::testing::Values(7ULL, 23ULL, 51ULL));

// ---------------------------------------------------------------------------
// Writes interleaved with reads: each shard's indexes are a sorted prefix
// plus an unsorted tail, so erases must work on both sides of the boundary
// and the first read after a batch must merge back to a fully sorted shard.
// ---------------------------------------------------------------------------

// SPO order is Triple's own operator<.
bool PosOrder(const Triple& a, const Triple& b) {
  return std::tie(a.predicate, a.object, a.subject) <
         std::tie(b.predicate, b.object, b.subject);
}
bool OspOrder(const Triple& a, const Triple& b) {
  return std::tie(a.object, a.subject, a.predicate) <
         std::tie(b.object, b.subject, b.predicate);
}

/// Checks every read surface of `store` against the brute-force `oracle`.
void ExpectStoreMatchesOracle(const TripleStore& store,
                              const std::set<Triple>& oracle, Rng& rng,
                              TermId max_s, TermId max_p, TermId max_o) {
  ASSERT_EQ(store.size(), oracle.size());
  for (int trial = 0; trial < 40; ++trial) {
    TriplePattern p(
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(max_s))
                           : kNullTermId,
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(max_p))
                           : kNullTermId,
        rng.Bernoulli(0.5) ? static_cast<TermId>(1 + rng.Below(max_o))
                           : kNullTermId);
    std::vector<Triple> want;
    for (const Triple& t : oracle) {
      if (p.Matches(t)) want.push_back(t);
    }
    std::vector<Triple> got = store.Match(p);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "pattern (" << p.subject << "," << p.predicate
                         << "," << p.object << ")";
    EXPECT_EQ(store.CountMatches(p), want.size());
  }

  // Every shard's three spans are sorted by their own order and hold the
  // same triples; together they cover the store exactly.
  std::vector<Triple> covered;
  for (size_t i = 0; i < store.num_shards(); ++i) {
    const TripleStore::MappedShardSegments seg = store.ShardSegments(i);
    EXPECT_TRUE(std::is_sorted(seg.spo.begin(), seg.spo.end()))
        << "shard " << i;
    EXPECT_TRUE(std::is_sorted(seg.pos.begin(), seg.pos.end(), PosOrder))
        << "shard " << i;
    EXPECT_TRUE(std::is_sorted(seg.osp.begin(), seg.osp.end(), OspOrder))
        << "shard " << i;
    std::vector<Triple> pos(seg.pos.begin(), seg.pos.end());
    std::vector<Triple> osp(seg.osp.begin(), seg.osp.end());
    std::sort(pos.begin(), pos.end());
    std::sort(osp.begin(), osp.end());
    const std::vector<Triple> spo(seg.spo.begin(), seg.spo.end());
    EXPECT_EQ(pos, spo) << "shard " << i;
    EXPECT_EQ(osp, spo) << "shard " << i;
    covered.insert(covered.end(), spo.begin(), spo.end());
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, std::vector<Triple>(oracle.begin(), oracle.end()));

  std::set<TermId> subjects, predicates, objects;
  for (const Triple& t : oracle) {
    subjects.insert(t.subject);
    predicates.insert(t.predicate);
    objects.insert(t.object);
  }
  for (TermId p = 1; p <= max_p; ++p) {
    size_t facts = 0;
    std::set<TermId> ps, po;
    for (const Triple& t : oracle) {
      if (t.predicate != p) continue;
      ++facts;
      ps.insert(t.subject);
      po.insert(t.object);
    }
    const PredicateStats stats = store.StatsFor(p);
    EXPECT_EQ(stats.facts, facts) << "pred " << p;
    EXPECT_EQ(stats.distinct_subjects, ps.size()) << "pred " << p;
    EXPECT_EQ(stats.distinct_objects, po.size()) << "pred " << p;
  }
  const StoreStats global = store.GlobalStats();
  EXPECT_EQ(global.triples, oracle.size());
  EXPECT_EQ(global.distinct_subjects, subjects.size());
  EXPECT_EQ(global.distinct_predicates, predicates.size());
  EXPECT_EQ(global.distinct_objects, objects.size());
}

/// Runs random insert/erase batches with full reads between them. Erases
/// pick either a triple inserted since the last read (still in an unsorted
/// tail) or an older one (in a sorted prefix), and every write's return
/// value is checked against the oracle.
void RunInterleavedChurn(const StoreOptions& options, uint64_t seed) {
  constexpr TermId kS = 24, kP = 5, kO = 24;
  Rng rng(seed);
  TripleStore store(options);
  std::set<Triple> oracle;
  auto random_triple = [&] {
    return Triple(static_cast<TermId>(1 + rng.Below(kS)),
                  static_cast<TermId>(1 + rng.Below(kP)),
                  static_cast<TermId>(1 + rng.Below(kO)));
  };
  for (int i = 0; i < 12; ++i) {
    const Triple t = random_triple();
    EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
  }
  ExpectStoreMatchesOracle(store, oracle, rng, kS, kP, kO);

  size_t prefix_erases = 0;
  size_t tail_erases = 0;
  for (int batch = 0; batch < 40; ++batch) {
    std::vector<Triple> recent;  // Inserted since the last read.
    const size_t ops = 1 + rng.Below(12);
    for (size_t op = 0; op < ops; ++op) {
      const uint64_t kind = rng.Below(10);
      if (kind < 5) {
        const Triple t = random_triple();
        const bool fresh = oracle.insert(t).second;
        EXPECT_EQ(store.Insert(t), fresh);
        if (fresh) recent.push_back(t);
      } else if (kind < 7 && !recent.empty()) {
        const size_t at = rng.Below(recent.size());
        const Triple t = recent[at];
        recent.erase(recent.begin() + static_cast<ptrdiff_t>(at));
        oracle.erase(t);
        EXPECT_TRUE(store.Erase(t));
        ++tail_erases;
      } else if (kind < 9 && !oracle.empty()) {
        auto it = oracle.begin();
        std::advance(it, static_cast<ptrdiff_t>(rng.Below(oracle.size())));
        const Triple t = *it;
        const bool was_recent =
            std::find(recent.begin(), recent.end(), t) != recent.end();
        if (was_recent) continue;  // Keep the prefix/tail tally exact.
        oracle.erase(it);
        EXPECT_TRUE(store.Erase(t));
        ++prefix_erases;
      } else {
        const Triple t = random_triple();
        const bool present = oracle.erase(t) > 0;
        EXPECT_EQ(store.Erase(t), present);
        recent.erase(std::remove(recent.begin(), recent.end(), t),
                     recent.end());
      }
    }
    ExpectStoreMatchesOracle(store, oracle, rng, kS, kP, kO);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(prefix_erases, 0u);
  EXPECT_GT(tail_erases, 0u);
}

TEST(InterleavedWriteReadProperty, DefaultShards) {
  for (uint64_t seed : {3ULL, 11ULL, 29ULL}) {
    SCOPED_TRACE(seed);
    RunInterleavedChurn(StoreOptions(), seed);
  }
}

TEST(InterleavedWriteReadProperty, TinyShards) {
  for (uint64_t seed : {3ULL, 11ULL, 29ULL}) {
    SCOPED_TRACE(seed);
    RunInterleavedChurn(TinyShards(), seed);
  }
}

// The first reads after a write batch merge shard tails on the read path
// under each shard's lock. Eight threads released together into
// MatchSpans/StatsFor/HistogramFor/GlobalStats must all see the merged data
// (and run clean under TSan).
TEST(ConcurrentReadsAfterWrites, FirstReadsRaceSafely) {
  constexpr int kThreads = 8;
  constexpr TermId kPreds = 6;
  TripleStore store;
  std::set<Triple> oracle;
  Rng rng(5);
  auto random_triple = [&] {
    return Triple(static_cast<TermId>(1 + rng.Below(80)),
                  static_cast<TermId>(1 + rng.Below(kPreds)),
                  static_cast<TermId>(1 + rng.Below(80)));
  };
  for (int i = 0; i < 4000; ++i) {
    const Triple t = random_triple();
    store.Insert(t);
    oracle.insert(t);
  }
  store.EnsureIndexed();
  for (int round = 0; round < 5; ++round) {
    // One write batch: inserts land in tails, erases hit sorted prefixes.
    for (int i = 0; i < 32; ++i) {
      const Triple t = random_triple();
      if (oracle.insert(t).second) {
        store.Insert(t);
      } else {
        oracle.erase(t);
        store.Erase(t);
      }
    }
    // Expected answers, computed before any thread touches `store`.
    TripleStore reference;
    for (const Triple& t : oracle) reference.Insert(t);
    std::vector<size_t> want_count(kPreds + 1);
    std::vector<PredicateStats> want_stats(kPreds + 1);
    std::vector<size_t> want_hist_rows(kPreds + 1);
    for (TermId p = 1; p <= kPreds; ++p) {
      want_count[p] = reference.CountMatches(TriplePattern(0, p, 0));
      want_stats[p] = reference.StatsFor(p);
      want_hist_rows[p] = reference.HistogramFor(p).subjects.total_rows();
    }
    const StoreStats want_global = reference.GlobalStats();

    std::atomic<int> waiting{kThreads};
    std::vector<int> failures(kThreads, 0);
    std::vector<std::thread> threads;
    for (int w = 0; w < kThreads; ++w) {
      threads.emplace_back([&, w] {
        waiting.fetch_sub(1);
        while (waiting.load() > 0) std::this_thread::yield();
        // Each thread leads with a different entry point, so all four race
        // into the same dirty shards.
        for (int step = 0; step < 4; ++step) {
          for (TermId p = 1; p <= kPreds; ++p) {
            switch ((w + step) % 4) {
              case 0:
                if (store.MatchSpans(TriplePattern(0, p, 0)).total() !=
                    want_count[p]) {
                  ++failures[w];
                }
                break;
              case 1: {
                const PredicateStats got = store.StatsFor(p);
                if (got.facts != want_stats[p].facts ||
                    got.distinct_subjects != want_stats[p].distinct_subjects ||
                    got.distinct_objects != want_stats[p].distinct_objects) {
                  ++failures[w];
                }
                break;
              }
              case 2:
                if (store.HistogramFor(p).subjects.total_rows() !=
                    want_hist_rows[p]) {
                  ++failures[w];
                }
                break;
              default: {
                const StoreStats got = store.GlobalStats();
                if (got.triples != want_global.triples ||
                    got.distinct_subjects != want_global.distinct_subjects ||
                    got.distinct_objects != want_global.distinct_objects) {
                  ++failures[w];
                }
              }
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    for (int w = 0; w < kThreads; ++w) {
      EXPECT_EQ(failures[w], 0) << "round " << round << " thread " << w;
    }
  }
}

}  // namespace
}  // namespace sofya
