// Planner v2: the Selinger-style dynamic-programming join orderer and its
// cardinality inputs (exact constant-prefix probes, equi-depth histograms).
//
// What this file pins:
//
//   1. the DP planner finds globally cheaper orders than the greedy
//      planner's myopic min-next-step choice (the motivating trap);
//   2. exact-probe estimates: a constant-prefix clause's estimated_rows is
//      the store's true match count, not a facts/distinct approximation;
//   3. DP and greedy produce identical result bags on randomized corpora
//      across shard geometries (hash-ring sizes, promotion on/off);
//   4. histograms are epoch-memoized exactly like StatsFor: repeated reads
//      are free, a write to the predicate's shard invalidates, an untouched
//      promoted predicate keeps its memo.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/planner.h"
#include "sparql/query.h"
#include "util/random.h"

namespace sofya {
namespace {

using Row = std::vector<TermId>;

std::multiset<Row> AsBag(const std::vector<Row>& rows) {
  return {rows.begin(), rows.end()};
}

// ---------------------------------------------------------------------------
// The greedy trap: a chain where the smallest-base clause is the worst
// starting point.
//
//   ?a pX ?b . ?b pF ?c . ?c pY ?d
//
// pX has only 2 facts, but both its objects are mega-hubs in pF (~400 facts
// each), so starting there explodes the intermediate. pY has 5 facts and is
// maximally selective driven backwards through pF's distinct objects. The
// greedy planner starts at pX (smallest base estimate) and is then forced
// through the hubs; the DP planner prices the whole chain and starts at pY.
class GreedyTrapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.Insert(100, kPX, 200);  // a0 -> b0 (hub)
    store_.Insert(101, kPX, 201);  // a1 -> b1 (hub)
    for (TermId j = 0; j < 400; ++j) {
      store_.Insert(200, kPF, 300 + j);  // b0 fans out to c0..c399.
      store_.Insert(201, kPF, 700 + j);  // b1 fans out to c400..c799.
    }
    for (TermId j = 0; j < 200; ++j) {
      store_.Insert(1000 + j, kPF, 2000 + j);  // Thin tail: bq_j -> cq_j.
    }
    store_.Insert(300, kPY, 900);  // c0 -> d0: the only row that survives.
    for (TermId j = 0; j < 4; ++j) {
      store_.Insert(2000 + j, kPY, 910 + j);  // cq_j -> d_j (dead ends).
    }
  }

  SelectQuery Chain() {
    SelectQuery q;
    const VarId a = q.NewVar("a");
    const VarId b = q.NewVar("b");
    const VarId c = q.NewVar("c");
    const VarId d = q.NewVar("d");
    q.Where(NodeRef::Variable(a), NodeRef::Constant(kPX),
            NodeRef::Variable(b));
    q.Where(NodeRef::Variable(b), NodeRef::Constant(kPF),
            NodeRef::Variable(c));
    q.Where(NodeRef::Variable(c), NodeRef::Constant(kPY),
            NodeRef::Variable(d));
    return q;
  }

  static constexpr TermId kPX = 10, kPF = 11, kPY = 12;
  TripleStore store_;
};

TEST_F(GreedyTrapTest, DpStartsAtTheGloballySelectiveEnd) {
  const SelectQuery q = Chain();
  const CompiledPlan dp = CompilePlan(q, store_);
  ASSERT_EQ(dp.clauses.size(), 3u);
  EXPECT_TRUE(dp.used_dp);
  EXPECT_EQ(dp.clauses[0].source_index, 2u);  // pY first, despite base 5 > 2.

  PlannerOptions greedy_opts;
  greedy_opts.use_dp = false;
  const CompiledPlan greedy = CompilePlan(q, store_, greedy_opts);
  ASSERT_EQ(greedy.clauses.size(), 3u);
  EXPECT_FALSE(greedy.used_dp);
  EXPECT_EQ(greedy.clauses[0].source_index, 0u);  // Min base: pX.

  // The DP order's estimated cumulative chain is strictly cheaper.
  EXPECT_LT(dp.clauses.back().estimated_output_rows,
            greedy.clauses.back().estimated_output_rows);
}

TEST_F(GreedyTrapTest, DpPlanDoesStrictlyLessWorkAndAgreesOnRows) {
  const SelectQuery q = Chain();
  EvalStats dp_stats, greedy_stats;
  PlannerOptions greedy_opts;
  greedy_opts.use_dp = false;
  auto dp_rows = Evaluate(store_, q, &dp_stats);
  auto greedy_rows = Evaluate(store_, q, &greedy_stats, nullptr, greedy_opts);
  ASSERT_TRUE(dp_rows.ok());
  ASSERT_TRUE(greedy_rows.ok());
  EXPECT_EQ(AsBag(dp_rows->rows), AsBag(greedy_rows->rows));
  EXPECT_EQ(dp_rows->rows.size(), 1u);
  // Greedy walks both 400-fact hubs; DP probes backwards from 5 pY facts.
  EXPECT_LT(dp_stats.triples_scanned * 10, greedy_stats.triples_scanned);
}

TEST_F(GreedyTrapTest, DpFallsBackToGreedyAboveClauseBudget) {
  // A chain of `hops` pF clauses: ?v0 pF ?v1 . ?v1 pF ?v2 . ...
  auto chain = [](size_t hops) {
    SelectQuery q;
    VarId prev = q.NewVar("v0");
    for (size_t i = 0; i < hops; ++i) {
      const VarId next = q.NewVar("v" + std::to_string(i + 1));
      q.Where(NodeRef::Variable(prev), NodeRef::Constant(kPF),
              NodeRef::Variable(next));
      prev = next;
    }
    return q;
  };
  const CompiledPlan at_budget = CompilePlan(chain(kDpMaxClauses), store_);
  EXPECT_TRUE(at_budget.used_dp);
  const CompiledPlan over = CompilePlan(chain(kDpMaxClauses + 1), store_);
  ASSERT_EQ(over.clauses.size(), kDpMaxClauses + 1);
  EXPECT_FALSE(over.used_dp);  // 13 clauses: greedy orders them.
}

// ---------------------------------------------------------------------------
// Exact constant-prefix probes.

TEST(ExactProbeTest, ConstantPrefixEstimateIsTheTrueMatchCount) {
  TripleStore store;
  const TermId p = 10;
  for (TermId i = 0; i < 7; ++i) store.Insert(500, p, 600 + i);
  store.Insert(501, p, 600);

  // ?y via (s0, p, ?y): the planner should know this is exactly 7 rows —
  // facts/distinct would say 8/2 = 4.
  SelectQuery q;
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Constant(500), NodeRef::Constant(p), NodeRef::Variable(y));
  const CompiledPlan plan = CompilePlan(q, store);
  ASSERT_EQ(plan.clauses.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.clauses[0].estimated_rows, 7.0);
  EXPECT_DOUBLE_EQ(plan.clauses[0].estimated_output_rows, 7.0);

  // Object-anchored probe: (?x, p, o) where o has exactly 2 facts.
  SelectQuery q2;
  const VarId x = q2.NewVar("x");
  q2.Where(NodeRef::Variable(x), NodeRef::Constant(p), NodeRef::Constant(600));
  const CompiledPlan plan2 = CompilePlan(q2, store);
  ASSERT_EQ(plan2.clauses.size(), 1u);
  EXPECT_DOUBLE_EQ(plan2.clauses[0].estimated_rows, 2.0);
}

// ---------------------------------------------------------------------------
// Randomized parity across shard geometries.

TripleStore RandomStore(Rng& rng, size_t scale, const StoreOptions& options) {
  TripleStore store(options);
  const TermId preds[4] = {50, 51, 52, 53};
  const size_t sizes[4] = {scale * 40, scale * 8, scale * 2, 3};
  for (int p = 0; p < 4; ++p) {
    for (size_t i = 0; i < sizes[p]; ++i) {
      store.Insert(static_cast<TermId>(1 + rng.Below(20)), preds[p],
                   static_cast<TermId>(1 + rng.Below(20)));
    }
  }
  return store;
}

SelectQuery RandomQuery(Rng& rng) {
  SelectQuery q;
  std::vector<VarId> vars;
  for (int i = 0; i < 4; ++i) {
    vars.push_back(q.NewVar("v" + std::to_string(i)));
  }
  const size_t num_clauses = 1 + rng.Below(4);
  for (size_t c = 0; c < num_clauses; ++c) {
    auto node = [&](bool allow_const_pred) -> NodeRef {
      const uint64_t kind = rng.Below(10);
      if (allow_const_pred && kind < 6) {
        return NodeRef::Constant(static_cast<TermId>(50 + rng.Below(4)));
      }
      if (kind < 3) {
        return NodeRef::Constant(static_cast<TermId>(1 + rng.Below(20)));
      }
      return NodeRef::Variable(vars[rng.Below(vars.size())]);
    };
    q.Where(node(false), node(true), node(false));
  }
  if (rng.Bernoulli(0.3)) {
    q.Filter(FilterExpr::VarNeqVar(vars[rng.Below(2)], vars[2 + rng.Below(2)]));
  }
  if (rng.Bernoulli(0.3)) q.Distinct();
  return q;
}

class PlannerV2Property : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerV2Property, DpAndGreedyAgreeAcrossShardGeometries) {
  // Geometries: single-shard, small ring, default ring; with and without
  // predicate promotion (threshold 64 promotes the fat predicate once the
  // corpus is big enough, so both layouts get exercised).
  const size_t rings[] = {1, 2, 8};
  const size_t promote[] = {0, 64};
  PlannerOptions greedy_opts;
  greedy_opts.use_dp = false;

  Rng rng(GetParam());
  for (size_t ring : rings) {
    for (size_t threshold : promote) {
      StoreOptions geometry;
      geometry.num_hash_shards = ring;
      geometry.promote_threshold = threshold;
      geometry.split_factor = 2;
      for (int round = 0; round < 8; ++round) {
        TripleStore store = RandomStore(rng, 1 + rng.Below(20), geometry);
        const SelectQuery q = RandomQuery(rng);
        auto dp = Evaluate(store, q);
        auto greedy = Evaluate(store, q, nullptr, nullptr, greedy_opts);
        ASSERT_TRUE(dp.ok());
        ASSERT_TRUE(greedy.ok());
        EXPECT_EQ(AsBag(dp->rows), AsBag(greedy->rows))
            << "seed=" << GetParam() << " ring=" << ring
            << " promote=" << threshold << " round=" << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerV2Property,
                         ::testing::Values(11ULL, 42ULL, 777ULL));

// ---------------------------------------------------------------------------
// Histogram memoization.

TEST(HistogramMemoTest, RebuiltOnlyWhenThePredicatesShardsChange) {
  // Promotion threshold 4 gives each fat predicate its own shard group, so
  // the two predicates have independent epochs.
  StoreOptions options;
  options.promote_threshold = 4;
  options.split_factor = 2;
  TripleStore store(options);
  const TermId pa = 10, pb = 11;
  for (TermId i = 0; i < 40; ++i) {
    store.Insert(100 + i, pa, 200 + (i % 5));
    store.Insert(300 + i, pb, 400 + i);
  }
  EXPECT_EQ(store.histogram_recomputes(), 0u);

  const PredicateHistograms first = store.HistogramFor(pa);
  EXPECT_FALSE(first.subjects.empty());
  EXPECT_EQ(first.subjects.total_rows(), 40u);
  EXPECT_EQ(store.histogram_recomputes(), 1u);

  // Same epoch: served from the memo.
  (void)store.HistogramFor(pa);
  EXPECT_EQ(store.histogram_recomputes(), 1u);

  // A write to pb's own group must not invalidate pa's memo...
  (void)store.HistogramFor(pb);
  EXPECT_EQ(store.histogram_recomputes(), 2u);
  store.Insert(999, pb, 999);
  (void)store.HistogramFor(pa);
  EXPECT_EQ(store.histogram_recomputes(), 2u);
  // ...but pb itself rebuilds at the new epoch.
  (void)store.HistogramFor(pb);
  EXPECT_EQ(store.histogram_recomputes(), 3u);

  // And a write to pa invalidates pa, with the new fact visible.
  store.Insert(999, pa, 999);
  const PredicateHistograms rebuilt = store.HistogramFor(pa);
  EXPECT_EQ(store.histogram_recomputes(), 4u);
  EXPECT_EQ(rebuilt.subjects.total_rows(), 41u);

  // Absent predicate: empty histograms, nothing memoized the hard way.
  const PredicateHistograms absent = store.HistogramFor(12345);
  EXPECT_TRUE(absent.subjects.empty());
  EXPECT_TRUE(absent.objects.empty());
}

TEST(HistogramMemoTest, FanoutSeesContiguousSkewButStaysNearUniformWhenFlat) {
  TripleStore store;
  const TermId flat = 10, skewed = 11;
  for (TermId i = 0; i < 1000; ++i) store.Insert(2000 + i, flat, 5000 + i);
  // One 400-fact hub inside an otherwise thin predicate.
  for (TermId j = 0; j < 400; ++j) store.Insert(3000, skewed, 6000 + j);
  for (TermId i = 0; i < 100; ++i) store.Insert(4000 + i, skewed, 7000 + i);

  const double flat_fanout = store.HistogramFor(flat).subjects.ExpectedFanout();
  EXPECT_NEAR(flat_fanout, 1.0, 0.01);
  // Frequency-weighted: 400/500 of the mass has fan-out 400.
  const double hub_fanout =
      store.HistogramFor(skewed).subjects.ExpectedFanout();
  EXPECT_GT(hub_fanout, 100.0);
}

}  // namespace
}  // namespace sofya
