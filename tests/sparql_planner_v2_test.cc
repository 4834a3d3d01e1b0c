// Planner v2: the Selinger-style dynamic-programming join orderer and its
// cardinality inputs (exact constant-prefix probes, equi-depth histograms).
//
// What this file pins:
//
//   1. the DP planner finds the globally cheaper order where a myopic
//      min-next-step choice walks into hubs (the motivating trap), and
//      falls back to the greedy pass above kDpMaxClauses;
//   2. exact-probe estimates: a constant-prefix clause's estimated_rows is
//      the store's true match count, not a facts/distinct approximation;
//   3. histograms are epoch-memoized exactly like StatsFor: repeated reads
//      are free, a write to the predicate's shard invalidates, an untouched
//      promoted predicate keeps its memo.
//
// Result correctness across shard geometries is checked against a
// nested-loop reference in sparql_planner_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rdf/triple_store.h"
#include "sparql/engine.h"
#include "sparql/planner.h"
#include "sparql/query.h"

namespace sofya {
namespace {

using Row = std::vector<TermId>;

// ---------------------------------------------------------------------------
// The greedy trap: a chain where the smallest-base clause is the worst
// starting point.
//
//   ?a pX ?b . ?b pF ?c . ?c pY ?d
//
// pX has only 2 facts, but both its objects are mega-hubs in pF (~400 facts
// each), so starting there explodes the intermediate. pY has 5 facts and is
// maximally selective driven backwards through pF's distinct objects. A
// greedy min-next-step order starts at pX (smallest base estimate) and is
// then forced through the hubs; the DP planner prices the whole chain and
// starts at pY.
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
}

TEST_F(GreedyTrapTest, DpPlanNeverWalksTheHubs) {
  EvalStats stats;
  auto result = Evaluate(store_, Chain(), &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0], (Row{100, 200, 300, 900}));
  // Starting at pX walks both 400-fact hubs (800+ entries); DP probes
  // backwards from the 5 pY facts.
  EXPECT_LT(stats.triples_scanned * 10, 800u);
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

TEST(HistogramMemoTest, NotServedStaleAcrossPromotion) {
  // Promotion moves a predicate from its hash shard (epoch 4 after four
  // inserts) into a fresh sub-shard group whose epoch sum starts low again:
  // three more inserts bring that sum back to 4. Keyed on the epoch alone,
  // the memo served the 4-row histogram built before the promotion.
  StoreOptions options;
  options.promote_threshold = 4;
  options.split_factor = 2;
  TripleStore store(options);
  const TermId p = 10;
  for (TermId i = 0; i < 4; ++i) store.Insert(100 + i, p, 200 + i);
  EXPECT_EQ(store.HistogramFor(p).subjects.total_rows(), 4u);
  for (TermId i = 4; i < 7; ++i) store.Insert(100 + i, p, 200 + i);
  ASSERT_EQ(store.PromotedPredicates(), (std::vector<TermId>{p}));
  ASSERT_EQ(store.StatsFor(p).facts, 7u);
  const PredicateHistograms after = store.HistogramFor(p);
  EXPECT_EQ(after.subjects.total_rows(), 7u);
  EXPECT_EQ(after.objects.total_rows(), 7u);
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
