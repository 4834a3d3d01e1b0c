// The join-order planner: cost-model ordering, the EXPLAIN surface, the
// engine's epoch-keyed plan cache, and the two invariants the rest of the
// system leans on —
//
//   1. parity: the DP planner and the greedy planner produce the same
//      result *sets* (bags) for any query, on randomized corpora;
//   2. pagination determinism: under a fixed plan, LIMIT/OFFSET walks are
//      disjoint, exhaustive, and identical to the unwindowed enumeration —
//      across pages, engine instances, and plan-cache states.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "rdf/knowledge_base.h"
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

/// Fixture with one fat predicate and one thin one over shared subjects.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hot_ = dict_.InternIri("hot");
    cold_ = dict_.InternIri("cold");
    for (TermId s = 100; s < 200; ++s) {
      store_.Insert(s, hot_, 1000 + (s % 7));
    }
    store_.Insert(100, cold_, 2000);
    store_.Insert(120, cold_, 2001);
  }

  /// ?x hot ?y . ?x cold ?z — fat clause listed first (adversarial order).
  SelectQuery FatFirstJoin() {
    SelectQuery q;
    const VarId x = q.NewVar("x");
    const VarId y = q.NewVar("y");
    const VarId z = q.NewVar("z");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(hot_),
            NodeRef::Variable(y));
    q.Where(NodeRef::Variable(x), NodeRef::Constant(cold_),
            NodeRef::Variable(z));
    return q;
  }

  Dictionary dict_;
  TripleStore store_;
  TermId hot_, cold_;
};

TEST_F(PlannerTest, StatsPlannerPutsSelectiveClauseFirst) {
  const SelectQuery q = FatFirstJoin();
  const CompiledPlan plan = CompilePlan(q, store_);
  ASSERT_EQ(plan.clauses.size(), 2u);
  EXPECT_TRUE(plan.used_dp);
  EXPECT_EQ(plan.clauses[0].source_index, 1u);  // cold (2 facts) first.
  EXPECT_EQ(plan.clauses[1].source_index, 0u);
  // First clause estimates its predicate cardinality; the second is scanned
  // with ?x bound, so the estimate divides by distinct subjects.
  EXPECT_DOUBLE_EQ(plan.clauses[0].estimated_rows, 2.0);
  EXPECT_NEAR(plan.clauses[1].estimated_rows, 1.0, 0.01);
}

TEST_F(PlannerTest, AbsentPredicateShortCircuitsToFront) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(hot_),
          NodeRef::Variable(y));
  q.Where(NodeRef::Variable(x), NodeRef::Constant(dict_.InternIri("absent")),
          NodeRef::Variable(z));
  const CompiledPlan plan = CompilePlan(q, store_);
  ASSERT_EQ(plan.clauses.size(), 2u);
  // The provably-empty clause runs first: the pipeline drains on its first
  // probe without ever scanning the 100-fact clause.
  EXPECT_EQ(plan.clauses[0].source_index, 1u);
  EXPECT_DOUBLE_EQ(plan.clauses[0].estimated_rows, 0.0);

  EvalStats stats;
  auto result = Evaluate(store_, q, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(stats.triples_scanned, 0u);
}

TEST_F(PlannerTest, CrossProductDeferredBehindConnectedClauses) {
  const TermId mid = dict_.InternIri("mid");
  for (TermId s = 100; s < 110; ++s) store_.Insert(s, mid, 3000);
  SelectQuery q;
  const VarId a = q.NewVar("a");
  const VarId b = q.NewVar("b");
  const VarId c = q.NewVar("c");
  const VarId d = q.NewVar("d");
  q.Where(NodeRef::Variable(a), NodeRef::Constant(hot_),
          NodeRef::Variable(b));
  q.Where(NodeRef::Variable(a), NodeRef::Constant(mid),
          NodeRef::Variable(d));
  q.Where(NodeRef::Variable(c), NodeRef::Constant(cold_),
          NodeRef::Variable(d));
  // The connectivity *tier* is the greedy planner's mechanism (DP prices
  // cross products through cardinality instead and may prefer a different
  // connected order; parity is covered by the v2 planner tests).
  PlannerOptions greedy;
  greedy.use_dp = false;
  const CompiledPlan plan = CompilePlan(q, store_, greedy);
  ASSERT_EQ(plan.clauses.size(), 3u);
  // cold (2 facts, cheapest) opens and binds {c, d}. Of the rest, mid
  // shares ?d (a join) while hot shares nothing (a cross product): mid must
  // run second even though hot is listed first — connected clauses outrank
  // disconnected ones regardless of estimate.
  EXPECT_EQ(plan.clauses[0].source_index, 2u);
  EXPECT_EQ(plan.clauses[1].source_index, 1u);
  EXPECT_EQ(plan.clauses[2].source_index, 0u);
  EXPECT_FALSE(plan.used_dp);
}

TEST_F(PlannerTest, ExplainReportsOrderEstimatesAndFilters) {
  SelectQuery q = FatFirstJoin();
  q.Filter(FilterExpr::VarNeqVar(1, 2));  // ?y != ?z
  Engine engine(&store_, &dict_);
  auto explain = engine.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->used_dp);
  EXPECT_FALSE(explain->from_cache);
  ASSERT_EQ(explain->clauses.size(), 2u);
  EXPECT_EQ(explain->clauses[0].source_index, 1u);
  EXPECT_NE(explain->clauses[0].pattern.find("<cold>"), std::string::npos);
  // The filter needs both ?y and ?z: it attaches to the *last* stage.
  EXPECT_TRUE(explain->clauses[0].filters.empty());
  ASSERT_EQ(explain->clauses[1].filters.size(), 1u);
  EXPECT_EQ(explain->clauses[1].filters[0], "?y != ?z");
  const std::string text = explain->ToString();
  EXPECT_NE(text.find("statistics planner"), std::string::npos);
  EXPECT_NE(text.find("est_rows"), std::string::npos);
  EXPECT_NE(text.find("FILTER(?y != ?z)"), std::string::npos);
}

TEST_F(PlannerTest, PlanCacheHitsAcrossModifiersAndInvalidatesOnWrite) {
  Engine engine(&store_, &dict_);
  SelectQuery q = FatFirstJoin();
  EvalStats stats;
  ASSERT_TRUE(engine.Select(q, &stats).ok());
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);

  // Same shape, different solution modifiers: one plan serves the walk.
  SelectQuery page = FatFirstJoin();
  page.Offset(1).Limit(1);
  ASSERT_TRUE(engine.Select(page, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  ASSERT_TRUE(engine.Ask(q, &stats).ok());
  EXPECT_EQ(stats.plan_cache_hits, 1u);
  EXPECT_EQ(engine.plan_cache_hits(), 2u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);

  // A write bumps the store epoch: the cached plan is stale, and the next
  // query replans against fresh statistics.
  store_.Insert(999, cold_, 999);
  ASSERT_TRUE(engine.Select(q, &stats).ok());
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(engine.plan_cache_misses(), 2u);
}

// Regression: the plan-cache key uses *raw* variable numbering. Two
// queries that are alpha-renumbered twins (canonically fingerprint-equal,
// e.g. a query and its ToSparql → parse round trip) hold plans whose raw
// VarIds differ; sharing one cache entry would bind columns to the wrong
// names. They must get separate entries and each return its own labeling.
TEST_F(PlannerTest, PlanCacheCannotServeAlphaRenumberedTwin) {
  Engine engine(&store_, &dict_);

  // Twin A: declaration order x, y — projection {y, x}.
  SelectQuery a;
  const VarId ax = a.NewVar("x");
  const VarId ay = a.NewVar("y");
  a.Where(NodeRef::Variable(ax), NodeRef::Constant(cold_),
          NodeRef::Variable(ay));
  a.Select({ay, ax});

  // Twin B: same query, declaration order y, x (parser-style numbering).
  SelectQuery b;
  const VarId by = b.NewVar("y");
  const VarId bx = b.NewVar("x");
  b.Where(NodeRef::Variable(bx), NodeRef::Constant(cold_),
          NodeRef::Variable(by));
  b.Select({by, bx});

  ASSERT_EQ(a.Fingerprint(), b.Fingerprint());  // Canonically equal...
  EXPECT_NE(a.PlanFingerprint(), b.PlanFingerprint());  // ...raw distinct.

  auto via_a = engine.Select(a);
  auto via_b = engine.Select(b);  // Must not reuse A's raw-id plan.
  ASSERT_TRUE(via_a.ok());
  ASSERT_TRUE(via_b.ok());
  EXPECT_EQ(via_a->var_names, (std::vector<std::string>{"y", "x"}));
  EXPECT_EQ(via_a->var_names, via_b->var_names);
  EXPECT_EQ(via_a->rows, via_b->rows);

  // And against a fresh engine (no cache interference at all).
  Engine fresh(&store_, &dict_);
  auto clean = fresh.Select(b);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(via_b->rows, clean->rows);
}

TEST_F(PlannerTest, ExplainMatchesExecutedPlanAndReportsCacheState) {
  Engine engine(&store_, &dict_);
  const SelectQuery q = FatFirstJoin();
  auto before = engine.Explain(q);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->from_cache);
  ASSERT_TRUE(engine.Select(q).ok());
  auto after = engine.Explain(q);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->from_cache);
  // EXPLAIN is a diagnostic: it never charges the hit/miss counters.
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized corpora: parity and pagination.

/// Builds a random store with predictable skew: a handful of predicates
/// whose cardinalities span three orders of magnitude.
TripleStore RandomStore(Rng& rng, size_t scale) {
  TripleStore store;
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

/// A random query over the RandomStore vocabulary: 1–4 clauses over a pool
/// of 4 variables, constants drawn from the data ranges, an occasional
/// filter and DISTINCT.
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

class PlannerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerProperty, DpAndGreedyPlannersAgreeOnResultSets) {
  Rng rng(GetParam());
  PlannerOptions greedy;
  greedy.use_dp = false;
  for (int round = 0; round < 30; ++round) {
    TripleStore store = RandomStore(rng, 1 + rng.Below(20));
    const SelectQuery q = RandomQuery(rng);
    auto with_dp = Evaluate(store, q);
    auto with_greedy = Evaluate(store, q, nullptr, nullptr, greedy);
    ASSERT_TRUE(with_dp.ok());
    ASSERT_TRUE(with_greedy.ok());
    EXPECT_EQ(AsBag(with_dp->rows), AsBag(with_greedy->rows))
        << "seed=" << GetParam() << " round=" << round;
  }
}

TEST_P(PlannerProperty, PagedWalkMatchesFullEnumerationUnderFixedPlan) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 15; ++round) {
    TripleStore store = RandomStore(rng, 1 + rng.Below(10));
    SelectQuery q = RandomQuery(rng);
    q.Distinct(false);  // Windowed DISTINCT is covered by streaming tests.
    Engine engine(&store);

    auto full = engine.Select(q);
    ASSERT_TRUE(full.ok());

    // Walk pages through the same engine (cached plan) *and* through a
    // fresh engine per page (no shared cache): the plan is a pure function
    // of (query, epoch), so both walks must reassemble the full result.
    std::vector<Row> cached_walk, fresh_walk;
    const uint64_t page_size = 1 + rng.Below(3);
    for (uint64_t off = 0;; off += page_size) {
      SelectQuery page = q;
      page.Offset(off).Limit(page_size);
      auto via_cached = engine.Select(page);
      Engine fresh(&store);
      auto via_fresh = fresh.Select(page);
      ASSERT_TRUE(via_cached.ok());
      ASSERT_TRUE(via_fresh.ok());
      cached_walk.insert(cached_walk.end(), via_cached->rows.begin(),
                         via_cached->rows.end());
      fresh_walk.insert(fresh_walk.end(), via_fresh->rows.begin(),
                        via_fresh->rows.end());
      if (via_cached->rows.size() < page_size) break;
      ASSERT_LT(off, 10000u) << "runaway walk";
    }
    EXPECT_EQ(cached_walk, full->rows) << "seed=" << GetParam();
    EXPECT_EQ(fresh_walk, full->rows) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Values(7ULL, 23ULL, 99ULL, 1234ULL));

// ---------------------------------------------------------------------------
// The endpoint-level surface.

TEST(LocalEndpointPlannerTest, ExplainAndPlannerOptionThrough) {
  KnowledgeBase kb("kb", "http://kb.org/");
  for (int i = 0; i < 40; ++i) {
    kb.AddFact("s" + std::to_string(i), "big", "o" + std::to_string(i));
  }
  kb.AddFact("s0", "small", "x");

  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  q.Where(NodeRef::Variable(x),
          NodeRef::Constant(kb.dict().LookupIri("http://kb.org/big")),
          NodeRef::Variable(y));
  q.Where(NodeRef::Variable(x),
          NodeRef::Constant(kb.dict().LookupIri("http://kb.org/small")),
          NodeRef::Variable(z));

  LocalEndpoint with_dp(&kb);
  auto explain = with_dp.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->used_dp);
  EXPECT_EQ(explain->clauses[0].source_index, 1u);

  LocalEndpointOptions options;
  options.engine.planner.use_dp = false;
  LocalEndpoint greedy(&kb, options);
  auto greedy_explain = greedy.Explain(q);
  ASSERT_TRUE(greedy_explain.ok());
  EXPECT_FALSE(greedy_explain->used_dp);
  EXPECT_EQ(greedy_explain->clauses[0].source_index, 1u);

  // Same answers either way.
  auto a = with_dp.Select(q);
  auto b = greedy.Select(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(AsBag(a->rows), AsBag(b->rows));
}

}  // namespace
}  // namespace sofya
