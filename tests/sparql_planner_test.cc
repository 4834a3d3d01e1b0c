// The join-order planner: cost-model ordering, the EXPLAIN surface, the
// engine's epoch-keyed plan cache, and the two invariants the rest of the
// system leans on —
//
//   1. correctness: whatever order the planner picks, the engine's result
//      bag equals a nested-loop reference evaluation, on randomized corpora
//      across shard geometries;
//   2. pagination determinism: under a fixed plan, LIMIT/OFFSET walks are
//      disjoint, exhaustive, and identical to the unwindowed enumeration —
//      across pages, engine instances, and plan-cache states.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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
  // The connectivity *tier* is the greedy fallback's mechanism (DP prices
  // cross products through cardinality instead), so repeats of the hot
  // clause pad the query past kDpMaxClauses. They are cross products until
  // ?a is bound, and then tie with the hot clause, which the first index
  // wins.
  while (q.clauses().size() <= kDpMaxClauses) {
    q.Where(NodeRef::Variable(a), NodeRef::Constant(hot_),
            NodeRef::Variable(b));
  }
  const CompiledPlan plan = CompilePlan(q, store_);
  EXPECT_FALSE(plan.used_dp);
  ASSERT_EQ(plan.clauses.size(), kDpMaxClauses + 1);
  // cold (2 facts, cheapest) opens and binds {c, d}. Of the rest, mid
  // shares ?d (a join) while hot shares nothing (a cross product): mid must
  // run second even though hot is listed first — connected clauses outrank
  // disconnected ones regardless of estimate.
  EXPECT_EQ(plan.clauses[0].source_index, 2u);
  EXPECT_EQ(plan.clauses[1].source_index, 1u);
  EXPECT_EQ(plan.clauses[2].source_index, 0u);
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

// A one-clause query has one order, so the engine builds its plan from the
// clause's bound positions: the plan cache neither serves nor counts it,
// and EvalStats still carries the clause's actual rows.
TEST_F(PlannerTest, OneClauseQueriesBypassThePlanCache) {
  Engine engine(&store_, &dict_);
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(hot_), NodeRef::Variable(y));

  EvalStats stats;
  auto rows = engine.Select(q, &stats);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 100u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
  ASSERT_EQ(stats.clause_rows.size(), 1u);
  EXPECT_EQ(stats.clause_rows[0].source_index, 0u);
  EXPECT_EQ(stats.clause_rows[0].actual_rows, 100u);

  EvalStats ask_stats;
  auto found = engine.Ask(q, &ask_stats);
  ASSERT_TRUE(found.ok());
  EXPECT_TRUE(*found);
  EXPECT_EQ(ask_stats.plan_cache_hits, 0u);
  EXPECT_EQ(ask_stats.plan_cache_misses, 0u);
  ASSERT_EQ(ask_stats.clause_rows.size(), 1u);
  EXPECT_EQ(ask_stats.clause_rows[0].actual_rows, 1u);  // Stops at the first.
  ASSERT_TRUE(engine.Select(q).ok());
  EXPECT_EQ(engine.plan_cache_hits(), 0u);
  EXPECT_EQ(engine.plan_cache_misses(), 0u);

  // The free helpers take the same path and return the same rows.
  auto fresh = Evaluate(store_, q);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows, rows->rows);
  EXPECT_TRUE(EvaluateAsk(store_, q).value());

  // EXPLAIN still plans it with estimates.
  auto explain = engine.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->used_dp);
  ASSERT_EQ(explain->clauses.size(), 1u);
  EXPECT_DOUBLE_EQ(explain->clauses[0].estimated_rows, 100.0);

  // The predicate inventory keeps its directory access, uncounted.
  SelectQuery inventory;
  const VarId s = inventory.NewVar("s");
  const VarId p = inventory.NewVar("p");
  const VarId o = inventory.NewVar("o");
  inventory.Where(NodeRef::Variable(s), NodeRef::Variable(p),
                  NodeRef::Variable(o));
  inventory.Select({p}).Distinct();
  EvalStats dir_stats;
  auto predicates = engine.Select(inventory, &dir_stats);
  ASSERT_TRUE(predicates.ok());
  EXPECT_EQ(predicates->rows, (std::vector<Row>{{hot_}, {cold_}}));
  EXPECT_EQ(dir_stats.triples_scanned, 0u);
  EXPECT_EQ(dir_stats.index_probes, 1u);
  EXPECT_EQ(dir_stats.plan_cache_hits + dir_stats.plan_cache_misses, 0u);

  // A two-clause query still goes through the cache.
  ASSERT_TRUE(engine.Select(FatFirstJoin()).ok());
  EXPECT_EQ(engine.plan_cache_misses(), 1u);
}

TEST_F(PlannerTest, OneClausePagesConcatenateToUnpagedResult) {
  Engine engine(&store_, &dict_);
  auto walk = [&](bool distinct, bool object_only) {
    auto query = [&](uint64_t limit, uint64_t offset) {
      SelectQuery q;
      const VarId x = q.NewVar("x");
      const VarId y = q.NewVar("y");
      q.Where(NodeRef::Variable(x), NodeRef::Constant(hot_),
              NodeRef::Variable(y));
      if (object_only) q.Select({y});
      if (distinct) q.Distinct();
      q.Limit(limit).Offset(offset);
      return q;
    };
    auto all = engine.Select(query(kNoLimit, 0));
    ASSERT_TRUE(all.ok());
    ASSERT_FALSE(all->rows.empty());
    for (uint64_t limit : {1, 3, 7, 64}) {
      std::vector<Row> pages;
      for (uint64_t offset = 0; offset <= all->rows.size(); offset += limit) {
        auto page = engine.Select(query(limit, offset));
        ASSERT_TRUE(page.ok());
        pages.insert(pages.end(), page->rows.begin(), page->rows.end());
      }
      EXPECT_EQ(pages, all->rows) << "limit " << limit;
    }
  };
  walk(/*distinct=*/false, /*object_only=*/false);
  walk(/*distinct=*/true, /*object_only=*/true);
  EXPECT_EQ(engine.plan_cache_misses(), 0u);
}

// ---------------------------------------------------------------------------
// Randomized corpora: parity and pagination.

/// Builds a random store with predictable skew: a handful of predicates
/// whose cardinalities span three orders of magnitude.
TripleStore RandomStore(Rng& rng, size_t scale,
                        const StoreOptions& options = {}) {
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

/// The reference the planned engine is checked against: a nested loop over
/// the clauses in query order, each one a TripleStore::ForEachMatch scan
/// with its constants and already-bound variables fixed, then the filters,
/// the projection (all variables when none is given; an unbound one reads
/// kNullTermId) and DISTINCT. Handles the variable and term comparison
/// filters; a filter on an unbound variable rejects the row.
std::multiset<Row> NestedLoopRows(const TripleStore& store,
                                  const SelectQuery& q) {
  auto passes = [](const FilterExpr& f, const Row& row) {
    const TermId lhs = row[f.lhs];
    if (lhs == kNullTermId) return false;
    switch (f.kind) {
      case FilterExpr::Kind::kVarEqVar:
        return row[f.rhs_var] != kNullTermId && lhs == row[f.rhs_var];
      case FilterExpr::Kind::kVarNeqVar:
        return row[f.rhs_var] != kNullTermId && lhs != row[f.rhs_var];
      case FilterExpr::Kind::kVarEqTerm:
        return lhs == f.rhs_term;
      case FilterExpr::Kind::kVarNeqTerm:
        return lhs != f.rhs_term;
      default:
        ADD_FAILURE() << "NestedLoopRows: unsupported filter kind";
        return false;
    }
  };
  std::multiset<Row> out;
  std::set<Row> distinct;
  Row binding(q.num_vars(), kNullTermId);
  std::function<void(size_t)> join = [&](size_t k) {
    if (k == q.clauses().size()) {
      for (const FilterExpr& f : q.filters()) {
        if (!passes(f, binding)) return;
      }
      Row row;
      for (VarId v : q.projection()) row.push_back(binding[v]);
      if (q.projection().empty()) row = binding;
      if (!q.distinct() || distinct.insert(row).second) out.insert(row);
      return;
    }
    const PatternClause& c = q.clauses()[k];
    const NodeRef* refs[3] = {&c.subject, &c.predicate, &c.object};
    TermId fixed[3];
    for (int i = 0; i < 3; ++i) {
      fixed[i] = refs[i]->is_var() ? binding[refs[i]->var()] : refs[i]->term();
    }
    const Row outer = binding;
    store.ForEachMatch(
        TriplePattern(fixed[0], fixed[1], fixed[2]), [&](const Triple& t) {
          const TermId values[3] = {t.subject, t.predicate, t.object};
          binding = outer;
          for (int i = 0; i < 3; ++i) {
            if (!refs[i]->is_var()) continue;
            TermId& slot = binding[refs[i]->var()];
            if (slot == kNullTermId) {
              slot = values[i];
            } else if (slot != values[i]) {
              return true;  // A repeated variable disagrees.
            }
          }
          join(k + 1);
          return true;
        });
    binding = outer;
  };
  join(0);
  return out;
}

/// Shard geometry: the hash-ring size.
class PlannerReference : public ::testing::TestWithParam<size_t> {};

TEST_P(PlannerReference, EngineMatchesNestedLoopAcrossShardGeometries) {
  const size_t ring = GetParam();
  const StoreOptions geometry{/*num_hash_shards=*/ring};
  for (const uint64_t seed : {7ULL, 23ULL, 99ULL, 1234ULL}) {
    Rng rng(seed);
    for (int round = 0; round < 10; ++round) {
      TripleStore store = RandomStore(rng, 1 + rng.Below(20), geometry);
      const SelectQuery q = RandomQuery(rng);
      auto result = Evaluate(store, q);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(AsBag(result->rows), NestedLoopRows(store, q))
          << "seed=" << seed << " ring=" << ring << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, PlannerReference,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{8}));

class PlannerProperty : public ::testing::TestWithParam<uint64_t> {};

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

TEST(LocalEndpointPlannerTest, ExplainThroughTheEndpoint) {
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

  LocalEndpoint endpoint(&kb);
  auto explain = endpoint.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_TRUE(explain->used_dp);
  EXPECT_EQ(explain->clauses[0].source_index, 1u);
}

}  // namespace
}  // namespace sofya
