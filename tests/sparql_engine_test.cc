#include "sparql/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/store_snapshot.h"
#include "sparql/query.h"
#include "util/random.h"

namespace sofya {
namespace {

/// Tiny fixture KB:
///   a knows b ; a knows c ; b knows c ; a age "30" ; b age "30"
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = dict_.InternIri("a");
    b_ = dict_.InternIri("b");
    c_ = dict_.InternIri("c");
    knows_ = dict_.InternIri("knows");
    age_ = dict_.InternIri("age");
    thirty_ = dict_.InternLiteral("30");
    store_.Insert(a_, knows_, b_);
    store_.Insert(a_, knows_, c_);
    store_.Insert(b_, knows_, c_);
    store_.Insert(a_, age_, thirty_);
    store_.Insert(b_, age_, thirty_);
  }

  Dictionary dict_;
  TripleStore store_;
  TermId a_, b_, c_, knows_, age_, thirty_;
};

TEST_F(EngineTest, SinglePatternAllVariables) {
  SelectQuery q;
  const VarId s = q.NewVar("s");
  const VarId p = q.NewVar("p");
  const VarId o = q.NewVar("o");
  q.Where(NodeRef::Variable(s), NodeRef::Variable(p), NodeRef::Variable(o));
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 5u);
  EXPECT_EQ(result->var_names,
            (std::vector<std::string>{"s", "p", "o"}));
}

TEST_F(EngineTest, BoundPredicate) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 3u);
}

TEST_F(EngineTest, TwoClauseJoin) {
  // ?x knows ?y . ?y knows ?z  => (a,b,c) only.
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Where(NodeRef::Variable(y), NodeRef::Constant(knows_),
          NodeRef::Variable(z));
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0], (std::vector<TermId>{a_, b_, c_}));
}

TEST_F(EngineTest, RepeatedVariableWithinClause) {
  // ?x knows ?x — nobody knows themselves here.
  SelectQuery q;
  const VarId x = q.NewVar("x");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(x));
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(EngineTest, FilterNeqVar) {
  // Subjects with two *different* known entities: only a (b,c).
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y1 = q.NewVar("y1");
  const VarId y2 = q.NewVar("y2");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y1));
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y2));
  q.Filter(FilterExpr::VarNeqVar(y1, y2));
  q.Select({x}).Distinct();
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], a_);
}

TEST_F(EngineTest, FilterEqAndNeqTerm) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Filter(FilterExpr::VarNeqTerm(y, c_));
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // Only a knows b.
  EXPECT_EQ(result->rows[0][1], b_);

  SelectQuery q2;
  const VarId x2 = q2.NewVar("x");
  const VarId y2 = q2.NewVar("y");
  q2.Where(NodeRef::Variable(x2), NodeRef::Constant(knows_),
           NodeRef::Variable(y2));
  q2.Filter(FilterExpr::VarEqTerm(y2, c_));
  auto result2 = Evaluate(store_, q2);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->rows.size(), 2u);
}

TEST_F(EngineTest, IsIriAndIsLiteralFilters) {
  SelectQuery q;
  const VarId p = q.NewVar("p");
  const VarId o = q.NewVar("o");
  q.Where(NodeRef::Constant(a_), NodeRef::Variable(p), NodeRef::Variable(o));
  q.Filter(FilterExpr::IsLiteral(o));
  auto result = Evaluate(store_, q, nullptr, &dict_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][1], thirty_);

  SelectQuery q2;
  const VarId p2 = q2.NewVar("p");
  const VarId o2 = q2.NewVar("o");
  q2.Where(NodeRef::Constant(a_), NodeRef::Variable(p2),
           NodeRef::Variable(o2));
  q2.Filter(FilterExpr::IsIri(o2));
  auto result2 = Evaluate(store_, q2, nullptr, &dict_);
  ASSERT_TRUE(result2.ok());
  EXPECT_EQ(result2->rows.size(), 2u);
}

TEST_F(EngineTest, DistinctProjectionCollapses) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Select({x}).Distinct();
  auto result = Evaluate(store_, q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 2u);  // a and b.
}

TEST_F(EngineTest, LimitAndOffset) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Limit(2);
  auto page1 = Evaluate(store_, q);
  ASSERT_TRUE(page1.ok());
  EXPECT_EQ(page1->rows.size(), 2u);

  q.Offset(2);
  auto page2 = Evaluate(store_, q);
  ASSERT_TRUE(page2.ok());
  EXPECT_EQ(page2->rows.size(), 1u);

  q.Offset(10);
  auto page3 = Evaluate(store_, q);
  ASSERT_TRUE(page3.ok());
  EXPECT_TRUE(page3->rows.empty());
}

TEST_F(EngineTest, PaginationIsDeterministicAndDisjoint) {
  SelectQuery all;
  {
    const VarId x = all.NewVar("x");
    const VarId y = all.NewVar("y");
    all.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
              NodeRef::Variable(y));
  }
  auto full = Evaluate(store_, all);
  ASSERT_TRUE(full.ok());

  std::vector<std::vector<TermId>> paged;
  for (uint64_t off = 0; off < 3; ++off) {
    SelectQuery page = all;
    page.Offset(off).Limit(1);
    auto r = Evaluate(store_, page);
    ASSERT_TRUE(r.ok());
    for (auto& row : r->rows) paged.push_back(row);
  }
  EXPECT_EQ(paged, full->rows);
}

TEST_F(EngineTest, ValidationErrors) {
  SelectQuery empty;
  EXPECT_TRUE(Evaluate(store_, empty).status().IsInvalidArgument());

  SelectQuery bad_var;
  bad_var.Where(NodeRef::Variable(3), NodeRef::Constant(knows_),
                NodeRef::Variable(4));
  EXPECT_TRUE(Evaluate(store_, bad_var).status().IsInvalidArgument());
}

TEST_F(EngineTest, StatsReported) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  EvalStats stats;
  ASSERT_TRUE(Evaluate(store_, q, &stats).ok());
  EXPECT_EQ(stats.result_rows, 3u);
  EXPECT_GE(stats.index_probes, 1u);
  EXPECT_GE(stats.intermediate_rows, 3u);
}

TEST_F(EngineTest, ClauseRowsDescribeTheExecutedPlan) {
  // ?x knows ?y . ?y knows ?z . ?x age ?n  => (a, b, c, "30") only.
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  const VarId n = q.NewVar("n");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Variable(y));
  q.Where(NodeRef::Variable(y), NodeRef::Constant(knows_),
          NodeRef::Variable(z));
  q.Where(NodeRef::Variable(x), NodeRef::Constant(age_), NodeRef::Variable(n));
  Engine engine(&store_, &dict_);
  EvalStats stats;
  auto result = engine.Select(q, &stats);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);

  // One entry per pipeline stage, in the planned order EXPLAIN shows, with
  // the planner's estimates alongside the observed rows.
  auto explain = engine.Explain(q);
  ASSERT_TRUE(explain.ok());
  ASSERT_EQ(stats.clause_rows.size(), 3u);
  ASSERT_EQ(explain->clauses.size(), 3u);
  std::set<size_t> sources;
  for (size_t k = 0; k < 3; ++k) {
    const ClauseRowStats& stage = stats.clause_rows[k];
    sources.insert(stage.source_index);
    EXPECT_EQ(stage.source_index, explain->clauses[k].source_index);
    EXPECT_EQ(stage.estimated_rows, explain->clauses[k].estimated_rows);
    EXPECT_GE(stage.estimated_output_rows, 0.0);
    EXPECT_GT(stage.actual_rows, 0u);
  }
  EXPECT_EQ(sources, (std::set<size_t>{0, 1, 2}));
  // The last stage's observed output is the result cardinality.
  EXPECT_EQ(stats.clause_rows.back().actual_rows, result->rows.size());
}

TEST_F(EngineTest, ToSparqlRendersReadably) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(knows_),
          NodeRef::Constant(c_));
  q.Select({x}).Distinct().Limit(5);
  const std::string text = q.ToSparql(dict_);
  EXPECT_NE(text.find("SELECT DISTINCT ?x"), std::string::npos);
  EXPECT_NE(text.find("<knows>"), std::string::npos);
  EXPECT_NE(text.find("LIMIT 5"), std::string::npos);
}

// Property: two-clause joins agree with brute-force nested loops on random
// stores.
class EngineJoinProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineJoinProperty, JoinAgreesWithBruteForce) {
  Rng rng(GetParam());
  TripleStore store;
  std::vector<Triple> all;
  const TermId p1 = 100, p2 = 101;
  for (int i = 0; i < 200; ++i) {
    Triple t(static_cast<TermId>(1 + rng.Below(10)),
             rng.Bernoulli(0.5) ? p1 : p2,
             static_cast<TermId>(1 + rng.Below(10)));
    if (store.Insert(t)) all.push_back(t);
  }

  // ?x p1 ?y . ?y p2 ?z
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  const VarId z = q.NewVar("z");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(p1), NodeRef::Variable(y));
  q.Where(NodeRef::Variable(y), NodeRef::Constant(p2), NodeRef::Variable(z));
  auto result = Evaluate(store, q);
  ASSERT_TRUE(result.ok());

  std::multiset<std::vector<TermId>> got(result->rows.begin(),
                                         result->rows.end());
  std::multiset<std::vector<TermId>> expected;
  for (const Triple& t1 : all) {
    if (t1.predicate != p1) continue;
    for (const Triple& t2 : all) {
      if (t2.predicate != p2 || t2.subject != t1.object) continue;
      expected.insert({t1.subject, t1.object, t2.object});
    }
  }
  EXPECT_EQ(got, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineJoinProperty,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 11ULL));

// Property: a VALUES query equals the concatenation, in block order, of the
// queries its rows stand for — each row's constants written into the
// clauses and filters by hand — with DISTINCT, OFFSET and LIMIT applied to
// the whole. Covers a one-clause and a two-clause shape, a filter naming a
// VALUES variable and another variable, and one over a VALUES variable
// alone (which drops rows before any scan).
class ValuesProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ValuesProperty, EqualsConcatenationOfSubstitutedRows) {
  Rng rng(GetParam());
  TripleStore store;
  const TermId p1 = 100, p2 = 101;
  for (int i = 0; i < 150; ++i) {
    store.Insert(Triple(static_cast<TermId>(1 + rng.Below(8)),
                        rng.Bernoulli(0.5) ? p1 : p2,
                        static_cast<TermId>(1 + rng.Below(8))));
  }
  Engine engine(&store);

  for (int round = 0; round < 40; ++round) {
    const bool two_clauses = rng.Bernoulli(0.5);
    const bool neq_filter = rng.Bernoulli(0.5);     // ?y != ?x
    const bool values_filter = rng.Bernoulli(0.5);  // ?x != <3>
    const TermId excluded = 3;

    // VALUES (?x ?z) over `?x p1 ?y [. ?y p2 ?z]`; one clause leaves ?z
    // bound only by VALUES (it is projected from the row).
    SelectQuery q;
    const VarId x = q.NewVar("x");
    const VarId y = q.NewVar("y");
    const VarId z = q.NewVar("z");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(p1),
            NodeRef::Variable(y));
    if (two_clauses) {
      q.Where(NodeRef::Variable(y), NodeRef::Constant(p2),
              NodeRef::Variable(z));
    }
    if (neq_filter) q.Filter(FilterExpr::VarNeqVar(y, x));
    if (values_filter) q.Filter(FilterExpr::VarNeqTerm(x, excluded));
    std::vector<TermId> cells;
    const size_t rows = rng.Below(6);
    for (size_t r = 0; r < rows; ++r) {
      cells.push_back(static_cast<TermId>(1 + rng.Below(8)));
      cells.push_back(static_cast<TermId>(1 + rng.Below(8)));
    }
    q.Values({x, z}, cells).Select({x, z, y});
    const bool distinct = rng.Bernoulli(0.5);
    const uint64_t limit = rng.Bernoulli(0.3) ? kNoLimit : rng.Below(12);
    const uint64_t offset = rng.Below(5);
    q.Distinct(distinct).Limit(limit).Offset(offset);

    std::vector<std::vector<TermId>> expected;
    std::set<std::vector<TermId>> seen;
    uint64_t skipped = 0;
    for (size_t r = 0; r < rows; ++r) {
      const TermId xv = cells[2 * r], zv = cells[2 * r + 1];
      if (values_filter && xv == excluded) continue;
      SelectQuery row_query;
      const VarId ry = row_query.NewVar("y");
      row_query.Where(NodeRef::Constant(xv), NodeRef::Constant(p1),
                      NodeRef::Variable(ry));
      if (two_clauses) {
        row_query.Where(NodeRef::Variable(ry), NodeRef::Constant(p2),
                        NodeRef::Constant(zv));
      }
      if (neq_filter) row_query.Filter(FilterExpr::VarNeqTerm(ry, xv));
      auto row_result = Evaluate(store, row_query);
      ASSERT_TRUE(row_result.ok()) << row_result.status().ToString();
      for (const auto& row : row_result->rows) {
        std::vector<TermId> full = {xv, zv, row[0]};
        if (distinct && !seen.insert(full).second) continue;
        if (skipped < offset) {
          ++skipped;
          continue;
        }
        if (expected.size() < limit) expected.push_back(full);
      }
    }

    auto got = Evaluate(store, q);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->var_names, (std::vector<std::string>{"x", "z", "y"}));
    EXPECT_EQ(got->rows, expected) << "round " << round;
    auto cached = engine.Select(q);
    ASSERT_TRUE(cached.ok());
    EXPECT_EQ(cached->rows, got->rows) << "round " << round;

    // ASK: some row has a solution.
    SelectQuery unmodified = q;
    unmodified.Distinct(false).Limit(kNoLimit).Offset(0);
    auto all = Evaluate(store, unmodified);
    ASSERT_TRUE(all.ok());
    auto exists = engine.Ask(q);
    ASSERT_TRUE(exists.ok());
    EXPECT_EQ(*exists, !all->rows.empty()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValuesProperty,
                         ::testing::Values(1ULL, 2ULL, 7ULL, 19ULL));

TEST_F(EngineTest, ValuesFiltersAndExplain) {
  // FILTER(?o = ?want) with ?want a VALUES variable: each row runs as
  // FILTER(?o = <constant>).
  SelectQuery q;
  const VarId s = q.NewVar("s");
  const VarId o = q.NewVar("o");
  const VarId want = q.NewVar("want");
  q.Where(NodeRef::Variable(s), NodeRef::Constant(knows_),
          NodeRef::Variable(o))
      .Filter(FilterExpr::VarEqVar(o, want))
      .Values({s, want}, {a_, c_, b_, b_, a_, b_})
      .Select({s, want})
      .Distinct();
  auto rs = Evaluate(store_, q);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // a knows c (row 1) and a knows b (row 3); b knows b is no fact.
  EXPECT_EQ(rs->rows, (std::vector<std::vector<TermId>>{{a_, c_}, {a_, b_}}));

  // A VALUES cell must be bound, and EXPLAIN has no one plan to show.
  SelectQuery unbound = q;
  unbound.Values({s, want}, {a_, kNullTermId});
  EXPECT_TRUE(Evaluate(store_, unbound).status().IsInvalidArgument());
  Engine engine(&store_, &dict_);
  EXPECT_TRUE(engine.Explain(q).status().IsUnimplemented());
}

// Property: `SELECT DISTINCT ?p { ?s ?p ?o }` is answered from the store's
// predicate directory — pages in ascending id order that concatenate to the
// brute-force predicate set, with nothing scanned — under every store
// layout, and after an Erase drops a predicate's last fact. Near-miss shapes
// keep the pipeline and still match brute force.
enum class StoreLayout { kDefaultShards, kTinyShards, kMapped };

class PredicateDirectoryParity
    : public ::testing::TestWithParam<std::tuple<StoreLayout, uint64_t>> {
 protected:
  void SetUp() override {
    const auto [layout, seed] = GetParam();
    Rng rng(seed);
    const StoreOptions options =
        layout == StoreLayout::kDefaultShards
            ? StoreOptions()
            : StoreOptions{/*num_hash_shards=*/2};
    TripleStore built(options);
    // Entities double as subjects and objects, so {?x ?p ?x} has answers;
    // predicate 0 is hot.
    std::vector<TermId> entities, predicates;
    for (int i = 0; i < 12; ++i) {
      entities.push_back(dict_.InternIri("e" + std::to_string(i)));
    }
    const int num_predicates = 6 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < num_predicates; ++i) {
      predicates.push_back(dict_.InternIri("p" + std::to_string(i)));
    }
    for (int i = 0; i < 300; ++i) {
      const TermId p = rng.Bernoulli(0.3)
                           ? predicates[0]
                           : predicates[rng.Below(predicates.size())];
      built.Insert(entities[rng.Below(entities.size())], p,
                   entities[rng.Below(entities.size())]);
    }
    if (layout == StoreLayout::kMapped) {
      const std::string path = ::testing::TempDir() + "/directory_" +
                               std::to_string(seed) + ".snap";
      ASSERT_TRUE(SaveStoreSnapshot(built, dict_, path).ok());
      Dictionary loaded_dict;
      ASSERT_TRUE(LoadStoreSnapshot(path, &loaded_dict, &store_).ok());
      ASSERT_TRUE(store_.is_mapped());
    } else {
      store_ = std::move(built);
    }
  }

  // SELECT DISTINCT ?p { ?s ?p ?o } [LIMIT limit] [OFFSET offset].
  static SelectQuery Inventory(uint64_t limit, uint64_t offset) {
    SelectQuery q;
    const VarId s = q.NewVar("s");
    const VarId p = q.NewVar("p");
    const VarId o = q.NewVar("o");
    q.Where(NodeRef::Variable(s), NodeRef::Variable(p), NodeRef::Variable(o));
    q.Select({p}).Distinct().Limit(limit).Offset(offset);
    return q;
  }

  void ExpectDirectoryParity() {
    const std::vector<Triple> all = store_.Match(TriplePattern());
    std::set<TermId> expected_set;
    for (const Triple& t : all) expected_set.insert(t.predicate);
    const std::vector<TermId> expected(expected_set.begin(),
                                       expected_set.end());
    const uint64_t n = expected.size();
    Engine engine(&store_, &dict_);

    for (uint64_t limit : {uint64_t{1}, uint64_t{3}, uint64_t{7}, n,
                           uint64_t{250}, kNoLimit}) {
      std::vector<TermId> concatenated;
      // Offsets up to n inclusive: the last page is short or empty.
      for (uint64_t offset = 0; offset <= n; offset += limit) {
        EvalStats stats;
        auto page = engine.Select(Inventory(limit, offset), &stats);
        ASSERT_TRUE(page.ok());
        EXPECT_EQ(stats.triples_scanned, 0u);
        EXPECT_EQ(stats.index_probes, 1u);
        ASSERT_EQ(stats.clause_rows.size(), 1u);
        EXPECT_EQ(stats.clause_rows[0].actual_rows, n);
        for (const auto& row : page->rows) concatenated.push_back(row[0]);
      }
      EXPECT_EQ(concatenated, expected) << "limit " << limit;
    }
    for (uint64_t offset : {n, n + 1, n + 100}) {
      auto page = engine.Select(Inventory(kNoLimit, offset));
      ASSERT_TRUE(page.ok());
      EXPECT_TRUE(page->rows.empty()) << "offset " << offset;
    }
    auto explain = engine.Explain(Inventory(kNoLimit, 0));
    ASSERT_TRUE(explain.ok());
    EXPECT_TRUE(explain->predicate_directory);
    EXPECT_NE(explain->ToJson().find("\"access\":\"predicate_directory\""),
              std::string::npos);

    // Near misses: each keeps the pipeline (and scans), and each answers
    // exactly its brute-force rows. The non-DISTINCT one shares the plan
    // cache entry of the directory query: DISTINCT is a modifier.
    const Triple& first = all.front();
    struct NearMiss {
      std::string name;
      SelectQuery query;
      std::multiset<std::vector<TermId>> expected;
    };
    std::vector<NearMiss> cases;
    auto add = [&](std::string name, SelectQuery q, auto&& row_of) {
      std::multiset<std::vector<TermId>> rows;
      for (const Triple& t : all) {
        std::vector<TermId> row;
        if (row_of(t, &row)) rows.insert(row);
      }
      if (q.distinct()) {
        std::set<std::vector<TermId>> unique(rows.begin(), rows.end());
        rows = std::multiset<std::vector<TermId>>(unique.begin(),
                                                  unique.end());
      }
      cases.push_back({std::move(name), std::move(q), std::move(rows)});
    };
    {
      SelectQuery q = Inventory(kNoLimit, 0);
      q.Distinct(false);
      add("no DISTINCT", q, [](const Triple& t, std::vector<TermId>* row) {
        *row = {t.predicate};
        return true;
      });
    }
    {
      SelectQuery q;
      const VarId x = q.NewVar("x");
      const VarId p = q.NewVar("p");
      q.Where(NodeRef::Variable(x), NodeRef::Variable(p),
              NodeRef::Variable(x));
      q.Select({p}).Distinct();
      add("{?x ?p ?x}", q, [](const Triple& t, std::vector<TermId>* row) {
        *row = {t.predicate};
        return t.subject == t.object;
      });
    }
    {
      SelectQuery q;
      const VarId p = q.NewVar("p");
      const VarId o = q.NewVar("o");
      q.Where(NodeRef::Constant(first.subject), NodeRef::Variable(p),
              NodeRef::Variable(o));
      q.Select({p}).Distinct();
      add("constant subject", q,
          [&](const Triple& t, std::vector<TermId>* row) {
            *row = {t.predicate};
            return t.subject == first.subject;
          });
    }
    {
      SelectQuery q;
      const VarId s = q.NewVar("s");
      const VarId p = q.NewVar("p");
      q.Where(NodeRef::Variable(s), NodeRef::Variable(p),
              NodeRef::Constant(first.object));
      q.Select({p}).Distinct();
      add("constant object", q,
          [&](const Triple& t, std::vector<TermId>* row) {
            *row = {t.predicate};
            return t.object == first.object;
          });
    }
    {
      SelectQuery q = Inventory(kNoLimit, 0);
      q.Filter(FilterExpr::VarNeqVar(0, 2));  // ?s != ?o
      add("FILTER", q, [](const Triple& t, std::vector<TermId>* row) {
        *row = {t.predicate};
        return t.subject != t.object;
      });
    }
    {
      SelectQuery q = Inventory(kNoLimit, 0);
      q.Select({0});  // ?s
      add("projection ?s", q, [](const Triple& t, std::vector<TermId>* row) {
        *row = {t.subject};
        return true;
      });
    }
    {
      SelectQuery q = Inventory(kNoLimit, 0);
      q.Select({1, 2});  // ?p ?o
      add("projection ?p ?o", q,
          [](const Triple& t, std::vector<TermId>* row) {
            *row = {t.predicate, t.object};
            return true;
          });
    }
    for (const NearMiss& c : cases) {
      EvalStats stats;
      auto result = engine.Select(c.query, &stats);
      ASSERT_TRUE(result.ok()) << c.name;
      EXPECT_GT(stats.triples_scanned, 0u) << c.name;
      EXPECT_EQ(std::multiset<std::vector<TermId>>(result->rows.begin(),
                                                   result->rows.end()),
                c.expected)
          << c.name;
      auto near_explain = engine.Explain(c.query);
      ASSERT_TRUE(near_explain.ok());
      EXPECT_FALSE(near_explain->predicate_directory) << c.name;
    }
  }

  Dictionary dict_;
  TripleStore store_;
};

TEST_P(PredicateDirectoryParity, PagesMatchBruteForce) {
  ExpectDirectoryParity();
  // Erase every fact of the rarest predicate: it must leave the directory.
  std::map<TermId, std::vector<Triple>> by_predicate;
  for (const Triple& t : store_.Match(TriplePattern())) {
    by_predicate[t.predicate].push_back(t);
  }
  auto rarest = std::min_element(
      by_predicate.begin(), by_predicate.end(), [](const auto& a,
                                                   const auto& b) {
        return a.second.size() < b.second.size();
      });
  for (const Triple& t : rarest->second) ASSERT_TRUE(store_.Erase(t));
  const std::vector<TermId> left = store_.Predicates();
  ASSERT_EQ(left.size(), by_predicate.size() - 1);
  EXPECT_FALSE(std::binary_search(left.begin(), left.end(), rarest->first));
  ExpectDirectoryParity();
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, PredicateDirectoryParity,
    ::testing::Combine(::testing::Values(StoreLayout::kDefaultShards,
                                         StoreLayout::kTinyShards,
                                         StoreLayout::kMapped),
                       ::testing::Values(1ULL, 2ULL, 7ULL)));

// Concurrent Selects through one shared Engine on a store nobody has read
// yet. Each thread starts on a different query, so the threads plan at the
// same time and race into the same dirty shards. Under TSan this exercises
// the lazy shard sort, the stats and histogram memos and the plan cache at
// once; every thread must see the rows a single-threaded run returns.
TEST(EngineConcurrencyTest, ConcurrentSelectsAreRaceFree) {
  constexpr int kThreads = 4;
  Dictionary dict;
  // `reference` gets the same triples and answers the queries first, so
  // `store` stays unread until the threads start.
  TripleStore store(StoreOptions{/*num_hash_shards=*/4});
  TripleStore reference(StoreOptions{/*num_hash_shards=*/4});
  auto insert = [&](TermId s, TermId p, TermId o) {
    store.Insert(s, p, o);
    reference.Insert(s, p, o);
  };
  auto entity = [&](int i) {
    return dict.InternIri("http://kb/p" + std::to_string(i));
  };
  const TermId knows = dict.InternIri("http://kb/knows");
  const TermId type = dict.InternIri("http://kb/type");
  const TermId person = dict.InternIri("http://kb/Person");
  for (int i = 0; i < 600; ++i) {
    insert(entity(i % 97), knows, entity((i * 7 + 3) % 211));
  }
  for (int i = 0; i < 211; ++i) insert(entity(i), type, person);

  // Four queries over the same two predicates, one per thread to start.
  std::vector<SelectQuery> queries(kThreads);
  for (size_t k = 0; k < queries.size(); ++k) {
    SelectQuery& q = queries[k];
    const VarId x = q.NewVar("x");
    const VarId y = q.NewVar("y");
    q.Where(NodeRef::Variable(x), NodeRef::Constant(knows),
            NodeRef::Variable(y));
    if (k == 1) continue;  // The bare `knows` scan.
    const VarId typed = k == 2 ? x : y;
    q.Where(NodeRef::Variable(typed), NodeRef::Constant(type),
            NodeRef::Constant(person));
    if (k == 3) q.Select({y}).Distinct();
  }
  std::vector<ResultSet> want;
  for (const SelectQuery& q : queries) {
    auto rows = Evaluate(reference, q, nullptr, &dict);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_FALSE(rows->rows.empty());
    want.push_back(*rows);
  }

  Engine engine(&store, &dict);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const size_t k = static_cast<size_t>(t + i) % queries.size();
        auto rows = engine.Select(queries[k]);
        if (!rows.ok() || rows->rows != want[k].rows) ++mismatches[t];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(kThreads, 0));
}

}  // namespace
}  // namespace sofya
