#include "sparql/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "rdf/dictionary.h"
#include "rdf/store_snapshot.h"
#include "sparql/query.h"
#include "util/random.h"
#include "util/thread_pool.h"

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

// Property: `SELECT DISTINCT ?p { ?s ?p ?o }` is answered from the store's
// predicate directory — pages in ascending id order that concatenate to the
// brute-force predicate set, with nothing scanned — under every store
// layout, and after an Erase drops a predicate's last fact. Near-miss shapes
// keep the pipeline and still match brute force.
enum class StoreLayout { kDefaultShards, kTinyShardsPromoted, kMapped };

class PredicateDirectoryParity
    : public ::testing::TestWithParam<std::tuple<StoreLayout, uint64_t>> {
 protected:
  void SetUp() override {
    const auto [layout, seed] = GetParam();
    Rng rng(seed);
    const StoreOptions options =
        layout == StoreLayout::kDefaultShards
            ? StoreOptions()
            : StoreOptions{/*num_hash_shards=*/2, /*promote_threshold=*/8,
                           /*split_factor=*/4};
    TripleStore built(options);
    // Entities double as subjects and objects, so {?x ?p ?x} has answers;
    // predicate 0 is hot enough to be promoted under the tiny shards.
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
    if (layout == StoreLayout::kTinyShardsPromoted) {
      ASSERT_FALSE(built.PromotedPredicates().empty());
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
    options_.scan_pool = &pool_;  // The directory path precedes the pool.
    options_.parallel_scan_min_rows = 16;
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
    Engine engine(&store_, &dict_, options_);

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
  ThreadPool pool_{2};
  Engine::Options options_;
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
                                         StoreLayout::kTinyShardsPromoted,
                                         StoreLayout::kMapped),
                       ::testing::Values(1ULL, 2ULL, 7ULL)));

}  // namespace
}  // namespace sofya
