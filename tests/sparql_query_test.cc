#include "sparql/query.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sofya {
namespace {

TEST(SelectQueryTest, NewVarAssignsDenseIds) {
  SelectQuery q;
  EXPECT_EQ(q.NewVar("x"), 0);
  EXPECT_EQ(q.NewVar("y"), 1);
  EXPECT_EQ(q.num_vars(), 2u);
  EXPECT_EQ(q.var_name(0), "x");
}

TEST(SelectQueryTest, FluentBuilderAccumulates) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(5), NodeRef::Constant(6))
      .Filter(FilterExpr::VarNeqTerm(x, 7))
      .Select({x})
      .Distinct()
      .Limit(10)
      .Offset(3);
  EXPECT_EQ(q.clauses().size(), 1u);
  EXPECT_EQ(q.filters().size(), 1u);
  EXPECT_EQ(q.projection().size(), 1u);
  EXPECT_TRUE(q.distinct());
  EXPECT_EQ(q.limit(), 10u);
  EXPECT_EQ(q.offset(), 3u);
}

TEST(SelectQueryTest, NodeRefAccessors) {
  const NodeRef c = NodeRef::Constant(42);
  EXPECT_FALSE(c.is_var());
  EXPECT_EQ(c.term(), 42u);
  const NodeRef v = NodeRef::Variable(3);
  EXPECT_TRUE(v.is_var());
  EXPECT_EQ(v.var(), 3);
}

TEST(SelectQueryTest, ValidateRejectsEmptyAndBadVars) {
  SelectQuery empty;
  EXPECT_TRUE(empty.Validate().IsInvalidArgument());

  SelectQuery bad_clause;
  bad_clause.Where(NodeRef::Variable(0), NodeRef::Constant(1),
                   NodeRef::Constant(2));
  EXPECT_TRUE(bad_clause.Validate().IsInvalidArgument());  // Var 0 undeclared.

  SelectQuery bad_filter;
  const VarId x = bad_filter.NewVar("x");
  bad_filter.Where(NodeRef::Variable(x), NodeRef::Constant(1),
                   NodeRef::Constant(2));
  bad_filter.Filter(FilterExpr::VarNeqVar(x, 9));
  EXPECT_TRUE(bad_filter.Validate().IsInvalidArgument());

  SelectQuery bad_projection;
  const VarId y = bad_projection.NewVar("y");
  bad_projection.Where(NodeRef::Variable(y), NodeRef::Constant(1),
                       NodeRef::Constant(2));
  bad_projection.Select({y, 5});
  EXPECT_TRUE(bad_projection.Validate().IsInvalidArgument());
}

TEST(SelectQueryTest, ValidQueryValidates) {
  SelectQuery q;
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(1), NodeRef::Variable(y));
  q.Filter(FilterExpr::VarNeqVar(x, y));
  q.Select({x});
  EXPECT_TRUE(q.Validate().ok());
}

TEST(SelectQueryTest, ToSparqlRendersAllFilterKinds) {
  Dictionary dict;
  const TermId p = dict.InternIri("http://x/p");
  SelectQuery q;
  const VarId a = q.NewVar("a");
  const VarId b = q.NewVar("b");
  q.Where(NodeRef::Variable(a), NodeRef::Constant(p), NodeRef::Variable(b));
  q.Filter(FilterExpr::VarEqVar(a, b));
  q.Filter(FilterExpr::VarNeqVar(a, b));
  q.Filter(FilterExpr::VarEqTerm(a, p));
  q.Filter(FilterExpr::VarNeqTerm(a, p));
  q.Filter(FilterExpr::IsIri(a));
  q.Filter(FilterExpr::IsLiteral(b));
  const std::string text = q.ToSparql(dict);
  EXPECT_NE(text.find("FILTER(?a = ?b)"), std::string::npos);
  EXPECT_NE(text.find("FILTER(?a != ?b)"), std::string::npos);
  EXPECT_NE(text.find("FILTER(?a = <http://x/p>)"), std::string::npos);
  EXPECT_NE(text.find("FILTER(isIRI(?a))"), std::string::npos);
  EXPECT_NE(text.find("FILTER(isLiteral(?b))"), std::string::npos);
  EXPECT_NE(text.find("SELECT *"), std::string::npos);
}

TEST(SelectQueryTest, ToSparqlRendersOffsetAndLimit) {
  Dictionary dict;
  SelectQuery q;
  const VarId x = q.NewVar("x");
  q.Where(NodeRef::Variable(x), NodeRef::Variable(x), NodeRef::Variable(x));
  q.Offset(5).Limit(7);
  const std::string text = q.ToSparql(dict);
  EXPECT_NE(text.find("OFFSET 5"), std::string::npos);
  EXPECT_NE(text.find("LIMIT 7"), std::string::npos);
}

/// A chain ?v0 p ?v1 . ?v1 p ?v2 ... over `n` variables, declared in
/// reverse when `reversed` (same query, different internal numbering).
SelectQuery Chain(int n, bool reversed, const std::string& last_name) {
  SelectQuery q;
  std::vector<VarId> vars(n);
  for (int i = 0; i < n; ++i) {
    const int k = reversed ? n - 1 - i : i;
    vars[k] = q.NewVar(k == n - 1 ? last_name : "v" + std::to_string(k));
  }
  for (int i = 0; i + 1 < n; ++i) {
    q.Where(NodeRef::Variable(vars[i]), NodeRef::Constant(9),
            NodeRef::Variable(vars[i + 1]));
  }
  q.Select({vars[0], vars[n - 1]});
  return q;
}

TEST(SelectQueryTest, KeysCanonicalizeManyVariables) {
  // More variables than the renderer keeps on the stack: the canonical
  // keys still ignore declaration order; the plan key, which carries raw
  // ids, does not; variable names always count.
  const SelectQuery forward = Chain(40, false, "last");
  const SelectQuery backward = Chain(40, true, "last");
  EXPECT_EQ(forward.Fingerprint(), backward.Fingerprint());
  EXPECT_EQ(forward.RenderKey(QueryKeyMode::kAsk),
            backward.RenderKey(QueryKeyMode::kAsk));
  EXPECT_NE(forward.PlanFingerprint(), backward.PlanFingerprint());
  EXPECT_NE(forward.Fingerprint(), Chain(40, false, "end").Fingerprint());
}

TEST(SelectQueryTest, ByIdKeyBytes) {
  // CachingEndpoint shards entries by the hash of these keys, so their bytes
  // decide which entries a full cache evicts and thus how many queries an
  // alignment sends: a change here shows up as changed query counts.
  SelectQuery q;
  const VarId z = q.NewVar("z");
  const VarId x = q.NewVar("x");
  const VarId y = q.NewVar("y");
  q.Where(NodeRef::Variable(x), NodeRef::Constant(5), NodeRef::Variable(y));
  q.Where(NodeRef::Variable(x), NodeRef::Variable(z), NodeRef::Constant(6));
  q.Filter(FilterExpr::VarNeqVar(y, z));
  q.Filter(FilterExpr::VarEqTerm(y, 7));
  q.Select({y, x}).Distinct().Limit(10).Offset(20);
  EXPECT_EQ(q.Fingerprint(),
            "v:y,x,z,;c:?1 #5 ?0 .?1 ?2 #6 .;f:1/0/2/0,2/0/-1/7,;p:0,1,;d1;"
            "l:10;o:20");
  EXPECT_EQ(q.RenderKey(QueryKeyMode::kAsk),
            "v:y,x,z,;c:?1 #5 ?0 .?1 ?2 #6 .;f:1/0/2/0,2/0/-1/7,;p:0,1,;d0;"
            "l:18446744073709551615;o:0#ask");
  EXPECT_EQ(q.PlanFingerprint(),
            "v:z,x,y,;c:?1 #5 ?2 .?1 ?0 #6 .;f:1/2/0/0,2/2/-1/7,;p:2,1,");
}

TEST(ResultSetTest, ColumnLookup) {
  ResultSet rs;
  rs.var_names = {"x", "y"};
  rs.rows = {{1, 2}};
  EXPECT_EQ(rs.ColumnOf("y"), 1);
  EXPECT_EQ(rs.ColumnOf("z"), -1);
  EXPECT_EQ(rs.size(), 1u);
  EXPECT_FALSE(rs.empty());
}

}  // namespace
}  // namespace sofya
