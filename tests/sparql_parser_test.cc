#include "sparql/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "endpoint/local_endpoint.h"
#include "endpoint/select_text.h"
#include "rdf/knowledge_base.h"
#include "sparql/engine.h"

namespace sofya {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  ParserTest() : kb_("pkb", "http://p.org/") {
    kb_.AddFact("a", "knows", "b");
    kb_.AddFact("a", "knows", "c");
    kb_.AddFact("b", "knows", "c");
    kb_.AddLiteralFact("a", "age", "30");
  }

  StatusOr<SelectQuery> Parse(const std::string& text) {
    return ParseSelectQuery(text, &kb_.dict(), &prefixes_);
  }

  StatusOr<size_t> CountRows(const std::string& text) {
    SOFYA_ASSIGN_OR_RETURN(SelectQuery q, Parse(text));
    SOFYA_ASSIGN_OR_RETURN(ResultSet rs,
                           Evaluate(kb_.store(), q, nullptr, &kb_.dict()));
    return rs.rows.size();
  }

  KnowledgeBase kb_;
  PrefixMap prefixes_;
};

TEST_F(ParserTest, BasicSelectStar) {
  auto n = CountRows(
      "SELECT * WHERE { ?x <http://p.org/knows> ?y }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
}

TEST_F(ParserTest, ProjectionAndDistinct) {
  auto q = Parse(
      "SELECT DISTINCT ?x WHERE { ?x <http://p.org/knows> ?y . }");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(q->distinct());
  ASSERT_EQ(q->projection().size(), 1u);
  auto rs = Evaluate(kb_.store(), *q);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs->rows.size(), 2u);  // a, b.
  EXPECT_EQ(rs->var_names, (std::vector<std::string>{"x"}));
}

TEST_F(ParserTest, MultiClauseJoinWithDots) {
  auto n = CountRows(
      "SELECT ?x ?z WHERE { ?x <http://p.org/knows> ?y . "
      "?y <http://p.org/knows> ?z . }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);  // a->b->c only.
}

TEST_F(ParserTest, PrefixDeclarationsExpand) {
  auto n = CountRows(
      "PREFIX p: <http://p.org/>\n"
      "SELECT * WHERE { ?x p:knows ?y }");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, 3u);
}

TEST_F(ParserTest, ExternallySuppliedPrefixes) {
  prefixes_.Bind("p", "http://p.org/");
  auto n = CountRows("SELECT * WHERE { ?x p:knows ?y }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
}

TEST_F(ParserTest, LiteralObjectsAndDatatypes) {
  auto n = CountRows(
      "SELECT ?x WHERE { ?x <http://p.org/age> \"30\" }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  // Typed literal is a *different* term: no match.
  auto typed = CountRows(
      "SELECT ?x WHERE { ?x <http://p.org/age> "
      "\"30\"^^<http://www.w3.org/2001/XMLSchema#integer> }");
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(*typed, 0u);
}

TEST_F(ParserTest, FiltersParseAndApply) {
  auto n = CountRows(
      "SELECT * WHERE { ?x <http://p.org/knows> ?y1 . "
      "?x <http://p.org/knows> ?y2 . FILTER(?y1 != ?y2) }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);  // (b,c) and (c,b) for subject a.

  auto eq_term = CountRows(
      "SELECT * WHERE { ?x <http://p.org/knows> ?y . "
      "FILTER(?y = <http://p.org/c>) }");
  ASSERT_TRUE(eq_term.ok());
  EXPECT_EQ(*eq_term, 2u);

  auto is_lit = CountRows(
      "SELECT * WHERE { <http://p.org/a> ?p ?o . FILTER(isLiteral(?o)) }");
  ASSERT_TRUE(is_lit.ok());
  EXPECT_EQ(*is_lit, 1u);
}

TEST_F(ParserTest, LimitAndOffsetModifiers) {
  auto q = Parse(
      "SELECT * WHERE { ?x <http://p.org/knows> ?y } OFFSET 1 LIMIT 2");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->limit(), 2u);
  EXPECT_EQ(q->offset(), 1u);
  // Order-independent.
  auto q2 = Parse(
      "SELECT * WHERE { ?x <http://p.org/knows> ?y } LIMIT 2 OFFSET 1");
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->limit(), 2u);
  EXPECT_EQ(q2->offset(), 1u);
}

TEST_F(ParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(
      Parse("select distinct ?x where { ?x <http://p.org/knows> ?y } limit 1")
          .ok());
}

TEST_F(ParserTest, CommentsAreSkipped) {
  auto n = CountRows(
      "# leading comment\n"
      "SELECT * WHERE { # inline\n ?x <http://p.org/knows> ?y }");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
}

TEST_F(ParserTest, ErrorsAreParseErrors) {
  EXPECT_TRUE(Parse("").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT WHERE { ?x ?p ?y }").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT * { ?x ?p ?y }").status().IsParseError());
  EXPECT_TRUE(
      Parse("SELECT * WHERE { ?x ?p ?y ").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT * WHERE { ?x ?p }").status().IsParseError());
  EXPECT_TRUE(Parse("SELECT * WHERE { ?x nosuch:py ?y }")
                  .status()
                  .IsNotFound());  // Unbound prefix.
  EXPECT_TRUE(Parse("SELECT ?zz WHERE { ?x ?p ?y }")
                  .status()
                  .IsParseError());  // Projected var unused.
  EXPECT_TRUE(Parse("SELECT * WHERE { ?x ?p ?y } LIMIT x")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT * WHERE { ?x ?p \"unterminated }")
                  .status()
                  .IsParseError());
  EXPECT_TRUE(Parse("SELECT * WHERE { ?x ?p ?y } garbage <x>")
                  .status()
                  .IsParseError());
}

TEST_F(ParserTest, OverflowingLimitOrOffsetIsAParseError) {
  // 2^64 and beyond do not fit a uint64_t; the largest value that does
  // still parses.
  for (const std::string modifier :
       {"LIMIT 99999999999999999999999", "OFFSET 18446744073709551616"}) {
    auto q = Parse("SELECT * WHERE { ?x ?p ?y } " + modifier);
    ASSERT_TRUE(q.status().IsParseError()) << modifier;
    EXPECT_NE(q.status().message().find("out of range"), std::string::npos);
  }
  auto max = Parse("SELECT * WHERE { ?x ?p ?y } OFFSET 18446744073709551615");
  ASSERT_TRUE(max.ok()) << max.status().ToString();
  EXPECT_EQ(max->offset(), 18446744073709551615ull);
}

TEST_F(ParserTest, ValuesBlockParsesAndBindsRows) {
  auto q = Parse(
      "SELECT ?s ?o WHERE { VALUES (?s ?o) { (<http://p.org/a> "
      "<http://p.org/c>) (<http://p.org/b> <http://p.org/c>) "
      "(<http://p.org/c> <http://p.org/a>) } ?s <http://p.org/knows> ?o }");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->values_vars().size(), 2u);
  EXPECT_EQ(q->num_values_rows(), 3u);
  EXPECT_EQ(q->values_cells()[0], kb_.dict().LookupIri("http://p.org/a"));
  auto rs = Evaluate(kb_.store(), *q);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  // a-c and b-c are facts; c-a is not. Block order is kept.
  ASSERT_EQ(rs->rows.size(), 2u);
  EXPECT_EQ(rs->rows[0][0], kb_.dict().LookupIri("http://p.org/a"));
  EXPECT_EQ(rs->rows[1][0], kb_.dict().LookupIri("http://p.org/b"));
}

TEST_F(ParserTest, MalformedValuesBlocksAreParseErrors) {
  const std::vector<std::string> bad = {
      // Ragged row.
      "SELECT * WHERE { VALUES (?s ?o) { (<http://p.org/a>) } ?s ?p ?o }",
      // UNDEF cell.
      "SELECT * WHERE { VALUES (?s) { (UNDEF) } ?s ?p ?o }",
      // Unterminated block.
      "SELECT * WHERE { VALUES (?s) { (<http://p.org/a>) ",
      // Unterminated row.
      "SELECT * WHERE { VALUES (?s) { (<http://p.org/a> ",
      // No variables.
      "SELECT * WHERE { VALUES () { () } ?s ?p ?o }",
      // A variable repeated.
      "SELECT * WHERE { VALUES (?s ?s) { (<http://p.org/a> <http://p.org/a>) "
      "} ?s ?p ?o }",
      // A variable as a cell.
      "SELECT * WHERE { VALUES (?s) { (?o) } ?s ?p ?o }",
      // Two blocks.
      "SELECT * WHERE { VALUES (?s) { (<http://p.org/a>) } "
      "VALUES (?o) { (<http://p.org/b>) } ?s ?p ?o }",
  };
  for (const std::string& text : bad) {
    EXPECT_TRUE(Parse(text).status().IsParseError()) << text;
  }
}

TEST_F(ParserTest, RoundTripThroughToSparql) {
  const std::string original =
      "SELECT DISTINCT ?x WHERE { ?x <http://p.org/knows> ?y . "
      "FILTER(?y != <http://p.org/b>) } LIMIT 4";
  auto q = Parse(original);
  ASSERT_TRUE(q.ok());
  // Render and re-parse: same result set.
  auto q2 = Parse(q->ToSparql(kb_.dict()));
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  auto r1 = Evaluate(kb_.store(), *q);
  auto r2 = Evaluate(kb_.store(), *q2);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1->rows, r2->rows);
}

TEST_F(ParserTest, SelectTextRunsAgainstEndpoint) {
  LocalEndpoint ep(&kb_);
  auto rows = SelectText(&ep,
                         "SELECT * WHERE { ?x <http://p.org/knows> ?y }");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows.size(), 3u);
  EXPECT_EQ(ep.stats().queries, 1u);
}

}  // namespace
}  // namespace sofya
