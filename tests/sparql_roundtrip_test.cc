// ToSparql round-trip: serialize -> ParseSelectQuery -> equal Fingerprint.
// The HTTP wire path depends on this being lossless: HttpSparqlEndpoint
// ships exactly ToSparql(dict), and whatever a conforming server parses
// must be the query the client meant.

#include <gtest/gtest.h>

#include <string>

#include "rdf/dictionary.h"
#include "sparql/parser.h"
#include "sparql/query.h"

namespace sofya {
namespace {

class SparqlRoundTripTest : public ::testing::Test {
 protected:
  SparqlRoundTripTest() {
    p_ = dict_.InternIri("http://example.org/p");
    q_ = dict_.InternIri("http://example.org/q");
    c_ = dict_.InternIri("http://example.org/c");
    lit_ = dict_.Intern(Term::Literal("plain"));
    typed_ = dict_.Intern(
        Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"));
    lang_ = dict_.Intern(Term::LangLiteral("Wien", "de"));
  }

  /// Serializes, re-parses against the same dictionary, and asserts the
  /// fingerprints collide (same normalized query => same cached result).
  void ExpectRoundTrip(const SelectQuery& query) {
    const std::string text = query.ToSparql(dict_);
    auto reparsed = ParseSelectQuery(text, &dict_);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\nserialized:\n" << text;
    EXPECT_EQ(query.Fingerprint(), reparsed->Fingerprint())
        << "serialized:\n" << text;
  }

  Dictionary dict_;
  TermId p_ = kNullTermId;
  TermId q_ = kNullTermId;
  TermId c_ = kNullTermId;
  TermId lit_ = kNullTermId;
  TermId typed_ = kNullTermId;
  TermId lang_ = kNullTermId;
};

TEST_F(SparqlRoundTripTest, BareSelectStar) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, ExplicitProjection) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  query.Select({s});
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, DistinctLimitOffset) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  query.Select({o}).Distinct().Limit(25).Offset(100);
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, MultiClauseJoin) {
  SelectQuery query;
  const VarId x = query.NewVar("x");
  const VarId y = query.NewVar("y");
  const VarId z = query.NewVar("z");
  query.Where(NodeRef::Variable(x), NodeRef::Constant(p_),
              NodeRef::Variable(y));
  query.Where(NodeRef::Variable(y), NodeRef::Constant(q_),
              NodeRef::Variable(z));
  query.Where(NodeRef::Constant(c_), NodeRef::Constant(q_),
              NodeRef::Variable(z));
  query.Select({x, z});
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, AllFilterKinds) {
  SelectQuery query;
  const VarId a = query.NewVar("a");
  const VarId b = query.NewVar("b");
  query.Where(NodeRef::Variable(a), NodeRef::Constant(p_),
              NodeRef::Variable(b));
  query.Filter(FilterExpr::VarEqVar(a, b));
  query.Filter(FilterExpr::VarNeqVar(a, b));
  query.Filter(FilterExpr::VarEqTerm(b, c_));
  query.Filter(FilterExpr::VarNeqTerm(b, c_));
  query.Filter(FilterExpr::IsIri(a));
  query.Filter(FilterExpr::IsLiteral(b));
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, LiteralConstants) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Constant(lit_));
  query.Where(NodeRef::Variable(s), NodeRef::Constant(q_),
              NodeRef::Constant(typed_));
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, LangLiteralAndFilterTerm) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  query.Filter(FilterExpr::VarEqTerm(o, lang_));
  query.Distinct().Limit(3);
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, PagedFormsRoundTrip) {
  // The exact shapes PagedSelect puts on the wire: OFFSET+LIMIT together.
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  for (uint64_t offset : {uint64_t{0}, uint64_t{3}, uint64_t{999}}) {
    SelectQuery page = query;
    page.Offset(offset).Limit(250);
    ExpectRoundTrip(page);
  }
}

TEST_F(SparqlRoundTripTest, ParseRendersBackEquivalently) {
  // Text -> query -> text -> query: fixpoint after one round.
  const std::string text =
      "SELECT DISTINCT ?s WHERE { ?s <http://example.org/p> ?o . "
      "FILTER(isIRI(?o)) } OFFSET 5 LIMIT 10";
  auto first = ParseSelectQuery(text, &dict_);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = ParseSelectQuery(first->ToSparql(dict_), &dict_);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Fingerprint(), second->Fingerprint());
}

TEST_F(SparqlRoundTripTest, ValuesBlockRoundTrips) {
  // A VALUES block over a clause variable and a filter-only variable, with
  // IRI, literal and typed cells.
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  const VarId want = query.NewVar("want");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o))
      .Filter(FilterExpr::VarEqVar(o, want))
      .Values({s, want}, {c_, lit_, q_, typed_, p_, lang_})
      .Select({s, o})
      .Distinct()
      .Limit(7);
  ExpectRoundTrip(query);
}

TEST_F(SparqlRoundTripTest, ValuesKeyOnlyWhenPresent) {
  // Keys of a query without VALUES never mention the block; two blocks
  // that differ in one cell give different keys.
  SelectQuery plain;
  const VarId s = plain.NewVar("s");
  plain.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Constant(c_));
  EXPECT_EQ(plain.Fingerprint().find("vals"), std::string::npos);
  SelectQuery a = plain;
  a.Values({s}, {c_, q_});
  SelectQuery b = plain;
  b.Values({s}, {c_, p_});
  EXPECT_NE(a.Fingerprint(), plain.Fingerprint());
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
  EXPECT_NE(a.PlanFingerprint(), b.PlanFingerprint());
}

TEST_F(SparqlRoundTripTest, AskFormSharesTheBody) {
  SelectQuery query;
  const VarId s = query.NewVar("s");
  const VarId o = query.NewVar("o");
  query.Where(NodeRef::Variable(s), NodeRef::Constant(p_),
              NodeRef::Variable(o));
  query.Filter(FilterExpr::IsIri(o));
  query.Distinct().Limit(7).Offset(2);
  const std::string ask = query.ToSparqlAsk(dict_);
  EXPECT_EQ(ask.rfind("ASK", 0), 0u) << ask;
  // Modifiers are normalized away (existence ignores them)...
  EXPECT_EQ(ask.find("LIMIT"), std::string::npos);
  EXPECT_EQ(ask.find("OFFSET"), std::string::npos);
  EXPECT_EQ(ask.find("DISTINCT"), std::string::npos);
  // ...but the graph pattern survives verbatim: the SELECT form of the
  // same body parses back to the same clauses/filters.
  auto reparsed =
      ParseSelectQuery("SELECT *" + ask.substr(3), &dict_);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  SelectQuery normalized = query;
  normalized.Distinct(false).Limit(kNoLimit).Offset(0);
  EXPECT_EQ(reparsed->Fingerprint(), normalized.Fingerprint());
}

}  // namespace
}  // namespace sofya
