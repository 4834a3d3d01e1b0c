#include "rdf/term.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace sofya {
namespace {

TEST(TermTest, IriBasics) {
  Term t = Term::Iri("http://x.org/a");
  EXPECT_TRUE(t.is_iri());
  EXPECT_FALSE(t.is_literal());
  EXPECT_FALSE(t.is_blank());
  EXPECT_EQ(t.lexical(), "http://x.org/a");
  EXPECT_EQ(t.ToNTriples(), "<http://x.org/a>");
}

TEST(TermTest, BlankNodeDetection) {
  Term b = Term::Iri("_:b0");
  EXPECT_TRUE(b.is_iri());
  EXPECT_TRUE(b.is_blank());
  EXPECT_EQ(b.ToNTriples(), "_:b0");
}

TEST(TermTest, PlainLiteral) {
  Term t = Term::Literal("hello");
  EXPECT_TRUE(t.is_literal());
  EXPECT_EQ(t.ToNTriples(), "\"hello\"");
  EXPECT_TRUE(t.datatype().empty());
  EXPECT_TRUE(t.language().empty());
}

TEST(TermTest, TypedLiteral) {
  Term t = Term::TypedLiteral("42", std::string(xsd::kInteger));
  EXPECT_EQ(t.ToNTriples(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
}

TEST(TermTest, LangLiteral) {
  Term t = Term::LangLiteral("Wien", "de");
  EXPECT_EQ(t.ToNTriples(), "\"Wien\"@de");
}

TEST(TermTest, LiteralEscapingInSurface) {
  Term t = Term::Literal("say \"hi\"\n");
  EXPECT_EQ(t.ToNTriples(), "\"say \\\"hi\\\"\\n\"");
}

TEST(TermTest, EqualityDistinguishesKindAndAnnotations) {
  EXPECT_EQ(Term::Iri("a"), Term::Iri("a"));
  EXPECT_NE(Term::Iri("a"), Term::Literal("a"));
  EXPECT_NE(Term::Literal("a"), Term::LangLiteral("a", "en"));
  EXPECT_NE(Term::Literal("a"),
            Term::TypedLiteral("a", std::string(xsd::kString)));
  EXPECT_NE(Term::LangLiteral("a", "en"), Term::LangLiteral("a", "de"));
}

TEST(TermTest, OrderingIsTotalAndConsistent) {
  std::set<Term> terms{Term::Iri("b"), Term::Iri("a"), Term::Literal("a"),
                       Term::LangLiteral("a", "en")};
  EXPECT_EQ(terms.size(), 4u);
  EXPECT_EQ(terms.begin()->lexical(), "a");  // IRIs sort before literals.
  EXPECT_TRUE(terms.begin()->is_iri());
}

TEST(TermTest, HashAgreesWithEquality) {
  TermHash h;
  EXPECT_EQ(h(Term::Iri("x")), h(Term::Iri("x")));
  EXPECT_NE(h(Term::Iri("x")), h(Term::Literal("x")));
  EXPECT_NE(h(Term::LangLiteral("x", "en")), h(Term::LangLiteral("x", "fr")));
}

TEST(TermTest, DefaultConstructedIsEmptyIri) {
  Term t;
  EXPECT_TRUE(t.is_iri());
  EXPECT_TRUE(t.lexical().empty());
}

TEST(TermTest, NTriplesSizeIsTheSurfaceLength) {
  const std::vector<Term> terms = {
      Term::Iri("http://x.org/a"),
      Term::Iri("_:b7"),
      Term::Iri(""),
      Term::Literal("plain"),
      Term::Literal(""),
      Term::LangLiteral("Wien", "de"),
      Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
      Term::Literal("back\\slash"),
      Term::Literal("say \"hi\""),
      Term::Literal("line\nbreak"),
      Term::Literal("carriage\rreturn"),
      Term::Literal("tab\there"),
      Term::LangLiteral("\\\"\n\r\t", "en"),
      Term::TypedLiteral("a\tb\"", "http://x.org/dt"),
  };
  for (const Term& t : terms) {
    EXPECT_EQ(t.NTriplesSize(), t.ToNTriples().size()) << t.ToNTriples();
  }
}

}  // namespace
}  // namespace sofya
