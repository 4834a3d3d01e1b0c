// SPARQL results JSON: wire-format parsing (uri/literal/typed/lang/bnode
// bindings, unbound cells, ASK booleans, malformed documents) and the
// writer/parser round trip the loopback server depends on.

#include "sparql/results_json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rdf/dictionary.h"

namespace sofya {
namespace {

class ResultsJsonTest : public ::testing::Test {
 protected:
  TermInterner Interner() {
    return [this](const Term& t) { return dict_.Intern(t); };
  }
  TermDecoder Decoder() {
    return [this](TermId id) { return dict_.TryDecode(id); };
  }
  Dictionary dict_;
};

TEST_F(ResultsJsonTest, ParsesAllBindingKinds) {
  const std::string json = R"({
    "head": {"vars": ["a", "b", "c", "d", "e"]},
    "results": {"bindings": [{
      "a": {"type": "uri", "value": "http://x.org/s"},
      "b": {"type": "literal", "value": "plain"},
      "c": {"type": "literal", "value": "42",
            "datatype": "http://www.w3.org/2001/XMLSchema#integer"},
      "d": {"type": "literal", "value": "Wien", "xml:lang": "de"},
      "e": {"type": "bnode", "value": "b0"}
    }]}
  })";
  auto results = ParseSparqlResultsJson(json, Interner());
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->var_names,
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  ASSERT_EQ(results->rows.size(), 1u);
  const auto& row = results->rows[0];
  EXPECT_EQ(dict_.Decode(row[0]), Term::Iri("http://x.org/s"));
  EXPECT_EQ(dict_.Decode(row[1]), Term::Literal("plain"));
  EXPECT_EQ(dict_.Decode(row[2]),
            Term::TypedLiteral(
                "42", "http://www.w3.org/2001/XMLSchema#integer"));
  EXPECT_EQ(dict_.Decode(row[3]), Term::LangLiteral("Wien", "de"));
  EXPECT_EQ(dict_.Decode(row[4]), Term::Iri("_:b0"));
}

TEST_F(ResultsJsonTest, LegacyTypedLiteralTypeIsAccepted) {
  const std::string json = R"({
    "head": {"vars": ["x"]},
    "results": {"bindings": [
      {"x": {"type": "typed-literal", "value": "1.5",
             "datatype": "http://www.w3.org/2001/XMLSchema#double"}}
    ]}
  })";
  auto results = ParseSparqlResultsJson(json, Interner());
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(dict_.Decode(results->rows[0][0]),
            Term::TypedLiteral("1.5",
                               "http://www.w3.org/2001/XMLSchema#double"));
}

TEST_F(ResultsJsonTest, UnboundVariablesBecomeNullCells) {
  const std::string json = R"({
    "head": {"vars": ["x", "y"]},
    "results": {"bindings": [
      {"x": {"type": "uri", "value": "http://x.org/1"}},
      {"y": {"type": "literal", "value": "only y"}},
      {}
    ]}
  })";
  auto results = ParseSparqlResultsJson(json, Interner());
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->rows.size(), 3u);
  EXPECT_NE(results->rows[0][0], kNullTermId);
  EXPECT_EQ(results->rows[0][1], kNullTermId);
  EXPECT_EQ(results->rows[1][0], kNullTermId);
  EXPECT_NE(results->rows[1][1], kNullTermId);
  EXPECT_EQ(results->rows[2][0], kNullTermId);
  EXPECT_EQ(results->rows[2][1], kNullTermId);
}

TEST_F(ResultsJsonTest, StringEscapesDecode) {
  const std::string json =
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":["
      "{\"x\":{\"type\":\"literal\","
      "\"value\":\"a\\\"b\\\\c\\n\\t\\u00e9\\ud83d\\ude00\"}}]}}";
  auto results = ParseSparqlResultsJson(json, Interner());
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(dict_.Decode(results->rows[0][0]),
            Term::Literal("a\"b\\c\n\t\xc3\xa9\xf0\x9f\x98\x80"));
}

TEST_F(ResultsJsonTest, AskDocuments) {
  auto yes = ParseSparqlAskJson(R"({"head":{},"boolean":true})");
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  auto no = ParseSparqlAskJson(R"({"head":{},"boolean":false})");
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
  EXPECT_TRUE(ParseSparqlAskJson(R"({"head":{}})").status().IsParseError());
}

TEST_F(ResultsJsonTest, MalformedDocumentsAreParseErrors) {
  const std::vector<std::string> bad = {
      "",
      "not json",
      "[1,2,3]",
      R"({"head":{}})",
      R"({"head":{"vars":["x"]},"results":{}})",
      R"({"head":{"vars":["x"]},"results":{"bindings":[{"x":{}}]}})",
      R"({"head":{"vars":["x"]},"results":{"bindings":[{"x":
          {"type":"mystery","value":"?"}}]}})",
      R"({"head":{"vars":["x"]},"results":{"bindings":[)",
      "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}} trailing",
  };
  for (const std::string& json : bad) {
    auto results = ParseSparqlResultsJson(json, Interner());
    EXPECT_TRUE(results.status().IsParseError()) << json;
  }
}

TEST_F(ResultsJsonTest, ResultsBeforeHeadAndNestedUnknownMembers) {
  // The reader takes members in any order: bindings read before the head
  // land in the head's columns. Members the format does not define — at
  // the top, in the head, in results, in a solution's binding — are
  // skipped, however deeply they nest.
  const std::string json = R"({
    "link": [{"rel": ["a", {"deep": [1, -2.5e3, null, true]}]}],
    "results": {
      "distinct": false,
      "bindings": [
        {"y": {"type": "literal", "value": "v", "extra": {"k": [[], {}]}},
         "x": {"value": "http://x.org/1", "type": "uri"}},
        {"x": {"type": "uri", "value": "http://x.org/2"},
         "undeclared": {"type": "uri", "value": "http://x.org/zz"}}
      ],
      "ordered": {"nested": {"again": ["é"]}}
    },
    "head": {"link": ["meta"], "vars": ["x", "y"]}
  })";
  auto results = ParseSparqlResultsJson(json, Interner());
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results->var_names, (std::vector<std::string>{"x", "y"}));
  ASSERT_EQ(results->rows.size(), 2u);
  EXPECT_EQ(dict_.Decode(results->rows[0][0]), Term::Iri("http://x.org/1"));
  EXPECT_EQ(dict_.Decode(results->rows[0][1]), Term::Literal("v"));
  EXPECT_EQ(dict_.Decode(results->rows[1][0]), Term::Iri("http://x.org/2"));
  EXPECT_EQ(results->rows[1][1], kNullTermId);

  // ASK documents take any order too.
  auto ask = ParseSparqlAskJson(R"({"boolean": true, "head": {"x": [{}]}})");
  ASSERT_TRUE(ask.ok()) << ask.status().ToString();
  EXPECT_TRUE(*ask);

  // Skipped members are still checked to be JSON.
  const std::vector<std::string> bad = {
      R"({"extra": [1, 2,], "head": {"vars": []},
          "results": {"bindings": []}})",
      R"({"head": {"vars": [], "x": tru}, "results": {"bindings": []}})",
      R"({"head": {"vars": []}, "results": {"bindings": [], "x": "\q"}})",
      R"({"boolean": true, "head": {"x": "\ud800"}})",
  };
  for (const std::string& doc : bad) {
    EXPECT_TRUE(ParseSparqlResultsJson(doc, Interner()).status().IsParseError())
        << doc;
  }
  EXPECT_TRUE(ParseSparqlAskJson(bad.back()).status().IsParseError());
}

TEST_F(ResultsJsonTest, DeeplyNestedDocumentIsRejectedNotCrashed) {
  std::string json(10000, '[');
  auto result = ParseSparqlAskJson(json);
  EXPECT_TRUE(result.status().IsParseError());
}

TEST_F(ResultsJsonTest, WriterParserRoundTrip) {
  ResultSet original;
  original.var_names = {"s", "o"};
  original.rows.push_back({dict_.InternIri("http://x.org/s1"),
                           dict_.Intern(Term::LangLiteral("café \"x\"", "fr"))});
  original.rows.push_back(
      {dict_.InternIri("_:blank7"),
       dict_.Intern(Term::TypedLiteral(
           "2024-01-01", "http://www.w3.org/2001/XMLSchema#date"))});
  original.rows.push_back({dict_.InternIri("http://x.org/s2"), kNullTermId});

  auto json = WriteSparqlResultsJson(original, Decoder());
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  auto reparsed = ParseSparqlResultsJson(*json, Interner());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << *json;
  // Same dictionary on both sides => identical ids cell for cell.
  EXPECT_EQ(reparsed->var_names, original.var_names);
  EXPECT_EQ(reparsed->rows, original.rows);
}

TEST_F(ResultsJsonTest, AskWriterRoundTrip) {
  EXPECT_TRUE(*ParseSparqlAskJson(WriteSparqlAskJson(true)));
  EXPECT_FALSE(*ParseSparqlAskJson(WriteSparqlAskJson(false)));
}

}  // namespace
}  // namespace sofya
