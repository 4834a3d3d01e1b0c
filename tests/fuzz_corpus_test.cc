// Fuzz/property harness for the wire formats the HTTP client and server
// trust least: application/sparql-results+json documents, HTTP/1.1 framing
// (Content-Length and chunked), and the SPARQL text the server parses
// (VALUES blocks included). Three layers:
//
//   * round-trip properties over generated ResultSets (writer -> reader ->
//     writer is a fixed point; parsed rows decode to the same terms);
//   * deterministic mutation fuzzing of valid documents/messages — every
//     mutant must produce a clean Status, never a crash, hang, or huge
//     allocation (the ASan/UBSan CI job runs this binary too);
//   * a checked-in corpus of regression inputs under tests/data/fuzz/,
//     replayed byte-for-byte on every run.
//
// All randomness comes from the repo's seeded Rng: a failure reproduces by
// seed, never by luck.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "net/http.h"
#include "rdf/dictionary.h"
#include "rdf/term.h"
#include "sparql/parser.h"
#include "sparql/query.h"
#include "sparql/results_json.h"
#include "util/random.h"
#include "util/status.h"

namespace sofya {
namespace {

// ---------------------------------------------------------------- corpus

std::string CorpusDir() {
#ifdef SOFYA_SOURCE_DIR
  return std::string(SOFYA_SOURCE_DIR) + "/tests/data/fuzz";
#else
  return "tests/data/fuzz";
#endif
}

std::vector<std::string> LoadCorpus() {
  std::vector<std::string> inputs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(CorpusDir(), ec)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    inputs.emplace_back(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>());
  }
  return inputs;
}

// ----------------------------------------------------- generated inputs

Term RandomTerm(Rng& rng) {
  const std::string tail = std::to_string(rng.Below(50));
  switch (rng.Below(5)) {
    case 0:
      return Term::Iri("http://fuzz.test/e" + tail);
    case 1:
      return Term::Literal("plain \"quoted\" \\ value " + tail);
    case 2:
      return Term::TypedLiteral(
          tail, "http://www.w3.org/2001/XMLSchema#integer");
    case 3:
      return Term::LangLiteral("wert " + tail, "de");
    default:
      // Control characters and non-ASCII bytes must survive JSON escaping.
      return Term::Literal("ctl\t\n\x01 " + tail + "\xc3\xa9");
  }
}

std::string RandomResultsDocument(Rng& rng) {
  ResultSet result;
  const size_t num_vars = 1 + rng.Below(4);
  for (size_t v = 0; v < num_vars; ++v) {
    result.var_names.push_back("v" + std::to_string(v));
  }
  Dictionary scratch;
  const size_t num_rows = rng.Below(8);
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<TermId> row;
    for (size_t v = 0; v < num_vars; ++v) {
      row.push_back(rng.Bernoulli(0.2) ? kNullTermId
                                       : scratch.Intern(RandomTerm(rng)));
    }
    result.rows.push_back(std::move(row));
  }
  auto doc = WriteSparqlResultsJson(
      result, [&scratch](TermId id) { return scratch.TryDecode(id); });
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.ok() ? *doc : "{}";
}

/// A random query in the parser's grammar: one to three clauses over a few
/// variables and constants, maybe filters, maybe a VALUES block, maybe
/// modifiers — rendered by ToSparql, so it parses before it is mutated.
std::string RandomQueryText(Rng& rng) {
  Dictionary dict;
  SelectQuery q;
  const VarId vars[3] = {q.NewVar("s"), q.NewVar("p"), q.NewVar("o")};
  auto node = [&] {
    return rng.Bernoulli(0.5) ? NodeRef::Variable(vars[rng.Below(3)])
                              : NodeRef::Constant(dict.Intern(RandomTerm(rng)));
  };
  const size_t clauses = 1 + rng.Below(3);
  for (size_t c = 0; c < clauses; ++c) q.Where(node(), node(), node());
  // Every variable must occur somewhere: a last all-variable clause.
  q.Where(NodeRef::Variable(vars[0]), NodeRef::Variable(vars[1]),
          NodeRef::Variable(vars[2]));
  if (rng.Bernoulli(0.3)) {
    q.Filter(FilterExpr::VarNeqTerm(vars[2], dict.Intern(RandomTerm(rng))));
  }
  if (rng.Bernoulli(0.3)) q.Filter(FilterExpr::VarEqVar(vars[0], vars[2]));
  if (rng.Bernoulli(0.5)) {
    const size_t width = 1 + rng.Below(3);
    std::vector<VarId> values(vars, vars + width);
    std::vector<TermId> cells;
    const size_t rows = rng.Below(5);
    for (size_t i = 0; i < rows * width; ++i) {
      cells.push_back(dict.Intern(RandomTerm(rng)));
    }
    q.Values(values, cells);
  }
  if (rng.Bernoulli(0.5)) q.Select({vars[rng.Below(3)]});
  q.Distinct(rng.Bernoulli(0.5));
  if (rng.Bernoulli(0.5)) q.Limit(rng.Below(100));
  if (rng.Bernoulli(0.3)) q.Offset(rng.Below(100));
  return q.ToSparql(dict);
}

std::string Mutate(const std::string& input, Rng& rng) {
  std::string out = input;
  switch (rng.Below(5)) {
    case 0:  // Truncate.
      out.resize(rng.Below(out.size() + 1));
      break;
    case 1: {  // Flip a byte.
      if (!out.empty()) {
        out[rng.Below(out.size())] ^= static_cast<char>(1 + rng.Below(255));
      }
      break;
    }
    case 2: {  // Insert junk.
      const char junk[] = "{}[]\",:\\\x00\xff\r\n";
      out.insert(rng.Below(out.size() + 1), 1,
                 junk[rng.Below(sizeof(junk) - 1)]);
      break;
    }
    case 3: {  // Delete a span.
      if (!out.empty()) {
        const size_t at = rng.Below(out.size());
        out.erase(at, 1 + rng.Below(8));
      }
      break;
    }
    default: {  // Duplicate a span (unbalances nesting).
      if (!out.empty()) {
        const size_t at = rng.Below(out.size());
        const size_t len = std::min<size_t>(1 + rng.Below(16),
                                            out.size() - at);
        out.insert(at, out.substr(at, len));
      }
      break;
    }
  }
  return out;
}

/// Feeds any byte blob to every parser under test; the only contract is
/// "return a Status, don't die".
void ExerciseParsers(const std::string& input) {
  Dictionary dict;
  (void)ParseSelectQuery(input, &dict);
  (void)ParseSparqlResultsJson(
      input, [&dict](const Term& term) { return dict.Intern(term); });
  (void)ParseSparqlAskJson(input);

  HttpRequest request;
  (void)TryParseHttpRequest(input, &request);
  HttpResponse response;
  (void)TryParseHttpResponse(input, /*eof=*/false, &response);
  (void)TryParseHttpResponse(input, /*eof=*/true, &response);

  HttpResponseReader reader;
  Status fed = reader.Feed(input);
  if (fed.ok() && !reader.done()) (void)reader.FinishEof();
}

// ------------------------------------------------------------ properties

TEST(ResultsJsonPropertyTest, WriterReaderWriterIsAFixedPoint) {
  Rng rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    const std::string doc = RandomResultsDocument(rng);

    Dictionary dict;
    auto parsed = ParseSparqlResultsJson(
        doc, [&dict](const Term& term) { return dict.Intern(term); });
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << doc;

    auto rewritten = WriteSparqlResultsJson(
        *parsed, [&dict](TermId id) { return dict.TryDecode(id); });
    ASSERT_TRUE(rewritten.ok()) << rewritten.status();
    // One parse/serialize cycle is the identity on the wire bytes: reader
    // and writer agree on escaping, column order, and unbound cells.
    EXPECT_EQ(*rewritten, doc) << "iter " << iter;
  }
}

TEST(ResultsJsonPropertyTest, AskDocumentsRoundTrip) {
  for (bool value : {false, true}) {
    auto parsed = ParseSparqlAskJson(WriteSparqlAskJson(value));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, value);
  }
}

TEST(ResultsJsonFuzzTest, MutatedDocumentsNeverCrashTheReader) {
  Rng rng(97);
  int parse_errors = 0;
  for (int iter = 0; iter < 600; ++iter) {
    std::string doc = RandomResultsDocument(rng);
    const int rounds = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < rounds; ++m) doc = Mutate(doc, rng);

    Dictionary dict;
    auto parsed = ParseSparqlResultsJson(
        doc, [&dict](const Term& term) { return dict.Intern(term); });
    if (!parsed.ok()) ++parse_errors;
  }
  // The mutator really produces malformed documents (not a no-op harness).
  EXPECT_GT(parse_errors, 100);
}

TEST(SparqlParserFuzzTest, GeneratedQueriesRoundTripAndMutantsFailCleanly) {
  Rng rng(2025);
  int parse_errors = 0;
  for (int iter = 0; iter < 400; ++iter) {
    const std::string text = RandomQueryText(rng);
    Dictionary dict;
    auto parsed = ParseSelectQuery(text, &dict);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << text;
    auto reparsed = ParseSelectQuery(parsed->ToSparql(dict), &dict);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n" << text;
    EXPECT_EQ(parsed->Fingerprint(), reparsed->Fingerprint()) << text;

    std::string mutant = text;
    const int rounds = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < rounds; ++m) mutant = Mutate(mutant, rng);
    if (!ParseSelectQuery(mutant, &dict).ok()) ++parse_errors;
    ExerciseParsers(mutant);
  }
  EXPECT_GT(parse_errors, 50);
}

TEST(HttpFramingPropertyTest, EverySplitOfAValidResponseParsesTheSame) {
  HttpResponse response;
  response.headers.push_back({"Content-Type", "application/json"});
  response.body = "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[]}}";
  const std::string wire = SerializeHttpResponse(response);

  HttpResponse whole;
  auto consumed = TryParseHttpResponse(wire, /*eof=*/false, &whole);
  ASSERT_TRUE(consumed.ok()) << consumed.status();
  ASSERT_EQ(*consumed, wire.size());

  for (size_t split = 0; split <= wire.size(); ++split) {
    HttpResponseReader reader;
    ASSERT_TRUE(reader.Feed(wire.substr(0, split)).ok()) << split;
    if (split < wire.size()) {
      ASSERT_FALSE(reader.done()) << split;
      ASSERT_TRUE(reader.Feed(wire.substr(split)).ok()) << split;
    }
    ASSERT_TRUE(reader.done()) << split;
    EXPECT_EQ(reader.leftover(), 0u) << split;
    EXPECT_EQ(reader.response().body, whole.body) << split;
    EXPECT_EQ(reader.response().status_code, whole.status_code) << split;
  }
}

TEST(HttpFramingPropertyTest, ChunkedBodySurvivesArbitrarySplits) {
  const std::string wire =
      "HTTP/1.1 200 OK\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "4\r\nWiki\r\n"
      "6\r\npedia \r\n"
      "b\r\nin chunks.\n\r\n"
      "0\r\n\r\n";
  HttpResponse whole;
  auto consumed = TryParseHttpResponse(wire, /*eof=*/false, &whole);
  ASSERT_TRUE(consumed.ok()) << consumed.status();
  ASSERT_EQ(*consumed, wire.size());
  EXPECT_EQ(whole.body, "Wikipedia in chunks.\n");

  Rng rng(5);
  for (int iter = 0; iter < 100; ++iter) {
    HttpResponseReader reader;
    size_t at = 0;
    while (at < wire.size()) {
      const size_t step = 1 + rng.Below(7);
      const size_t end = std::min(wire.size(), at + step);
      ASSERT_TRUE(reader.Feed(wire.substr(at, end - at)).ok());
      at = end;
    }
    ASSERT_TRUE(reader.done());
    EXPECT_EQ(reader.response().body, whole.body);
  }
}

TEST(HttpFramingFuzzTest, HostileFramingIsARejectionNotACrash) {
  // Hand-picked nasties: overflowing Content-Length, hex-overflow and
  // garbage chunk sizes, conflicting framing headers, negative lengths.
  const std::string cases[] = {
      "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\nx",
      "HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\nhello",
      "HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 7\r\n\r\nhunh",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "FFFFFFFFFFFFFFFFFF\r\nbody\r\n0\r\n\r\n",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
      "zz\r\nbody\r\n0\r\n\r\n",
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
      "Content-Length: 4\r\n\r\n4\r\nWiki\r\n0\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 18446744073709551617\r\n\r\n",
      "GET\r\n\r\n",
      "HTTP/9.9 12a OK\r\n\r\n",
      std::string("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\n\0\0\0", 42),
  };
  for (const std::string& wire : cases) {
    ExerciseParsers(wire);  // Must not crash; statuses are free to vary.

    // Whatever the outcome, an accepted parse must not have conjured a
    // body longer than the input (no allocation amplification).
    HttpResponse response;
    auto consumed = TryParseHttpResponse(wire, /*eof=*/true, &response);
    if (consumed.ok() && *consumed > 0) {
      EXPECT_LE(response.body.size(), wire.size());
    }
  }
}

TEST(HttpFramingFuzzTest, MutatedWireMessagesNeverCrashTheParsers) {
  Rng rng(4242);
  for (int iter = 0; iter < 600; ++iter) {
    std::string wire;
    if (rng.Bernoulli(0.5)) {
      HttpResponse response;
      if (rng.Bernoulli(0.3)) {
        response.headers.push_back({"Transfer-Encoding", "chunked"});
        wire = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
               "5\r\nhello\r\n0\r\n\r\n";
      } else {
        response.body = RandomResultsDocument(rng);
        wire = SerializeHttpResponse(response);
      }
    } else {
      HttpRequest request;
      request.headers.push_back({"Host", "kb1.test"});
      request.body = "query=" + std::to_string(rng.Next());
      wire = SerializeHttpRequest(request);
    }
    const int rounds = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < rounds; ++m) wire = Mutate(wire, rng);
    ExerciseParsers(wire);
  }
}

TEST(FuzzCorpusTest, SparqlCorpusParsesAsPinned) {
  auto read = [](const std::string& name) {
    std::ifstream in(CorpusDir() + "/" + name, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  for (const char* name :
       {"sparql_limit_overflow.rq", "sparql_values_ragged.rq",
        "sparql_values_undef.rq", "sparql_values_unterminated.rq"}) {
    const std::string text = read(name);
    ASSERT_FALSE(text.empty()) << name;
    Dictionary dict;
    EXPECT_TRUE(ParseSelectQuery(text, &dict).status().IsParseError()) << name;
  }
  Dictionary dict;
  auto big = ParseSelectQuery(read("sparql_values_10k_rows.rq"), &dict);
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->num_values_rows(), 10000u);
}

TEST(FuzzCorpusTest, CheckedInCorpusReplaysClean) {
  const std::vector<std::string> corpus = LoadCorpus();
  // The corpus ships with the repo; an empty load means the path wiring
  // broke, not that there is nothing to test.
  ASSERT_FALSE(corpus.empty()) << "no corpus files under " << CorpusDir();
  for (const std::string& input : corpus) {
    ExerciseParsers(input);
  }
  SUCCEED() << corpus.size() << " corpus inputs replayed";
}

}  // namespace
}  // namespace sofya
