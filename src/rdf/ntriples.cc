#include "rdf/ntriples.h"

#include <cctype>
#include <sstream>

#include "util/string_util.h"

namespace sofya {

namespace {

void SkipSpace(std::string_view line, size_t* pos) {
  while (*pos < line.size() &&
         (line[*pos] == ' ' || line[*pos] == '\t')) {
    ++*pos;
  }
}

bool IsBlankNodeChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

StatusOr<Term> ParseNTriplesTerm(std::string_view line, size_t* pos) {
  SkipSpace(line, pos);
  if (*pos >= line.size()) {
    return Status::ParseError("unexpected end of line while reading a term");
  }
  const char first = line[*pos];

  if (first == '<') {
    const size_t close = line.find('>', *pos + 1);
    if (close == std::string_view::npos) {
      return Status::ParseError("unterminated IRI: missing '>'");
    }
    std::string iri(line.substr(*pos + 1, close - *pos - 1));
    if (iri.empty()) return Status::ParseError("empty IRI <>");
    *pos = close + 1;
    return Term::Iri(std::move(iri));
  }

  if (first == '_') {
    if (*pos + 1 >= line.size() || line[*pos + 1] != ':') {
      return Status::ParseError("malformed blank node: expected '_:'");
    }
    size_t end = *pos + 2;
    while (end < line.size() && IsBlankNodeChar(line[end])) ++end;
    if (end == *pos + 2) {
      return Status::ParseError("blank node with empty label");
    }
    std::string label(line.substr(*pos, end - *pos));
    *pos = end;
    return Term::Iri(std::move(label));
  }

  if (first == '"') {
    // Scan for the closing unescaped quote.
    size_t i = *pos + 1;
    bool escaped = false;
    while (i < line.size()) {
      if (escaped) {
        escaped = false;
      } else if (line[i] == '\\') {
        escaped = true;
      } else if (line[i] == '"') {
        break;
      }
      ++i;
    }
    if (i >= line.size()) {
      return Status::ParseError("unterminated literal: missing closing '\"'");
    }
    std::string lexical =
        UnescapeNTriples(line.substr(*pos + 1, i - *pos - 1));
    *pos = i + 1;
    // Optional suffix: @lang or ^^<datatype>.
    if (*pos < line.size() && line[*pos] == '@') {
      size_t end = *pos + 1;
      while (end < line.size() &&
             (std::isalnum(static_cast<unsigned char>(line[end])) ||
              line[end] == '-')) {
        ++end;
      }
      if (end == *pos + 1) {
        return Status::ParseError("empty language tag after '@'");
      }
      std::string lang(line.substr(*pos + 1, end - *pos - 1));
      *pos = end;
      return Term::LangLiteral(std::move(lexical), std::move(lang));
    }
    if (*pos + 1 < line.size() && line[*pos] == '^' && line[*pos + 1] == '^') {
      *pos += 2;
      if (*pos >= line.size() || line[*pos] != '<') {
        return Status::ParseError("expected <datatype> after '^^'");
      }
      const size_t close = line.find('>', *pos + 1);
      if (close == std::string_view::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      std::string dt(line.substr(*pos + 1, close - *pos - 1));
      *pos = close + 1;
      return Term::TypedLiteral(std::move(lexical), std::move(dt));
    }
    return Term::Literal(std::move(lexical));
  }

  return Status::ParseError(
      StrFormat("unexpected character '%c' at column %zu", first, *pos));
}

Status ParseNTriplesLine(std::string_view line, Term* s, Term* p, Term* o) {
  const std::string_view trimmed = Trim(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::NotFound("blank or comment line");
  }
  size_t pos = 0;

  auto subject = ParseNTriplesTerm(trimmed, &pos);
  if (!subject.ok()) return subject.status().WithContext("subject");
  if (subject->is_literal()) {
    return Status::ParseError("subject must not be a literal");
  }

  auto predicate = ParseNTriplesTerm(trimmed, &pos);
  if (!predicate.ok()) return predicate.status().WithContext("predicate");
  if (!predicate->is_iri() || predicate->is_blank()) {
    return Status::ParseError("predicate must be an IRI");
  }

  auto object = ParseNTriplesTerm(trimmed, &pos);
  if (!object.ok()) return object.status().WithContext("object");

  SkipSpace(trimmed, &pos);
  if (pos >= trimmed.size() || trimmed[pos] != '.') {
    return Status::ParseError("missing terminating '.'");
  }
  ++pos;
  SkipSpace(trimmed, &pos);
  if (pos != trimmed.size()) {
    return Status::ParseError("trailing content after '.'");
  }

  *s = std::move(subject).value();
  *p = std::move(predicate).value();
  *o = std::move(object).value();
  return Status::OK();
}

StatusOr<NTriplesParseReport> ParseNTriples(std::istream& in,
                                            Dictionary* dict,
                                            TripleStore* store,
                                            size_t expected_triples) {
  NTriplesParseReport report;
  // Bulk-load scope: one epoch bump for the whole document, so derived state
  // (stats memos, compiled plans) is invalidated once instead of N times.
  TripleStore::BulkLoadScope bulk(store, expected_triples);
  std::string line;
  while (std::getline(in, line)) {
    ++report.lines_read;
    Term s, p, o;
    Status st = ParseNTriplesLine(line, &s, &p, &o);
    if (st.IsNotFound()) continue;  // Comment/blank line.
    if (!st.ok()) {
      return st.WithContext(StrFormat("line %zu", report.lines_read));
    }
    store->Insert(dict->Intern(s), dict->Intern(p), dict->Intern(o));
    ++report.triples_parsed;
  }
  return report;
}

StatusOr<NTriplesParseReport> ParseNTriplesString(std::string_view document,
                                                  Dictionary* dict,
                                                  TripleStore* store) {
  std::istringstream in{std::string(document)};
  return ParseNTriples(in, dict, store);
}

Status WriteNTriples(const TripleStore& store, const Dictionary& dict,
                     std::ostream& out) {
  Status result = Status::OK();
  store.ForEachMatch(TriplePattern(), [&](const Triple& t) {
    auto s = dict.TryDecode(t.subject);
    auto p = dict.TryDecode(t.predicate);
    auto o = dict.TryDecode(t.object);
    if (!s.ok() || !p.ok() || !o.ok()) {
      result = Status::Internal("triple references unknown term id");
      return false;
    }
    out << s->ToNTriples() << " " << p->ToNTriples() << " " << o->ToNTriples()
        << " .\n";
    return true;
  });
  return result;
}

StatusOr<std::string> WriteNTriplesString(const TripleStore& store,
                                          const Dictionary& dict) {
  std::ostringstream out;
  SOFYA_RETURN_IF_ERROR(WriteNTriples(store, dict, out));
  return out.str();
}

}  // namespace sofya
