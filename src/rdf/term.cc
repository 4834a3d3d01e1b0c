#include "rdf/term.h"

#include "util/string_util.h"

namespace sofya {

std::string Term::ToNTriples() const {
  if (is_iri()) {
    if (is_blank()) return lexical_;  // _:bN is written bare.
    return "<" + lexical_ + ">";
  }
  std::string out = "\"" + EscapeNTriples(lexical_) + "\"";
  if (!language_.empty()) {
    out += "@" + language_;
  } else if (!datatype_.empty()) {
    out += "^^<" + datatype_ + ">";
  }
  return out;
}

size_t Term::NTriplesSize() const {
  if (is_iri()) return is_blank() ? lexical_.size() : lexical_.size() + 2;
  // Quotes, plus one backslash per character EscapeNTriples escapes.
  size_t n = lexical_.size() + 2;
  for (char c : lexical_) {
    if (c == '\\' || c == '"' || c == '\n' || c == '\r' || c == '\t') ++n;
  }
  if (!language_.empty()) {
    n += 1 + language_.size();  // @lang
  } else if (!datatype_.empty()) {
    n += 4 + datatype_.size();  // ^^<dt>
  }
  return n;
}

}  // namespace sofya
