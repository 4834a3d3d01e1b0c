// RDF terms: IRIs and (optionally typed / language-tagged) literals.
//
// Terms are the *decoded* representation; inside a TripleStore every term is
// dictionary-encoded to a 32-bit TermId (see rdf/dictionary.h). Blank nodes
// are represented as IRIs in the reserved "_:" namespace — sufficient for
// SOFYA, which never needs blank-node scoping across documents.

#ifndef SOFYA_RDF_TERM_H_
#define SOFYA_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "util/hash.h"

namespace sofya {

/// Dictionary-encoded term identifier. 0 is reserved: it means "no term"
/// (and, in triple patterns, "wildcard").
using TermId = uint32_t;

/// The reserved null/wildcard id.
inline constexpr TermId kNullTermId = 0;

/// A constant the dataset does not hold: SparqlServer parses query
/// constants by lookup and never interns them. No dictionary assigns this
/// id and no triple carries it, so a pattern naming it matches nothing and
/// `FILTER(?x != <unknown>)` holds. Unlike kNullTermId it is no wildcard.
inline constexpr TermId kUnknownTermId = 0xffffffffu;

/// Kind of an RDF term.
enum class TermKind : uint8_t {
  kIri = 0,      ///< IRI reference (includes blank nodes as "_:...").
  kLiteral = 1,  ///< Literal with optional datatype IRI or language tag.
};

/// An RDF term value.
///
/// Immutable after construction; use the named constructors.
class Term {
 public:
  Term() : kind_(TermKind::kIri) {}

  /// Creates an IRI term (also used for blank nodes "_:bN").
  static Term Iri(std::string iri) {
    Term t;
    t.kind_ = TermKind::kIri;
    t.lexical_ = std::move(iri);
    return t;
  }

  /// Creates a plain literal.
  static Term Literal(std::string lexical) {
    Term t;
    t.kind_ = TermKind::kLiteral;
    t.lexical_ = std::move(lexical);
    return t;
  }

  /// Creates a typed literal ("42"^^xsd:integer).
  static Term TypedLiteral(std::string lexical, std::string datatype_iri) {
    Term t;
    t.kind_ = TermKind::kLiteral;
    t.lexical_ = std::move(lexical);
    t.datatype_ = std::move(datatype_iri);
    return t;
  }

  /// Creates a language-tagged literal ("Wien"@de).
  static Term LangLiteral(std::string lexical, std::string lang) {
    Term t;
    t.kind_ = TermKind::kLiteral;
    t.lexical_ = std::move(lexical);
    t.language_ = std::move(lang);
    return t;
  }

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const {
    return is_iri() && lexical_.size() >= 2 && lexical_[0] == '_' &&
           lexical_[1] == ':';
  }

  /// IRI string for IRIs, lexical form for literals.
  const std::string& lexical() const { return lexical_; }
  /// Datatype IRI; empty for plain/lang literals and IRIs.
  const std::string& datatype() const { return datatype_; }
  /// Language tag; empty unless a language-tagged literal.
  const std::string& language() const { return language_; }

  /// Canonical N-Triples surface form: `<iri>`, `"lex"`, `"lex"@lang`,
  /// `"lex"^^<dt>`, or `_:bN`. This string is also the dictionary key, so
  /// equality of encodings implies equality of terms.
  std::string ToNTriples() const;

  /// ToNTriples().size(), counted without building the string.
  size_t NTriplesSize() const;

  friend bool operator==(const Term& a, const Term& b) {
    return a.kind_ == b.kind_ && a.lexical_ == b.lexical_ &&
           a.datatype_ == b.datatype_ && a.language_ == b.language_;
  }
  friend bool operator!=(const Term& a, const Term& b) { return !(a == b); }

  /// Total order (kind, lexical, datatype, language) for sorted containers.
  friend bool operator<(const Term& a, const Term& b) {
    if (a.kind_ != b.kind_) return a.kind_ < b.kind_;
    if (a.lexical_ != b.lexical_) return a.lexical_ < b.lexical_;
    if (a.datatype_ != b.datatype_) return a.datatype_ < b.datatype_;
    return a.language_ < b.language_;
  }

 private:
  TermKind kind_;
  std::string lexical_;
  std::string datatype_;
  std::string language_;
};

/// Hash functor for Term (combines all fields).
struct TermHash {
  size_t operator()(const Term& t) const {
    size_t seed = static_cast<size_t>(t.kind());
    HashCombine(seed, t.lexical());
    HashCombine(seed, t.datatype());
    HashCombine(seed, t.language());
    return seed;
  }
};

/// Common XSD datatype IRIs used by the generator and literal matcher.
namespace xsd {
inline constexpr std::string_view kString = "http://www.w3.org/2001/XMLSchema#string";
inline constexpr std::string_view kInteger = "http://www.w3.org/2001/XMLSchema#integer";
inline constexpr std::string_view kDouble = "http://www.w3.org/2001/XMLSchema#double";
inline constexpr std::string_view kDate = "http://www.w3.org/2001/XMLSchema#date";
inline constexpr std::string_view kGYear = "http://www.w3.org/2001/XMLSchema#gYear";
}  // namespace xsd

}  // namespace sofya

#endif  // SOFYA_RDF_TERM_H_
