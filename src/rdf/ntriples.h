// N-Triples (W3C) line-based parser and serializer.
//
// Supported term syntax: `<iri>`, `_:label`, `"lexical"`, `"lexical"@lang`,
// `"lexical"^^<datatype>`. Comment lines (#...) and blank lines are skipped.
// Parsing is strict enough to reject malformed lines with a ParseError that
// carries the line number.

#ifndef SOFYA_RDF_NTRIPLES_H_
#define SOFYA_RDF_NTRIPLES_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "util/status.h"

namespace sofya {

/// Result of parsing one N-Triples document.
struct NTriplesParseReport {
  size_t lines_read = 0;      ///< Total lines seen (incl. comments/blank).
  size_t triples_parsed = 0;  ///< Triples successfully added.
};

/// Parses a single term starting at `*pos` inside `line`; advances `*pos`
/// past the term. Exposed for tests.
StatusOr<Term> ParseNTriplesTerm(std::string_view line, size_t* pos);

/// Parses one N-Triples line into (s, p, o) terms. The line must end with
/// '.' (whitespace-tolerant). Comment/blank lines yield kNotFound, which
/// stream-level parsing treats as "skip".
Status ParseNTriplesLine(std::string_view line, Term* s, Term* p, Term* o);

/// Parses an entire document from `in`, interning terms into `dict` and
/// inserting triples into `store`. Runs inside a store bulk-load scope: the
/// mutation epoch bumps once per document (not per triple).
/// `expected_triples`, when non-zero, pre-reserves store hash capacity
/// (callers with a file size can estimate ~one triple per 120 bytes).
StatusOr<NTriplesParseReport> ParseNTriples(std::istream& in,
                                            Dictionary* dict,
                                            TripleStore* store,
                                            size_t expected_triples = 0);

/// Convenience overload for in-memory documents.
StatusOr<NTriplesParseReport> ParseNTriplesString(std::string_view document,
                                                  Dictionary* dict,
                                                  TripleStore* store);

/// Serializes every triple in `store` (SPO order) as N-Triples.
Status WriteNTriples(const TripleStore& store, const Dictionary& dict,
                     std::ostream& out);

/// Serializes to a string; convenience for tests.
StatusOr<std::string> WriteNTriplesString(const TripleStore& store,
                                          const Dictionary& dict);

}  // namespace sofya

#endif  // SOFYA_RDF_NTRIPLES_H_
