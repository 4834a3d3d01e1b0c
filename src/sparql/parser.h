// Textual SPARQL parser for the SELECT subset the engine evaluates.
//
// Grammar (a strict subset of SPARQL 1.1):
//
//   query    := prologue 'SELECT' 'DISTINCT'? ('*' | Var+)
//               'WHERE' '{' (clause | filter | values)* '}' modifier*
//   prologue := ('PREFIX' PNAME ':' IRIREF)*
//   clause   := term term term '.'
//   filter   := 'FILTER' '(' cond ')'
//   cond     := Var ('='|'!=') (Var | term)
//             | ('isIRI'|'isLiteral') '(' Var ')'
//   values   := 'VALUES' '(' Var+ ')' '{' ('(' constant+ ')')* '}'
//   term     := constant | Var
//   constant := IRIREF | prefixed-name | literal
//   modifier := 'LIMIT' INT | 'OFFSET' INT
//
// At most one `values` block per query; each of its rows holds exactly one
// constant per variable (UNDEF is a parse error). An INT that does not fit
// in 64 bits is a parse error. Keywords are case-insensitive. Constant
// terms are interned through the caller-supplied TermInterner (a Dictionary
// or an Endpoint), so parsed queries are immediately evaluable against that
// dataset.

#ifndef SOFYA_SPARQL_PARSER_H_
#define SOFYA_SPARQL_PARSER_H_

#include <functional>
#include <string_view>

#include "rdf/dictionary.h"
#include "rdf/namespaces.h"
#include "sparql/query.h"
#include "util/status.h"

namespace sofya {

/// Resolves a constant term to a TermId in the target dataset's id space.
using TermInterner = std::function<TermId(const Term&)>;

/// Parses `text` into a SelectQuery, interning constants via `intern`.
/// `prefixes`, when given, seeds the prologue's prefix table (PREFIX
/// declarations in the query extend/override it).
StatusOr<SelectQuery> ParseSelectQuery(std::string_view text,
                                       const TermInterner& intern,
                                       const PrefixMap* prefixes = nullptr);

/// Convenience: intern into a Dictionary.
StatusOr<SelectQuery> ParseSelectQuery(std::string_view text,
                                       Dictionary* dict,
                                       const PrefixMap* prefixes = nullptr);

}  // namespace sofya

#endif  // SOFYA_SPARQL_PARSER_H_
