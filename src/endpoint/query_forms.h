// Canned SELECT query shapes used by the samplers and examples.
//
// Keeping the concrete SPARQL shapes in one place documents exactly what
// SOFYA asks a remote dataset (Section 2.2 of the paper describes these
// queries informally).

#ifndef SOFYA_ENDPOINT_QUERY_FORMS_H_
#define SOFYA_ENDPOINT_QUERY_FORMS_H_

#include <cstdint>

#include "rdf/term.h"
#include "sparql/query.h"

namespace sofya::queries {

/// SELECT ?x ?y WHERE { ?x <p> ?y } [OFFSET o] [LIMIT n]
SelectQuery FactsOfPredicate(TermId p, uint64_t limit = kNoLimit,
                             uint64_t offset = 0);

/// SELECT DISTINCT ?x WHERE { ?x <p> ?y } [OFFSET o] [LIMIT n]
SelectQuery SubjectsOfPredicate(TermId p, uint64_t limit = kNoLimit,
                                uint64_t offset = 0);

/// SELECT ?y WHERE { <s> <p> ?y }
SelectQuery ObjectsOf(TermId s, TermId p);

/// SELECT ?p ?y WHERE { <s> ?p ?y }
SelectQuery FactsOfSubject(TermId s);

/// SELECT ?p WHERE { <s> ?p <o> }  — predicates linking two entities.
SelectQuery PredicatesBetween(TermId s, TermId o);

/// SELECT ?e WHERE { <x> <sameas> ?e } — cross-KB links of an entity.
SelectQuery SameAsOf(TermId x, TermId same_as_predicate);

/// SELECT DISTINCT ?p WHERE { ?s ?p ?o } — the predicate inventory
/// (schema discovery; FetchPredicateInventory pages it, and the lexical
/// candidate index is built from it). The in-process engine answers this
/// shape from the store's predicate directory in ascending id order, with
/// no scan (docs/QUERY_ENGINE.md).
SelectQuery AllPredicates(uint64_t limit = kNoLimit, uint64_t offset = 0);

/// SELECT ?x ?y1 ?y2 WHERE { ?x <p1> ?y1 . ?x <p2> ?y2 .
///                           FILTER(?y1 != ?y2) } [LIMIT n]
/// The UBS strategy-B probe: subjects where two relations disagree.
SelectQuery SubjectsWithDisagreeingObjects(TermId p1, TermId p2,
                                           uint64_t limit = kNoLimit);

/// SELECT DISTINCT ?x WHERE { ?x <p1> ?y1 . ?x <p2> ?y2 } [LIMIT n]
/// The UBS strategy-A probe: subjects in the domain overlap of two
/// relations.
SelectQuery SubjectsInDomainOverlap(TermId p1, TermId p2,
                                    uint64_t limit = kNoLimit);

}  // namespace sofya::queries

#endif  // SOFYA_ENDPOINT_QUERY_FORMS_H_
