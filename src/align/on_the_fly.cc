#include "align/on_the_fly.h"

#include <algorithm>

#include "util/string_util.h"

namespace sofya {

OnTheFlyAligner::OnTheFlyAligner(Endpoint* candidate_kb,
                                 Endpoint* reference_kb,
                                 const SameAsIndex* links,
                                 AlignerOptions options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      aligner_(candidate_kb, reference_kb, links, options) {}

StatusOr<const AlignmentResult*> OnTheFlyAligner::AlignCached(const Term& r) {
  auto it = cache_.find(r);
  if (it != cache_.end()) return &it->second;
  SOFYA_ASSIGN_OR_RETURN(AlignmentResult result, aligner_.Align(r));
  ++alignments_performed_;
  auto [inserted, _] = cache_.emplace(r, std::move(result));
  return &inserted->second;
}

StatusOr<std::vector<const AlignmentResult*>> OnTheFlyAligner::AlignManyCached(
    std::span<const Term> relations, size_t num_threads) {
  // Collect the distinct relations that still need work.
  std::vector<Term> pending;
  for (const Term& r : relations) {
    if (cache_.find(r) != cache_.end()) continue;
    if (std::find(pending.begin(), pending.end(), r) != pending.end()) {
      continue;
    }
    pending.push_back(r);
  }

  if (!pending.empty()) {
    AlignManyOptions fan_out;
    fan_out.num_threads = num_threads;
    SOFYA_ASSIGN_OR_RETURN(AlignManyResult fleet,
                           aligner_.AlignMany(pending, fan_out));
    alignments_performed_ += fleet.results.size();
    for (size_t i = 0; i < fleet.results.size(); ++i) {
      cache_.emplace(pending[i], std::move(fleet.results[i]));
    }
  }

  std::vector<const AlignmentResult*> out;
  out.reserve(relations.size());
  for (const Term& r : relations) out.push_back(&cache_.at(r));
  return out;
}

StatusOr<Term> OnTheFlyAligner::BestCandidateFor(const Term& r) {
  SOFYA_ASSIGN_OR_RETURN(const AlignmentResult* result, AlignCached(r));

  const CandidateVerdict* best = nullptr;
  auto conf = [&](const CandidateVerdict& v) {
    return aligner_.options().measure == ConfidenceMeasure::kPca
               ? v.rule.pca_conf
               : v.rule.cwa_conf;
  };
  // Prefer equivalences; within a tier, highest confidence wins.
  for (const auto& v : result->verdicts) {
    if (!v.accepted) continue;
    if (best == nullptr) {
      best = &v;
      continue;
    }
    const bool v_better_tier = v.equivalence && !best->equivalence;
    const bool same_tier = v.equivalence == best->equivalence;
    if (v_better_tier || (same_tier && conf(v) > conf(*best))) {
      best = &v;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        StrFormat("no accepted alignment for relation '%s'",
                  r.lexical().c_str()));
  }
  return best->relation;
}

StatusOr<SelectQuery> OnTheFlyAligner::RewriteQuery(
    const SelectQuery& reference_query) {
  SOFYA_RETURN_IF_ERROR(reference_query.Validate());
  SelectQuery rewritten;
  for (size_t v = 0; v < reference_query.num_vars(); ++v) {
    rewritten.NewVar(reference_query.var_name(static_cast<VarId>(v)));
  }

  auto rewrite_node = [&](const NodeRef& node,
                          bool is_predicate) -> StatusOr<NodeRef> {
    if (node.is_var()) return node;
    SOFYA_ASSIGN_OR_RETURN(Term term,
                           reference_kb_->DecodeTerm(node.term()));
    if (is_predicate) {
      SOFYA_ASSIGN_OR_RETURN(Term candidate, BestCandidateFor(term));
      return NodeRef::Constant(candidate_kb_->EncodeTerm(candidate));
    }
    if (term.is_literal()) {
      return NodeRef::Constant(candidate_kb_->EncodeTerm(term));
    }
    SOFYA_ASSIGN_OR_RETURN(Term translated,
                           aligner_.to_candidate().Translate(term));
    return NodeRef::Constant(candidate_kb_->EncodeTerm(translated));
  };

  for (const PatternClause& clause : reference_query.clauses()) {
    SOFYA_ASSIGN_OR_RETURN(NodeRef s, rewrite_node(clause.subject, false));
    SOFYA_ASSIGN_OR_RETURN(NodeRef p, rewrite_node(clause.predicate, true));
    SOFYA_ASSIGN_OR_RETURN(NodeRef o, rewrite_node(clause.object, false));
    rewritten.Where(s, p, o);
  }
  for (FilterExpr filter : reference_query.filters()) {
    if (filter.kind == FilterExpr::Kind::kVarEqTerm ||
        filter.kind == FilterExpr::Kind::kVarNeqTerm) {
      SOFYA_ASSIGN_OR_RETURN(Term term,
                             reference_kb_->DecodeTerm(filter.rhs_term));
      Term translated = term;
      if (term.is_iri()) {
        SOFYA_ASSIGN_OR_RETURN(translated,
                               aligner_.to_candidate().Translate(term));
      }
      filter.rhs_term = candidate_kb_->EncodeTerm(translated);
    }
    rewritten.Filter(filter);
  }
  rewritten.Select(reference_query.projection());
  rewritten.Distinct(reference_query.distinct());
  rewritten.Limit(reference_query.limit());
  rewritten.Offset(reference_query.offset());
  return rewritten;
}

}  // namespace sofya
