#include "sparql/planner.h"

#include <algorithm>
#include <array>
#include <limits>
#include <span>

#include "util/string_util.h"

namespace sofya {

namespace {

/// True when a position is fixed before this clause scans: a constant, or a
/// variable some earlier stage binds.
bool IsBound(const NodeRef& ref, const std::vector<bool>& bound) {
  return !ref.is_var() || bound[ref.var()];
}

/// The binding context a clause would be costed/scanned in: bit 0/1/2 set
/// when the subject/predicate/object position is fixed (constant or bound
/// variable) before the clause scans.
uint8_t BoundSig(bool s_bound, bool p_bound, bool o_bound) {
  return static_cast<uint8_t>((s_bound ? 1 : 0) | (p_bound ? 2 : 0) |
                              (o_bound ? 4 : 0));
}

/// v1 statistics-driven row estimate for `clause` given which positions are
/// fixed. The model: a clause starts from the cardinality of its predicate
/// (exact, from PredicateStats) and every bound subject/object position
/// divides by the matching distinct count — the classical uniform-
/// distribution selectivity. Variable predicates fall back to whole-store
/// aggregates (GlobalStats). Estimates are clamped to ≥1 except for the
/// provably-empty case (absent predicate), which estimates 0 so the planner
/// front-loads it and the pipeline drains immediately.
double EstimateRowsV1(const PatternClause& clause, bool s_bound, bool p_bound,
                      bool o_bound, const TripleStore& store,
                      const StoreStats& global) {
  auto shrink = [](double est, size_t distinct) {
    return est / static_cast<double>(distinct > 0 ? distinct : 1);
  };

  if (!clause.predicate.is_var()) {
    const PredicateStats stats = store.StatsFor(clause.predicate.term());
    if (stats.facts == 0) return 0.0;  // Provably empty clause.
    double est = static_cast<double>(stats.facts);
    if (s_bound) est = shrink(est, stats.distinct_subjects);
    if (o_bound) est = shrink(est, stats.distinct_objects);
    return std::max(est, 1.0);
  }

  if (global.triples == 0) return 0.0;
  double est = static_cast<double>(global.triples);
  if (p_bound) est = shrink(est, global.distinct_predicates);
  if (s_bound) est = shrink(est, global.distinct_subjects);
  if (o_bound) est = shrink(est, global.distinct_objects);
  return std::max(est, 1.0);
}

/// v2 estimate (the DP planner's cardinality input). Constant positions are
/// resolved with an *exact* range-width probe — every constant shape is a
/// full prefix of one sorted per-shard index, so CountMatches is two binary
/// searches per shard, not a scan. Positions joined to an upstream binding
/// shrink the exact base by a per-binding fan-out ratio taken from the
/// equi-depth histogram's frequency-weighted mean (skew-aware: join values
/// arrive weighted by their frequency), falling back to the uniform
/// facts/distinct average when a histogram side is empty.
double EstimateRowsV2(const PatternClause& clause, bool s_bound, bool p_bound,
                      bool o_bound, const TripleStore& store,
                      const StoreStats& global) {
  if (clause.predicate.is_var()) {
    // No per-predicate index prefix to probe; the v1 global fallback is
    // the best available input.
    return EstimateRowsV1(clause, s_bound, p_bound, o_bound, store, global);
  }
  const TermId p = clause.predicate.term();
  const bool s_const = !clause.subject.is_var();
  const bool o_const = !clause.object.is_var();
  const bool s_join = !s_const && s_bound;
  const bool o_join = !o_const && o_bound;

  const size_t base = store.CountMatches(
      TriplePattern(s_const ? clause.subject.term() : kNullTermId, p,
                    o_const ? clause.object.term() : kNullTermId));
  if (base == 0) return 0.0;  // Provably empty clause.
  double est = static_cast<double>(base);
  if (s_join || o_join) {
    const PredicateStats stats = store.StatsFor(p);
    const PredicateHistograms hist = store.HistogramFor(p);
    const double facts =
        static_cast<double>(stats.facts > 0 ? stats.facts : 1);
    auto shrink = [&](double est_in, size_t distinct,
                      const TermHistogram& h) {
      double fanout = h.ExpectedFanout();
      if (fanout <= 0.0) {
        fanout = facts / static_cast<double>(distinct > 0 ? distinct : 1);
      }
      return est_in * (fanout / facts);
    };
    if (s_join) est = shrink(est, stats.distinct_subjects, hist.subjects);
    if (o_join) est = shrink(est, stats.distinct_objects, hist.objects);
  }
  return std::max(est, 1.0);
}

/// True when `clause` shares at least one already-bound variable — i.e.
/// scanning it next is a join, not a cross product.
bool SharesBoundVar(const PatternClause& clause,
                    const std::vector<bool>& bound) {
  const NodeRef* refs[3] = {&clause.subject, &clause.predicate,
                            &clause.object};
  for (const NodeRef* ref : refs) {
    if (ref->is_var() && bound[ref->var()]) return true;
  }
  return false;
}

std::string RenderNode(const NodeRef& ref, const SelectQuery& query,
                       const Dictionary* dict) {
  if (ref.is_var()) return "?" + query.var_name(ref.var());
  if (dict != nullptr && dict->Contains(ref.term())) {
    return dict->Decode(ref.term()).ToNTriples();
  }
  return StrFormat("#%u", ref.term());
}

std::string RenderFilter(const FilterExpr& f, const SelectQuery& query,
                         const Dictionary* dict) {
  auto var = [&](VarId v) { return "?" + query.var_name(v); };
  auto term = [&](TermId t) {
    if (dict != nullptr && dict->Contains(t)) {
      return dict->Decode(t).ToNTriples();
    }
    return StrFormat("#%u", t);
  };
  switch (f.kind) {
    case FilterExpr::Kind::kVarEqVar:
      return var(f.lhs) + " = " + var(f.rhs_var);
    case FilterExpr::Kind::kVarNeqVar:
      return var(f.lhs) + " != " + var(f.rhs_var);
    case FilterExpr::Kind::kVarEqTerm:
      return var(f.lhs) + " = " + term(f.rhs_term);
    case FilterExpr::Kind::kVarNeqTerm:
      return var(f.lhs) + " != " + term(f.rhs_term);
    case FilterExpr::Kind::kIsIri:
      return "isIRI(" + var(f.lhs) + ")";
    case FilterExpr::Kind::kIsLiteral:
      return "isLiteral(" + var(f.lhs) + ")";
  }
  return "?";
}

/// One chosen clause in planned order, with the estimates the order was
/// derived from (fed into CompiledClause by the shared assembly pass).
struct OrderChoice {
  size_t source_index = 0;
  double estimated_rows = -1.0;         // Per-stage fan-out estimate.
  double estimated_output_rows = -1.0;  // Cumulative chain cardinality.
};

/// Greedy min-cost ordering (the DP's fallback) with three tiers: a
/// provably-empty clause always wins (executing it first drains the
/// pipeline for free), clauses joined to the bound set come before cross
/// products, and within a tier the cheapest estimate wins. Strict
/// lexicographic < over (tier, estimate) with in-order iteration makes the
/// first minimum win ties — the planner is a pure function of (query,
/// epoch).
std::vector<OrderChoice> ChooseOrderGreedy(const SelectQuery& query,
                                           const TripleStore& store,
                                           const StoreStats& global) {
  std::vector<size_t> pending;
  pending.reserve(query.clauses().size());
  for (size_t i = 0; i < query.clauses().size(); ++i) pending.push_back(i);
  std::vector<bool> bound(query.num_vars(), false);

  std::vector<OrderChoice> order;
  order.reserve(pending.size());
  double cumulative = 1.0;
  while (!pending.empty()) {
    bool have_connected = false;
    for (size_t pos : pending) {
      if (SharesBoundVar(query.clauses()[pos], bound)) {
        have_connected = true;
        break;
      }
    }
    size_t best_pos = 0;
    double best_estimate = -1.0;
    int best_tier = std::numeric_limits<int>::max();
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < pending.size(); ++i) {
      const PatternClause& clause = query.clauses()[pending[i]];
      const double est = EstimateRowsV1(
          clause, IsBound(clause.subject, bound),
          IsBound(clause.predicate, bound), IsBound(clause.object, bound),
          store, global);
      const bool connected = !have_connected || SharesBoundVar(clause, bound);
      const int tier = est == 0.0 ? 0 : (connected ? 1 : 2);
      if (tier < best_tier || (tier == best_tier && est < best_cost)) {
        best_tier = tier;
        best_cost = est;
        best_estimate = est;
        best_pos = i;
      }
    }
    const size_t source_index = pending[best_pos];
    pending.erase(pending.begin() + static_cast<ptrdiff_t>(best_pos));
    const PatternClause& chosen = query.clauses()[source_index];
    const NodeRef* refs[3] = {&chosen.subject, &chosen.predicate,
                              &chosen.object};
    for (const NodeRef* ref : refs) {
      if (ref->is_var()) bound[ref->var()] = true;
    }
    cumulative *= best_estimate;
    order.push_back(OrderChoice{source_index, best_estimate, cumulative});
  }
  return order;
}

/// Selinger-style DP over clause subsets. State = bitmask of placed clauses;
/// value = (cumulative cost, estimated intermediate cardinality, last clause
/// placed). The recurrence charges each extension the probes driven by the
/// current intermediate plus the rows it emits:
///
///   cost(S ∪ {j}) = cost(S) + card(S) + card(S)·est(j | vars(S))
///   card(S ∪ {j}) =                     card(S)·est(j | vars(S))
///
/// with card(∅) = 1, so unlike the greedy pass a locally-cheap clause that
/// inflates the intermediate is charged for everything downstream of it.
/// Determinism: masks and clauses iterate ascending with strict <, so the
/// first minimum wins every tie and the result is a pure function of
/// (query, store epoch). Sets *ok=false (caller falls back to greedy) when
/// a variable id exceeds the 64-bit mask width.
std::vector<OrderChoice> ChooseOrderDp(const SelectQuery& query,
                                       const TripleStore& store,
                                       const StoreStats& global, bool* ok) {
  *ok = true;
  const auto& clauses = query.clauses();
  const size_t n = clauses.size();
  if (n == 0) return {};

  // Per-clause variable bitmask; vars(S) folds these over the subset.
  std::vector<uint64_t> clause_vars(n, 0);
  for (size_t j = 0; j < n; ++j) {
    const NodeRef* refs[3] = {&clauses[j].subject, &clauses[j].predicate,
                              &clauses[j].object};
    for (const NodeRef* ref : refs) {
      if (!ref->is_var()) continue;
      if (ref->var() >= 64) {
        *ok = false;
        return {};
      }
      clause_vars[j] |= uint64_t{1} << ref->var();
    }
  }

  const size_t full = (size_t{1} << n) - 1;
  std::vector<uint64_t> mask_vars(full + 1, 0);
  for (size_t mask = 1; mask <= full; ++mask) {
    size_t low = 0;
    while (((mask >> low) & 1) == 0) ++low;
    mask_vars[mask] = mask_vars[mask & (mask - 1)] | clause_vars[low];
  }

  // est(j | vars) depends only on which of j's three positions are fixed,
  // so an 8-entry memo per clause bounds the store probes (CountMatches /
  // HistogramFor) regardless of how many DP states consult the clause.
  std::vector<std::array<double, 8>> memo(n);
  for (auto& m : memo) m.fill(-1.0);
  auto estimate = [&](size_t j, uint64_t vars) {
    const PatternClause& c = clauses[j];
    const bool sb = !c.subject.is_var() || ((vars >> c.subject.var()) & 1);
    const bool pb = !c.predicate.is_var() || ((vars >> c.predicate.var()) & 1);
    const bool ob = !c.object.is_var() || ((vars >> c.object.var()) & 1);
    double& slot = memo[j][BoundSig(sb, pb, ob)];
    if (slot < 0.0) {
      slot = EstimateRowsV2(c, sb, pb, ob, store, global);
    }
    return slot;
  };

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> cost(full + 1, kInf);
  std::vector<double> card(full + 1, 0.0);
  std::vector<int> last(full + 1, -1);
  cost[0] = 0.0;
  card[0] = 1.0;
  for (size_t mask = 0; mask <= full; ++mask) {
    if (cost[mask] == kInf) continue;
    for (size_t j = 0; j < n; ++j) {
      if ((mask >> j) & 1) continue;
      const size_t next = mask | (size_t{1} << j);
      const double est = estimate(j, mask_vars[mask]);
      const double new_cost = cost[mask] + card[mask] + card[mask] * est;
      if (new_cost < cost[next]) {
        cost[next] = new_cost;
        card[next] = card[mask] * est;
        last[next] = static_cast<int>(j);
      }
    }
  }

  std::vector<size_t> sequence;
  sequence.reserve(n);
  for (size_t mask = full; mask != 0;) {
    const size_t j = static_cast<size_t>(last[mask]);
    sequence.push_back(j);
    mask &= ~(size_t{1} << j);
  }
  std::reverse(sequence.begin(), sequence.end());

  // Replay forward so the recorded estimates are exactly the ones the DP
  // costed each stage with (same memo), plus the cumulative chain.
  std::vector<OrderChoice> order;
  order.reserve(n);
  uint64_t vars = 0;
  double cumulative = 1.0;
  for (size_t j : sequence) {
    const double est = estimate(j, vars);
    cumulative *= est;
    order.push_back(OrderChoice{j, est, cumulative});
    vars |= clause_vars[j];
  }
  return order;
}

/// Builds the plan from a chosen clause order: classifies slots, attaches
/// filters and resolves the projection. Runs identically whichever search
/// produced the order.
void AssemblePlan(const SelectQuery& query, std::span<const OrderChoice> order,
                  CompiledPlan& plan) {
  const size_t num_vars = query.num_vars();
  std::vector<bool> bound(num_vars, false);
  std::vector<bool> filter_attached(query.filters().size(), false);
  plan.clauses.reserve(order.size());
  for (const OrderChoice& oc : order) {
    const PatternClause& chosen = query.clauses()[oc.source_index];

    CompiledClause cc;
    cc.source_index = oc.source_index;
    cc.estimated_rows = oc.estimated_rows;
    cc.estimated_output_rows = oc.estimated_output_rows;
    const NodeRef* refs[3] = {&chosen.subject, &chosen.predicate,
                              &chosen.object};
    std::vector<bool> bound_here(num_vars, false);
    for (int i = 0; i < 3; ++i) {
      CompiledSlot& slot = cc.slots[i];
      if (!refs[i]->is_var()) {
        slot.kind = SlotKind::kConst;
        slot.constant = refs[i]->term();
        continue;
      }
      const VarId v = refs[i]->var();
      slot.var = v;
      if (bound[v]) {
        slot.kind = SlotKind::kBoundVar;
      } else if (bound_here[v]) {
        slot.kind = SlotKind::kCheck;
      } else {
        slot.kind = SlotKind::kBind;
        bound_here[v] = true;
      }
    }
    for (VarId v = 0; v < static_cast<VarId>(num_vars); ++v) {
      if (bound_here[v]) bound[v] = true;
    }

    // Attach every filter that just became fully bound.
    for (size_t fi = 0; fi < query.filters().size(); ++fi) {
      if (filter_attached[fi]) continue;
      const FilterExpr& f = query.filters()[fi];
      const bool needs_rhs = f.kind == FilterExpr::Kind::kVarEqVar ||
                             f.kind == FilterExpr::Kind::kVarNeqVar;
      if (bound[f.lhs] && (!needs_rhs || bound[f.rhs_var])) {
        cc.filters.push_back(f);
        filter_attached[fi] = true;
      }
    }
    plan.clauses.push_back(std::move(cc));
  }

  plan.dangling_filter =
      std::find(filter_attached.begin(), filter_attached.end(), false) !=
      filter_attached.end();

  plan.projection = query.ResolvedProjection();

  // `{ ?s ?p ?o }` projected on ?p alone: the predicate directory already
  // holds its distinct answers. A repeated variable ({?x ?p ?x}), a
  // constant, a filter or a wider projection keeps the pipeline.
  if (query.clauses().size() == 1 && query.filters().empty() &&
      plan.projection.size() == 1) {
    const PatternClause& c = query.clauses()[0];
    plan.predicate_directory =
        c.subject.is_var() && c.predicate.is_var() && c.object.is_var() &&
        c.subject.var() != c.predicate.var() &&
        c.subject.var() != c.object.var() &&
        c.predicate.var() != c.object.var() &&
        plan.projection[0] == c.predicate.var();
  }
}

}  // namespace

CompiledPlan CompilePlan(const SelectQuery& query, const TripleStore& store) {
  CompiledPlan plan;
  plan.store_epoch = store.mutation_epoch();
  const StoreStats global = store.GlobalStats();

  std::vector<OrderChoice> order;
  if (query.clauses().size() <= kDpMaxClauses) {
    order = ChooseOrderDp(query, store, global, &plan.used_dp);
  }
  if (!plan.used_dp) order = ChooseOrderGreedy(query, store, global);
  AssemblePlan(query, order, plan);
  return plan;
}

CompiledPlan CompileOneClausePlan(const SelectQuery& query) {
  CompiledPlan plan;
  const OrderChoice only;  // Clause 0, no estimates.
  AssemblePlan(query, std::span<const OrderChoice>(&only, 1), plan);
  return plan;
}

PlanExplain ExplainPlan(const CompiledPlan& plan, const SelectQuery& query,
                        const Dictionary* dict) {
  PlanExplain out;
  out.used_dp = plan.used_dp;
  out.predicate_directory = UsesPredicateDirectory(plan, query);
  out.store_epoch = plan.store_epoch;
  out.dangling_filter = plan.dangling_filter;
  for (const CompiledClause& cc : plan.clauses) {
    const PatternClause& src = query.clauses()[cc.source_index];
    ClauseExplain ce;
    ce.source_index = cc.source_index;
    ce.estimated_rows = cc.estimated_rows;
    ce.estimated_output_rows = cc.estimated_output_rows;
    ce.pattern = RenderNode(src.subject, query, dict) + " " +
                 RenderNode(src.predicate, query, dict) + " " +
                 RenderNode(src.object, query, dict);
    for (const FilterExpr& f : cc.filters) {
      ce.filters.push_back(RenderFilter(f, query, dict));
    }
    out.clauses.push_back(std::move(ce));
  }
  for (VarId v : plan.projection) out.projection.push_back(query.var_name(v));
  return out;
}

std::string PlanExplain::ToString() const {
  std::string out;
  const char* planner =
      used_dp ? "statistics planner (dp)" : "statistics planner (greedy)";
  out += StrFormat("plan: %s, epoch %llu%s\n", planner,
                   static_cast<unsigned long long>(store_epoch),
                   from_cache ? ", cached" : "");
  if (predicate_directory) {
    out += "  access: predicate directory (distinct predicates, no scan)\n";
  }
  if (dangling_filter) {
    out +=
        "  !! dangling filter (mentions a never-bound variable): "
        "result is empty by SPARQL semantics\n";
  }
  for (size_t i = 0; i < clauses.size(); ++i) {
    const ClauseExplain& ce = clauses[i];
    out += StrFormat("  %zu. clause #%zu  { %s }", i + 1, ce.source_index,
                     ce.pattern.c_str());
    if (ce.estimated_rows >= 0) {
      out += StrFormat("  est_rows=%.1f", ce.estimated_rows);
    }
    if (ce.estimated_output_rows >= 0) {
      out += StrFormat("  est_out=%.1f", ce.estimated_output_rows);
    }
    if (ce.actual_rows >= 0) {
      out += StrFormat("  actual=%lld",
                       static_cast<long long>(ce.actual_rows));
    }
    out += '\n';
    for (const std::string& f : ce.filters) {
      out += "       FILTER(" + f + ")\n";
    }
  }
  out += "  project:";
  for (const std::string& name : projection) out += " ?" + name;
  out += '\n';
  return out;
}

std::string PlanExplain::ToJson() const {
  auto escape = [](const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
      switch (c) {
        case '"':
          out += "\\\"";
          break;
        case '\\':
          out += "\\\\";
          break;
        case '\n':
          out += "\\n";
          break;
        case '\t':
          out += "\\t";
          break;
        case '\r':
          out += "\\r";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out += StrFormat("\\u%04x", c);
          } else {
            out += c;
          }
      }
    }
    return out;
  };

  std::string out = "{";
  out += StrFormat(
      "\"used_dp\":%s,\"access\":\"%s\",\"from_cache\":%s,"
      "\"store_epoch\":%llu,\"dangling_filter\":%s,",
      used_dp ? "true" : "false",
      predicate_directory ? "predicate_directory" : "pipeline",
      from_cache ? "true" : "false",
      static_cast<unsigned long long>(store_epoch),
      dangling_filter ? "true" : "false");
  out += "\"clauses\":[";
  for (size_t i = 0; i < clauses.size(); ++i) {
    const ClauseExplain& ce = clauses[i];
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"source_index\":%zu,\"pattern\":\"%s\",\"estimated_rows\":%.3f,"
        "\"estimated_output_rows\":%.3f,\"actual_rows\":%lld,\"filters\":[",
        ce.source_index, escape(ce.pattern).c_str(), ce.estimated_rows,
        ce.estimated_output_rows, static_cast<long long>(ce.actual_rows));
    for (size_t fi = 0; fi < ce.filters.size(); ++fi) {
      if (fi > 0) out += ',';
      out += '"' + escape(ce.filters[fi]) + '"';
    }
    out += "]}";
  }
  out += "],\"projection\":[";
  for (size_t i = 0; i < projection.size(); ++i) {
    if (i > 0) out += ',';
    out += '"' + escape(projection[i]) + '"';
  }
  out += "]}";
  return out;
}

}  // namespace sofya
