#include "sparql/engine.h"

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/hash.h"

namespace sofya {

namespace {

using Row = std::vector<TermId>;  // Indexed by VarId; 0 = unbound.

// Plan cache entries before the memo drops them all and starts over.
constexpr size_t kPlanCacheCapacity = 256;

// Filters are attached to the earliest pipeline stage where every variable
// they mention is bound, so applicability is established statically and this
// only evaluates the predicate.
bool FilterPasses(const FilterExpr& f, const Row& row,
                  const Dictionary* dict) {
  switch (f.kind) {
    case FilterExpr::Kind::kVarEqVar:
      return row[f.lhs] == row[f.rhs_var];
    case FilterExpr::Kind::kVarNeqVar:
      return row[f.lhs] != row[f.rhs_var];
    case FilterExpr::Kind::kVarEqTerm:
      return row[f.lhs] == f.rhs_term;
    case FilterExpr::Kind::kVarNeqTerm:
      return row[f.lhs] != f.rhs_term;
    case FilterExpr::Kind::kIsIri:
      // Without a dictionary term kinds are unknowable; pass conservatively.
      return dict == nullptr || !dict->Contains(row[f.lhs]) ||
             dict->Decode(row[f.lhs]).is_iri();
    case FilterExpr::Kind::kIsLiteral:
      return dict == nullptr || !dict->Contains(row[f.lhs]) ||
             dict->Decode(row[f.lhs]).is_literal();
  }
  return true;
}

struct RowHash {
  size_t operator()(const Row& row) const {
    size_t seed = row.size();
    for (TermId id : row) HashCombine(seed, id);
    return seed;
  }
};

// ---------------------------------------------------------------------------
// Pipeline execution: a cursor per stage over the store's index range for
// the current partial binding. Bindings live in one shared row; no undo is
// needed on backtrack because each stage statically binds the same variable
// set and always overwrites before deeper stages read.
//
// `emit` is called once per solution (full binding row) and returns false to
// stop the whole pipeline — this is how LIMIT and ASK terminate early.

// `stage_rows` points at `plan.clauses.size()` counters that receive
// per-stage accepted-row counts (the EXPLAIN `actual` column).
template <typename Emit>
void RunPlan(const TripleStore& store, const CompiledPlan& plan,
             size_t num_vars, const Dictionary* dict, EvalStats& stats,
             Emit&& emit, uint64_t* stage_rows) {
  if (plan.dangling_filter || plan.clauses.empty()) return;

  // A cursor walks the per-shard spans of one MatchView in shard order;
  // `cur` caches the active span so the inner loop stays branch-cheap.
  struct Cursor {
    MatchView view;
    std::span<const Triple> cur;
    size_t span_i = 0;
    size_t pos = 0;
  };
  std::vector<Cursor> cursors(plan.clauses.size());
  Row bindings(num_vars, kNullTermId);

  auto open = [&](size_t level) {
    const CompiledClause& cc = plan.clauses[level];
    auto resolve = [&](const CompiledSlot& slot) -> TermId {
      switch (slot.kind) {
        case SlotKind::kConst:
          return slot.constant;
        case SlotKind::kBoundVar:
          return bindings[slot.var];
        default:
          return kNullTermId;  // Wildcard.
      }
    };
    ++stats.index_probes;
    Cursor& cursor = cursors[level];
    cursor.view = store.MatchSpans(TriplePattern(
        resolve(cc.slots[0]), resolve(cc.slots[1]), resolve(cc.slots[2])));
    cursor.cur = cursor.view.num_spans() > 0 ? cursor.view.span(0)
                                             : std::span<const Triple>();
    cursor.span_i = 0;
    cursor.pos = 0;
  };

  const size_t depth = plan.clauses.size();
  size_t level = 0;
  open(0);
  while (true) {
    Cursor& cursor = cursors[level];
    const CompiledClause& cc = plan.clauses[level];

    // Advance this stage to its next accepted triple.
    bool advanced = false;
    while (true) {
      if (cursor.pos >= cursor.cur.size()) {
        if (cursor.span_i + 1 < cursor.view.num_spans()) {
          ++cursor.span_i;
          cursor.cur = cursor.view.span(cursor.span_i);
          cursor.pos = 0;
          continue;
        }
        break;  // Every span drained.
      }
      const Triple& t = cursor.cur[cursor.pos++];
      ++stats.triples_scanned;
      const TermId values[3] = {t.subject, t.predicate, t.object};
      bool accepted = true;
      for (int i = 0; i < 3 && accepted; ++i) {
        const CompiledSlot& slot = cc.slots[i];
        switch (slot.kind) {
          case SlotKind::kConst:
            accepted = values[i] == slot.constant;
            break;
          case SlotKind::kBoundVar:
          case SlotKind::kCheck:
            accepted = values[i] == bindings[slot.var];
            break;
          case SlotKind::kBind:
            bindings[slot.var] = values[i];
            break;
        }
      }
      if (!accepted) continue;
      for (const FilterExpr& f : cc.filters) {
        if (!FilterPasses(f, bindings, dict)) {
          accepted = false;
          break;
        }
      }
      if (!accepted) continue;
      ++stats.intermediate_rows;
      ++stage_rows[level];
      advanced = true;
      break;
    }

    if (!advanced) {
      if (level == 0) return;  // Pipeline drained.
      --level;
      continue;
    }
    if (level + 1 == depth) {
      if (!emit(bindings)) return;  // LIMIT/ASK pushdown.
    } else {
      ++level;
      open(level);
    }
  }
}

// Records the executed plan's estimated-vs-actual table into `stats`.
void FillClauseRows(const CompiledPlan& plan,
                    const std::vector<uint64_t>& counts, EvalStats& stats) {
  stats.clause_rows.clear();
  stats.clause_rows.reserve(plan.clauses.size());
  for (size_t k = 0; k < plan.clauses.size(); ++k) {
    ClauseRowStats cr;
    cr.source_index = plan.clauses[k].source_index;
    cr.estimated_rows = plan.clauses[k].estimated_rows;
    cr.estimated_output_rows = plan.clauses[k].estimated_output_rows;
    cr.actual_rows = counts[k];
    stats.clause_rows.push_back(cr);
  }
}

// `SELECT DISTINCT ?p { ?s ?p ?o }` from the store's predicate directory:
// O(predicates) instead of a full scan. The directory lists ascending term
// ids, an order fixed within an epoch, so OFFSET/LIMIT pages still split one
// stable enumeration. Metered as one probe that scans nothing and whose one
// clause emits every predicate.
ResultSet RunPredicateDirectory(const TripleStore& store,
                                const CompiledPlan& plan,
                                const SelectQuery& query, EvalStats& stats) {
  ResultSet result;
  result.var_names.push_back(query.var_name(plan.projection[0]));
  const std::vector<TermId> predicates = store.Predicates();
  const uint64_t begin = std::min<uint64_t>(query.offset(), predicates.size());
  const uint64_t end =
      begin + std::min<uint64_t>(query.limit(), predicates.size() - begin);
  result.rows.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) result.rows.push_back({predicates[i]});
  stats.index_probes = 1;
  stats.intermediate_rows = predicates.size();
  FillClauseRows(plan, {predicates.size()}, stats);
  stats.result_rows = result.rows.size();
  return result;
}

// Shared SELECT consumer: project, DISTINCT-probe, skip OFFSET, stop at
// LIMIT — streaming, so the pipeline never materializes skipped rows.
StatusOr<ResultSet> RunSelect(const TripleStore& store,
                              const CompiledPlan& plan,
                              const SelectQuery& query, const Dictionary* dict,
                              EvalStats& stats) {
  if (UsesPredicateDirectory(plan, query)) {
    return RunPredicateDirectory(store, plan, query, stats);
  }
  ResultSet result;
  result.var_names.reserve(plan.projection.size());
  for (VarId v : plan.projection) result.var_names.push_back(query.var_name(v));

  const uint64_t offset = query.offset();
  const uint64_t limit = query.limit();

  std::unordered_set<Row, RowHash> seen;
  uint64_t skipped = 0;
  auto consume = [&](Row&& out) {
    if (query.distinct() && !seen.insert(out).second) {
      return true;  // Duplicate: keep pulling.
    }
    if (skipped < offset) {
      ++skipped;
      return true;
    }
    result.rows.push_back(std::move(out));
    return limit == kNoLimit || result.rows.size() < limit;
  };

  if (limit != 0) {
    std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
    RunPlan(
        store, plan, query.num_vars(), dict, stats,
        [&](const Row& bindings) {
          Row out;
          out.reserve(plan.projection.size());
          for (VarId v : plan.projection) out.push_back(bindings[v]);
          return consume(std::move(out));
        },
        stage_counts.data());
    FillClauseRows(plan, stage_counts, stats);
  }
  stats.result_rows = result.rows.size();
  return result;
}

StatusOr<bool> RunAsk(const TripleStore& store, const CompiledPlan& plan,
                      const SelectQuery& query, const Dictionary* dict,
                      EvalStats& stats) {
  bool found = false;
  std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
  RunPlan(
      store, plan, query.num_vars(), dict, stats,
      [&](const Row&) {
        found = true;
        return false;  // First solution settles existence.
      },
      stage_counts.data());
  FillClauseRows(plan, stage_counts, stats);
  stats.result_rows = found ? 1 : 0;
  return found;
}

// A plan for one call: a one-clause query's from its bound positions, any
// other planned against `store`'s statistics.
CompiledPlan FreshPlan(const SelectQuery& query, const TripleStore& store) {
  return query.clauses().size() == 1 ? CompileOneClausePlan(query)
                                     : CompilePlan(query, store);
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine: plan cache + evaluation.

Engine::Engine(const TripleStore* store, const Dictionary* dict)
    : store_(store), dict_(dict), plans_(kPlanCacheCapacity) {}

std::shared_ptr<const CompiledPlan> Engine::PlanFor(const SelectQuery& query,
                                                    EvalStats& stats) const {
  // One clause has one order: its plan needs no fingerprint, no statistics
  // and no cache, and charges neither a hit nor a miss.
  if (query.clauses().size() == 1) {
    return std::make_shared<const CompiledPlan>(CompileOneClausePlan(query));
  }
  // The key excludes solution modifiers (PlanFingerprint): Ask(q),
  // Select(q LIMIT 10), and every page of an OFFSET walk share one plan —
  // which is also what makes the walk's enumeration order consistent.
  // Planning runs outside the memo's lock: it reads memoized store
  // statistics and can run concurrently for different queries.
  bool compiled = false;
  auto plan = plans_.GetOrCompute(
      query.PlanFingerprint(), store_->mutation_epoch(), [&] {
        compiled = true;
        return std::make_shared<const CompiledPlan>(
            CompilePlan(query, *store_));
      });
  (compiled ? stats.plan_cache_misses : stats.plan_cache_hits) = 1;
  return plan;
}

StatusOr<ResultSet> Engine::Select(const SelectQuery& query,
                                   EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  const std::shared_ptr<const CompiledPlan> plan = PlanFor(query, local);
  auto result = RunSelect(*store_, *plan, query, dict_, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> Engine::Ask(const SelectQuery& query, EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  const std::shared_ptr<const CompiledPlan> plan = PlanFor(query, local);
  auto result = RunAsk(*store_, *plan, query, dict_, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<PlanExplain> Engine::Explain(const SelectQuery& query) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  // Peek at the cache without charging a hit/miss: EXPLAIN is a
  // diagnostic, not a query. A valid cached plan is reused as-is — the
  // plan is a pure function of (fingerprint, epoch), so recompiling could
  // only reproduce it.
  std::shared_ptr<const CompiledPlan> plan =
      plans_.Peek(query.PlanFingerprint(), store_->mutation_epoch())
          .value_or(nullptr);
  const bool cached = plan != nullptr;
  if (!cached) {
    plan = std::make_shared<const CompiledPlan>(CompilePlan(query, *store_));
  }
  PlanExplain explain = ExplainPlan(*plan, query, dict_);
  explain.from_cache = cached;
  return explain;
}

// ---------------------------------------------------------------------------
// One-shot helpers.

StatusOr<ResultSet> Evaluate(const TripleStore& store,
                             const SelectQuery& query, EvalStats* stats,
                             const Dictionary* dict) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  auto result = RunSelect(store, FreshPlan(query, store), query, dict, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> EvaluateAsk(const TripleStore& store, const SelectQuery& query,
                           EvalStats* stats, const Dictionary* dict) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  auto result = RunAsk(store, FreshPlan(query, store), query, dict, local);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sofya
