#include "sparql/engine.h"

#include <algorithm>
#include <cstdint>
#include <optional>
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
// `bindings` holds the row the pipeline starts from: all unbound, or a
// VALUES row's constants pre-bound (no clause of the plan names those).
template <typename Emit>
void RunPlan(const TripleStore& store, const CompiledPlan& plan, Row bindings,
             const Dictionary* dict, EvalStats& stats, Emit&& emit,
             uint64_t* stage_rows) {
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

// Shared SELECT consumer: DISTINCT-probe, skip OFFSET, stop at LIMIT —
// streaming, so the pipeline never materializes skipped rows.
class SelectSink {
 public:
  SelectSink(const SelectQuery& query, ResultSet& result)
      : distinct_(query.distinct()),
        offset_(query.offset()),
        limit_(query.limit()),
        result_(result) {}

  /// Takes one projected row; false once LIMIT rows are in.
  bool Add(Row&& out) {
    if (distinct_ && !seen_.insert(out).second) {
      return true;  // Duplicate: keep pulling.
    }
    if (skipped_ < offset_) {
      ++skipped_;
      return true;
    }
    result_.rows.push_back(std::move(out));
    return !full();
  }

  bool full() const {
    return limit_ != kNoLimit && result_.rows.size() >= limit_;
  }

 private:
  const bool distinct_;
  const uint64_t offset_;
  const uint64_t limit_;
  ResultSet& result_;
  std::unordered_set<Row, RowHash> seen_;
  uint64_t skipped_ = 0;
};

Row Project(const Row& bindings, const std::vector<VarId>& projection) {
  Row out;
  out.reserve(projection.size());
  for (VarId v : projection) out.push_back(bindings[v]);
  return out;
}

ResultSet EmptyResult(const SelectQuery& query,
                      const std::vector<VarId>& projection) {
  ResultSet result;
  result.var_names.reserve(projection.size());
  for (VarId v : projection) result.var_names.push_back(query.var_name(v));
  return result;
}

StatusOr<ResultSet> RunSelect(const TripleStore& store,
                              const CompiledPlan& plan,
                              const SelectQuery& query, const Dictionary* dict,
                              EvalStats& stats) {
  if (UsesPredicateDirectory(plan, query)) {
    return RunPredicateDirectory(store, plan, query, stats);
  }
  ResultSet result = EmptyResult(query, plan.projection);
  SelectSink sink(query, result);
  if (!sink.full()) {
    std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
    RunPlan(
        store, plan, Row(query.num_vars(), kNullTermId), dict, stats,
        [&](const Row& bindings) {
          return sink.Add(Project(bindings, plan.projection));
        },
        stage_counts.data());
    FillClauseRows(plan, stage_counts, stats);
  }
  stats.result_rows = result.rows.size();
  return result;
}

// ---------------------------------------------------------------------------
// VALUES: the block is the outermost binding source. Row r of the block runs
// as the query row r stands for — the row's constants substituted for its
// variables (BindValuesRow) — so each row's plan, and with it each row's
// output order, is the plan the substituted query would get on its own. One
// sink applies DISTINCT/OFFSET/LIMIT across the rows, in block order.

// The query VALUES row `bindings` stands for: no VALUES block and no
// solution modifiers; every clause position naming a VALUES variable holds
// the row's constant; a filter over VALUES variables alone is decided here
// (nullopt when it rejects the row), one over a VALUES variable and another
// variable becomes a constant comparison. Declared variables and the
// projection stay, so the VALUES columns project from `bindings`.
std::optional<SelectQuery> BindValuesRow(const SelectQuery& query,
                                         const std::vector<int>& column,
                                         const Row& bindings,
                                         const std::vector<VarId>& projection,
                                         const Dictionary* dict) {
  SelectQuery bound;
  for (size_t v = 0; v < query.num_vars(); ++v) {
    bound.NewVar(query.var_name(static_cast<VarId>(v)));
  }
  auto substitute = [&](const NodeRef& ref) {
    return ref.is_var() && column[ref.var()] >= 0
               ? NodeRef::Constant(bindings[ref.var()])
               : ref;
  };
  for (const PatternClause& c : query.clauses()) {
    bound.Where(substitute(c.subject), substitute(c.predicate),
                substitute(c.object));
  }
  for (const FilterExpr& f : query.filters()) {
    const bool lhs_values = column[f.lhs] >= 0;
    const bool two_vars = f.kind == FilterExpr::Kind::kVarEqVar ||
                          f.kind == FilterExpr::Kind::kVarNeqVar;
    const bool rhs_values = two_vars && column[f.rhs_var] >= 0;
    if (lhs_values && (!two_vars || rhs_values)) {
      if (!FilterPasses(f, bindings, dict)) return std::nullopt;
    } else if (lhs_values || rhs_values) {
      const VarId other = lhs_values ? f.rhs_var : f.lhs;
      const TermId constant = bindings[lhs_values ? f.lhs : f.rhs_var];
      bound.Filter(f.kind == FilterExpr::Kind::kVarEqVar
                       ? FilterExpr::VarEqTerm(other, constant)
                       : FilterExpr::VarNeqTerm(other, constant));
    } else {
      bound.Filter(f);
    }
  }
  bound.Select(projection);
  return bound;
}

// What a VALUES walk does after a solution.
enum class Next { kSolution, kRow, kStop };

// Runs `query`'s VALUES rows in block order, each as its substituted query
// (BindValuesRow) from its pre-bound row, with the plan `plan_of(bound,
// row_stats)` gives. `emit(solution)` says whether to pull the row's next
// solution, go on to the next row, or stop the walk.
template <typename PlanOf, typename Emit>
void RunValuesRows(const TripleStore& store, const SelectQuery& query,
                   const std::vector<VarId>& projection,
                   const Dictionary* dict, EvalStats& stats, PlanOf&& plan_of,
                   Emit&& emit) {
  std::vector<int> column(query.num_vars(), -1);
  for (size_t k = 0; k < query.values_vars().size(); ++k) {
    column[query.values_vars()[k]] = static_cast<int>(k);
  }
  const size_t width = query.values_vars().size();
  const std::vector<TermId>& cells = query.values_cells();
  bool stop = false;
  for (size_t begin = 0; begin < cells.size() && !stop; begin += width) {
    Row bindings(query.num_vars(), kNullTermId);
    for (size_t k = 0; k < width; ++k) {
      bindings[query.values_vars()[k]] = cells[begin + k];
    }
    std::optional<SelectQuery> bound =
        BindValuesRow(query, column, bindings, projection, dict);
    if (!bound.has_value()) continue;
    EvalStats row;
    const std::shared_ptr<const CompiledPlan> plan = plan_of(*bound, row);
    std::vector<uint64_t> stage_counts(plan->clauses.size(), 0);
    RunPlan(
        store, *plan, std::move(bindings), dict, row,
        [&](const Row& solution) {
          const Next next = emit(solution);
          stop = next == Next::kStop;
          return next == Next::kSolution;
        },
        stage_counts.data());
    stats.intermediate_rows += row.intermediate_rows;
    stats.index_probes += row.index_probes;
    stats.triples_scanned += row.triples_scanned;
    stats.plan_cache_hits += row.plan_cache_hits;
    stats.plan_cache_misses += row.plan_cache_misses;
  }
}

template <typename PlanOf>
StatusOr<ResultSet> RunValuesSelect(const TripleStore& store,
                                    const SelectQuery& query,
                                    const Dictionary* dict, EvalStats& stats,
                                    PlanOf&& plan_of) {
  const std::vector<VarId> projection = query.ResolvedProjection();
  ResultSet result = EmptyResult(query, projection);
  SelectSink sink(query, result);
  // Under DISTINCT a projection of VALUES variables alone gives one row at
  // most per block row: its pipeline stops at the first solution, as an ASK.
  const std::vector<VarId>& values = query.values_vars();
  const bool one_per_row =
      query.distinct() &&
      std::all_of(projection.begin(), projection.end(), [&](VarId v) {
        return std::find(values.begin(), values.end(), v) != values.end();
      });
  if (!sink.full()) {
    RunValuesRows(store, query, projection, dict, stats, plan_of,
                  [&](const Row& solution) {
                    if (!sink.Add(Project(solution, projection))) {
                      return Next::kStop;
                    }
                    return one_per_row ? Next::kRow : Next::kSolution;
                  });
  }
  stats.result_rows = result.rows.size();
  return result;
}

template <typename PlanOf>
StatusOr<bool> RunValuesAsk(const TripleStore& store, const SelectQuery& query,
                            const Dictionary* dict, EvalStats& stats,
                            PlanOf&& plan_of) {
  bool found = false;
  RunValuesRows(store, query, query.ResolvedProjection(), dict, stats, plan_of,
                [&](const Row&) {
                  found = true;
                  return Next::kStop;
                });
  stats.result_rows = found ? 1 : 0;
  return found;
}

StatusOr<bool> RunAsk(const TripleStore& store, const CompiledPlan& plan,
                      const SelectQuery& query, const Dictionary* dict,
                      EvalStats& stats) {
  bool found = false;
  std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
  RunPlan(
      store, plan, Row(query.num_vars(), kNullTermId), dict, stats,
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

// FreshPlan as a VALUES row's plan source.
auto FreshPlans(const TripleStore& store) {
  return [&store](const SelectQuery& bound, EvalStats&) {
    return std::make_shared<const CompiledPlan>(FreshPlan(bound, store));
  };
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

auto Engine::CachedPlans() const {
  return [this](const SelectQuery& bound, EvalStats& row_stats) {
    return PlanFor(bound, row_stats);
  };
}

StatusOr<ResultSet> Engine::Select(const SelectQuery& query,
                                   EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  StatusOr<ResultSet> result =
      query.has_values()
          ? RunValuesSelect(*store_, query, dict_, local, CachedPlans())
          : RunSelect(*store_, *PlanFor(query, local), query, dict_, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> Engine::Ask(const SelectQuery& query, EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  StatusOr<bool> result =
      query.has_values()
          ? RunValuesAsk(*store_, query, dict_, local, CachedPlans())
          : RunAsk(*store_, *PlanFor(query, local), query, dict_, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<PlanExplain> Engine::Explain(const SelectQuery& query) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  if (query.has_values()) {
    // Each VALUES row runs its own substituted query, so there is no one
    // plan to show.
    return Status::Unimplemented("EXPLAIN does not take a VALUES block");
  }
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
  StatusOr<ResultSet> result =
      query.has_values()
          ? RunValuesSelect(store, query, dict, local, FreshPlans(store))
          : RunSelect(store, FreshPlan(query, store), query, dict, local);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> EvaluateAsk(const TripleStore& store, const SelectQuery& query,
                           EvalStats* stats, const Dictionary* dict) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  StatusOr<bool> result =
      query.has_values()
          ? RunValuesAsk(store, query, dict, local, FreshPlans(store))
          : RunAsk(store, FreshPlan(query, store), query, dict, local);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sofya
