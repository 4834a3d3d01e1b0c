#include "sparql/engine.h"

#include <algorithm>
#include <cstdint>
#include <future>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/hash.h"
#include "util/thread_pool.h"

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

// When `driver` is non-null the level-0 cursor iterates that single span
// instead of probing the store — the parallel scan path injects one chunk
// of the driver clause's sharded range per task.
//
// `stage_rows` points at `plan.clauses.size()` counters that receive
// per-stage accepted-row counts (the EXPLAIN `actual` column).
template <typename Emit>
void RunPlan(const TripleStore& store, const CompiledPlan& plan,
             size_t num_vars, const Dictionary* dict, EvalStats& stats,
             Emit&& emit, const std::span<const Triple>* driver,
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
  if (driver != nullptr) {
    // The caller already probed the driver range (and charged the probe).
    cursors[0].cur = *driver;
  } else {
    open(0);
  }
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

// One parallel-scan task: a slice of the driver clause's sharded range.
struct ScanChunk {
  std::span<const Triple> slice;
};

// Decides whether Select may fan the driver range onto `pool` and, if so,
// returns the chunk list (in span/offset order — concatenating chunk
// outputs reproduces the sequential enumeration exactly).
std::vector<ScanChunk> PlanScanChunks(const MatchView& driver,
                                      const ThreadPool* pool,
                                      size_t min_rows, uint64_t limit) {
  std::vector<ScanChunk> chunks;
  if (pool == nullptr || pool->num_threads() < 2) return chunks;
  // LIMIT keeps the early-stop pushdown; a worker thread must not block on
  // sibling pool tasks (the alignment scheduler may run queries on-pool).
  if (limit != kNoLimit || pool->OnWorkerThread()) return chunks;
  if (driver.total() < min_rows) return chunks;
  // At least one row per chunk: a zero target (tiny driver, low min_rows,
  // many threads) would otherwise loop forever emitting empty chunks.
  const size_t target = std::max<size_t>(
      {size_t{1}, min_rows / 2, driver.total() / (pool->num_threads() * 4)});
  for (size_t si = 0; si < driver.num_spans(); ++si) {
    const std::span<const Triple> span = driver.span(si);
    for (size_t at = 0; at < span.size(); at += target) {
      chunks.push_back({span.subspan(at, std::min(target, span.size() - at))});
    }
  }
  if (chunks.size() < 2) chunks.clear();
  return chunks;
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
//
// With a scan pool (and no LIMIT), the driver clause's sharded range is cut
// into chunks that run the full pipeline concurrently into per-chunk row
// buffers; chunks are then merged in span order through the very same
// DISTINCT/OFFSET consumer, so rows AND EvalStats are bit-identical to the
// sequential path (the work is a partition of the same index ranges).
StatusOr<ResultSet> RunSelect(const TripleStore& store,
                              const CompiledPlan& plan,
                              const SelectQuery& query, const Dictionary* dict,
                              EvalStats& stats,
                              const Engine::Options& options) {
  if (UsesPredicateDirectory(plan, query)) {
    return RunPredicateDirectory(store, plan, query, stats);
  }
  ResultSet result;
  result.var_names.reserve(plan.projection.size());
  for (VarId v : plan.projection) result.var_names.push_back(query.var_name(v));

  const uint64_t offset = query.offset();
  const uint64_t limit = query.limit();
  ThreadPool* pool = options.scan_pool;

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
    std::vector<ScanChunk> chunks;
    if (pool != nullptr && !plan.dangling_filter && !plan.clauses.empty()) {
      const CompiledClause& cc = plan.clauses[0];
      auto resolve = [&](const CompiledSlot& slot) -> TermId {
        // Level 0 binds from nothing: slots are consts, binds or wildcards.
        return slot.kind == SlotKind::kConst ? slot.constant : kNullTermId;
      };
      const MatchView driver = store.MatchSpans(TriplePattern(
          resolve(cc.slots[0]), resolve(cc.slots[1]), resolve(cc.slots[2])));
      chunks =
          PlanScanChunks(driver, pool, options.parallel_scan_min_rows, limit);
      if (!chunks.empty()) {
        ++stats.index_probes;  // The one driver probe, as in sequential.
        struct ChunkResult {
          std::vector<Row> rows;
          EvalStats stats;
          std::vector<uint64_t> stage_counts;
        };
        std::vector<std::future<ChunkResult>> futures;
        futures.reserve(chunks.size());
        for (const ScanChunk& chunk : chunks) {
          futures.push_back(pool->Submit([&, chunk] {
            ChunkResult cr;
            cr.stage_counts.assign(plan.clauses.size(), 0);
            RunPlan(
                store, plan, query.num_vars(), dict, cr.stats,
                [&](const Row& bindings) {
                  Row out;
                  out.reserve(plan.projection.size());
                  for (VarId v : plan.projection) {
                    out.push_back(bindings[v]);
                  }
                  cr.rows.push_back(std::move(out));
                  return true;
                },
                &chunk.slice, cr.stage_counts.data());
            return cr;
          }));
        }
        std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
        bool more = true;
        for (auto& future : futures) {
          // Always drain every future (workers borrow spans and the plan);
          // `more` only gates consumption.
          ChunkResult cr = future.get();
          stats.intermediate_rows += cr.stats.intermediate_rows;
          stats.index_probes += cr.stats.index_probes;
          stats.triples_scanned += cr.stats.triples_scanned;
          for (size_t k = 0; k < stage_counts.size(); ++k) {
            stage_counts[k] += cr.stage_counts[k];
          }
          for (Row& row : cr.rows) {
            if (!more) break;
            more = consume(std::move(row));
          }
        }
        FillClauseRows(plan, stage_counts, stats);
        stats.result_rows = result.rows.size();
        return result;
      }
    }
    std::vector<uint64_t> stage_counts(plan.clauses.size(), 0);
    RunPlan(
        store, plan, query.num_vars(), dict, stats,
        [&](const Row& bindings) {
          Row out;
          out.reserve(plan.projection.size());
          for (VarId v : plan.projection) out.push_back(bindings[v]);
          return consume(std::move(out));
        },
        /*driver=*/nullptr, stage_counts.data());
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
      /*driver=*/nullptr, stage_counts.data());
  FillClauseRows(plan, stage_counts, stats);
  stats.result_rows = found ? 1 : 0;
  return found;
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine: plan cache + evaluation.

Engine::Engine(const TripleStore* store, const Dictionary* dict,
               Options options)
    : store_(store), dict_(dict), options_(options),
      plans_(kPlanCacheCapacity) {}

std::shared_ptr<const CompiledPlan> Engine::PlanFor(const SelectQuery& query,
                                                    bool* cache_hit) const {
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
  *cache_hit = !compiled;
  return plan;
}

StatusOr<ResultSet> Engine::Select(const SelectQuery& query,
                                   EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  bool hit = false;
  const std::shared_ptr<const CompiledPlan> plan = PlanFor(query, &hit);
  (hit ? local.plan_cache_hits : local.plan_cache_misses) = 1;
  auto result = RunSelect(*store_, *plan, query, dict_, local, options_);
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> Engine::Ask(const SelectQuery& query, EvalStats* stats) const {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  bool hit = false;
  const std::shared_ptr<const CompiledPlan> plan = PlanFor(query, &hit);
  (hit ? local.plan_cache_hits : local.plan_cache_misses) = 1;
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
  const CompiledPlan plan = CompilePlan(query, store);
  auto result = RunSelect(store, plan, query, dict, local, Engine::Options());
  if (stats != nullptr) *stats = local;
  return result;
}

StatusOr<bool> EvaluateAsk(const TripleStore& store, const SelectQuery& query,
                           EvalStats* stats, const Dictionary* dict) {
  SOFYA_RETURN_IF_ERROR(query.Validate());
  EvalStats local;
  const CompiledPlan plan = CompilePlan(query, store);
  auto result = RunAsk(store, plan, query, dict, local);
  if (stats != nullptr) *stats = local;
  return result;
}

}  // namespace sofya
