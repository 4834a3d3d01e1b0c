// RelationAligner: the end-to-end on-the-fly alignment pipeline for one
// reference relation.
//
//   discover candidates  ->  simple-sample evidence  ->  confidence
//   threshold  ->  (optional) UBS counter-example pruning  ->  subsumptions
//   + equivalence checks (double subsumption, reverse direction sampled the
//   same way with the KB roles swapped).
//
// Everything flows through the two Endpoint interfaces; the aligner never
// touches a triple store directly, and it reports exactly how many queries
// the alignment cost.

#ifndef SOFYA_ALIGN_RELATION_ALIGNER_H_
#define SOFYA_ALIGN_RELATION_ALIGNER_H_

#include <span>
#include <string>
#include <vector>

#include "align/candidate_finder.h"
#include "endpoint/endpoint.h"
#include "mining/confidence.h"
#include "mining/rule.h"
#include "sameas/sameas_index.h"
#include "sameas/translator.h"
#include "sampling/sampler_options.h"
#include "util/status.h"

namespace sofya {

/// Full aligner configuration.
struct AlignerOptions {
  /// Measure thresholded for acceptance.
  ConfidenceMeasure measure = ConfidenceMeasure::kPca;
  /// Acceptance threshold τ (paper: pca τ>0.3, cwa τ>0.1).
  double threshold = 0.3;
  /// Minimum observed sample pairs for a rule to be judged at all.
  size_t min_pairs = 2;
  /// Minimum *confirmed* pairs (AMIE-style support gate). Rejects rules
  /// whose perfect confidence rests on one or two coincidental pairs.
  size_t min_support = 3;

  /// Run the UBS counter-example pass on surviving candidates.
  bool use_ubs = true;
  /// Also validate the reverse direction to report equivalences.
  bool check_equivalence = true;

  CandidateFinderOptions finder;
  SamplerOptions sampler;
  UbsOptions ubs;
};

/// Verdict for one candidate relation r' against the reference r.
struct CandidateVerdict {
  Term relation;  ///< r' in K'.
  size_t cooccurrences = 0;
  /// PARIS-style discovery prior from the candidate source(s) — how
  /// strongly the source lattice believed in r' *before* any evidence was
  /// sampled. Recorded for EXPLAIN-style output; acceptance is still
  /// decided purely by the sampled confidence.
  double prior = 0.0;

  Rule rule;  ///< r' => r with mined statistics.
  /// conf(measure) ≥ τ on the simple sample.
  bool passed_threshold = false;
  /// Killed by UBS case-2 contradictions.
  bool ubs_subsumption_pruned = false;
  /// Final subsumption decision (threshold ∧ ¬pruned).
  bool accepted = false;

  /// Reverse rule r => r' (only populated when check_equivalence and the
  /// forward direction was accepted).
  Rule reverse_rule;
  bool reverse_checked = false;
  bool reverse_passed_threshold = false;
  /// Killed by UBS case-1 contradictions.
  bool ubs_equivalence_pruned = false;
  /// Final equivalence decision.
  bool equivalence = false;
};

/// Result of aligning one reference relation.
struct AlignmentResult {
  Term reference_relation;  ///< r in K.
  std::vector<CandidateVerdict> verdicts;

  /// Query cost of this alignment. Two attribution regimes, documented here
  /// because they differ under parallelism:
  ///
  ///  * Sequential Align(): counters are before/after stats deltas over the
  ///    endpoint stack — i.e. what the *server* saw for this relation (cache
  ///    hits excluded from `queries`, included in `cache_hits`).
  ///  * AlignMany(): per-relation counters come from a task-private
  ///    TrackingEndpoint — the requests *this relation's pipeline issued*,
  ///    with intra-batch dedup mirrored. That attribution is exact and
  ///    deterministic for any thread count (stats deltas are not, once
  ///    other threads' queries land inside the window), and equals the
  ///    sequential numbers whenever the stack has no shared cache. Shared
  ///    cache/latency quantities are inherently fleet-level under
  ///    parallelism and are reported once in AlignManyResult; the
  ///    per-relation cache_hits/cache_misses/simulated_latency_ms fields
  ///    are then zero.
  uint64_t candidate_queries = 0;
  uint64_t reference_queries = 0;
  uint64_t rows_shipped = 0;
  /// Requests answered by a client-side cache (CachingEndpoint) instead of
  /// the server; zero when no cache is in the endpoint stack.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double simulated_latency_ms = 0.0;

  /// Candidates with accepted subsumption r' => r.
  std::vector<Term> AcceptedSubsumptions() const;
  /// Candidates with accepted equivalence r' <=> r.
  std::vector<Term> AcceptedEquivalences() const;
  /// Total queries against both endpoints.
  uint64_t total_queries() const {
    return candidate_queries + reference_queries;
  }
};

/// How AlignMany carves relations into scheduler tasks. Each relation
/// becomes a chain of phase-level subtasks — candidate discovery, then one
/// sampling subtask per candidate, then the UBS probe wave, then one
/// reverse-check subtask per accepted candidate — scheduled on a shared
/// work-stealing pool, so a giant relation's per-candidate subtasks spread
/// across every idle worker instead of serializing the tail behind one
/// thread. kPhase is the only schedule; the enum and
/// AlignManyOptions::schedule remain only because perfbench/perfbench.cc
/// sets them.
enum class AlignSchedule { kPhase };

/// Derives per-component RNG seeds (candidate finder, samplers) from one
/// run-level seed, so a CLI `--seed N` reproduces an entire run without the
/// components sharing a stream. `seed == 0` is the "unset" sentinel and
/// leaves the defaults untouched.
void ApplyRunSeed(AlignerOptions* options, uint64_t seed);

/// AlignMany configuration.
struct AlignManyOptions {
  size_t num_threads = 1;
  /// No effect (kPhase is the only schedule); kept for perfbench.
  AlignSchedule schedule = AlignSchedule::kPhase;
};

/// Result of a fleet alignment (AlignMany).
struct AlignManyResult {
  /// Per-relation results, in input order: results[i] aligns relations[i].
  std::vector<AlignmentResult> results;

  /// Fleet-level access accounting: stats deltas over each endpoint taken
  /// once around the whole fan-out (snapshot before the first task starts,
  /// snapshot after the last joins — race-free by construction). This is
  /// where shared-cache hits and simulated latency live; `queries` here is
  /// what the server actually saw, which with a shared cache can be LESS
  /// than the sum of the per-relation request counts.
  EndpointStats candidate_stats;
  EndpointStats reference_stats;

  double wall_ms = 0.0;
  size_t threads_used = 1;

  /// Phase subtasks executed (discovery + per-candidate sampling + UBS +
  /// per-accepted reverse checks).
  size_t subtasks_scheduled = 0;

  /// Server-seen queries over both endpoints.
  uint64_t total_queries() const {
    return candidate_stats.queries + reference_stats.queries;
  }
};

/// The pipeline. One instance per (candidate KB, reference KB) pair; Align
/// may be called for many relations.
///
/// Thread safety: Align holds no mutable aligner state across calls (the
/// samplers are per-call locals), so concurrent Align calls are safe when
/// the endpoints are — which is what AlignMany exploits.
class RelationAligner {
 public:
  /// `links` is the sameAs set E. Nothing is owned; all pointers must
  /// outlive the aligner.
  RelationAligner(Endpoint* candidate_kb, Endpoint* reference_kb,
                  const SameAsIndex* links, AlignerOptions options = {});

  /// Aligns reference relation `r`: returns per-candidate verdicts.
  StatusOr<AlignmentResult> Align(const Term& r);

  /// Aligns many reference relations on a shared work-stealing pool of
  /// `options.num_threads` workers. Each relation is decomposed into
  /// phase-level subtasks (see AlignSchedule), so a schema where one giant
  /// relation dominates does not serialize the tail behind one worker. The
  /// endpoint stack underneath must be thread-safe (every endpoint in this
  /// repo is).
  ///
  /// Determinism guarantee (any thread count): per-relation
  /// verdicts and per-relation query counts are bit-identical to sequential
  /// Align, because every subtask is a pure function of (relation,
  /// candidate, options) — it depends only on query *results* (identical no
  /// matter who warmed a shared cache), results land in pre-assigned
  /// input-order slots, and counters come from a relation-private
  /// thread-safe TrackingEndpoint whose per-call charges are
  /// order-independent sums (see AlignmentResult). On error the first
  /// failing relation *by input order* is reported — and within a relation
  /// the first failing subtask by phase-then-candidate order — not the
  /// first to fail in wall-clock order.
  ///
  /// Caveat: the guarantee assumes the endpoint stack answers a given query
  /// the same way every time. A finite ThrottleOptions::query_budget or
  /// failure_rate > 0 breaks that — admission happens in wall-clock
  /// interleaving order, so *which* relation exhausts the budget (or eats
  /// an un-retried injected failure) varies across runs. Parallel runs
  /// against metered stacks are still safe, just not reproducible past the
  /// first ResourceExhausted/Unavailable.
  StatusOr<AlignManyResult> AlignMany(std::span<const Term> relations,
                                      const AlignManyOptions& options);

  /// Convenience overload: `num_threads` workers.
  StatusOr<AlignManyResult> AlignMany(std::span<const Term> relations,
                                      size_t num_threads) {
    AlignManyOptions options;
    options.num_threads = num_threads;
    return AlignMany(relations, options);
  }

  const AlignerOptions& options() const { return options_; }

 private:
  friend struct RelationRun;  // The phase scheduler's per-relation state.

  // The four phases of one relation's alignment. Align() composes them
  // sequentially; AlignMany runs them as subtasks. Each is a pure function
  // of its arguments over the aligner's endpoints, which is what makes the
  // two compositions bit-identical.

  /// Phase 1: candidate discovery.
  StatusOr<std::vector<CandidateRelation>> DiscoverPhase(const Term& r);

  /// Phase 2 (per candidate): simple-sample evidence + threshold verdict.
  StatusOr<CandidateVerdict> ScorePhase(const Term& r,
                                        const CandidateRelation& candidate);

  /// Phase 3: the UBS counter-example wave over the threshold survivors;
  /// sets the pruned flags and the final `accepted` bit on every verdict.
  Status UbsPhase(const Term& r, std::vector<CandidateVerdict>* verdicts);

  /// Phase 4 (per accepted candidate): reverse direction for equivalence.
  Status ReversePhase(const Term& r, CandidateVerdict* verdict);

  Endpoint* candidate_kb_;  // K'. Not owned.
  Endpoint* reference_kb_;  // K.  Not owned.
  const SameAsIndex* links_;  // Not owned.
  AlignerOptions options_;
  CrossKbTranslator to_reference_;
  CrossKbTranslator to_candidate_;
};

}  // namespace sofya

#endif  // SOFYA_ALIGN_RELATION_ALIGNER_H_
