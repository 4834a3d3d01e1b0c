#include "align/relation_aligner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <utility>

#include "endpoint/tracking_endpoint.h"
#include "sampling/simple_sampler.h"
#include "util/random.h"
#include "sampling/unbiased_sampler.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace sofya {

std::vector<Term> AlignmentResult::AcceptedSubsumptions() const {
  std::vector<Term> out;
  for (const auto& v : verdicts) {
    if (v.accepted) out.push_back(v.relation);
  }
  return out;
}

std::vector<Term> AlignmentResult::AcceptedEquivalences() const {
  std::vector<Term> out;
  for (const auto& v : verdicts) {
    if (v.equivalence) out.push_back(v.relation);
  }
  return out;
}

RelationAligner::RelationAligner(Endpoint* candidate_kb,
                                 Endpoint* reference_kb,
                                 const SameAsIndex* links,
                                 AlignerOptions options)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      links_(links),
      options_(options),
      to_reference_(std::make_shared<CrossKbTranslator>(links, candidate_kb,
                                                        reference_kb)),
      to_candidate_(std::make_shared<CrossKbTranslator>(links, reference_kb,
                                                        candidate_kb)) {
  // One lexical-index cache per aligner tree: RelationRun children copy
  // options_ (shared_ptr and all), so every per-relation view shares the
  // expensive MinHash index instead of rebuilding it per relation.
  if (options_.finder.lexical_cache == nullptr) {
    options_.finder.lexical_cache = std::make_shared<LexicalIndexCache>();
  }
}

RelationAligner::RelationAligner(Endpoint* candidate_kb,
                                 Endpoint* reference_kb,
                                 const RelationAligner& parent)
    : candidate_kb_(candidate_kb),
      reference_kb_(reference_kb),
      links_(parent.links_),
      options_(parent.options_),
      to_reference_(parent.to_reference_),
      to_candidate_(parent.to_candidate_) {}

void ApplyRunSeed(AlignerOptions* options, uint64_t seed) {
  if (seed == 0) return;
  SplitMix64 sm(seed);
  options->finder.seed = sm.Next();
  options->sampler.seed = sm.Next();
}

StatusOr<std::vector<CandidateRelation>> RelationAligner::DiscoverPhase(
    const Term& r) {
  CandidateFinder finder(candidate_kb_, reference_kb_, to_candidate_.get(),
                         options_.finder);
  return finder.FindCandidates(r);
}

StatusOr<CandidateVerdict> RelationAligner::ScorePhase(
    const Term& r, const CandidateRelation& candidate) {
  CandidateVerdict verdict;
  verdict.relation = candidate.relation;
  verdict.cooccurrences = candidate.cooccurrences;
  verdict.prior = candidate.prior;
  verdict.rule.body = candidate.relation;
  verdict.rule.head = r;

  // The sampler is stateless across calls and seeds its shuffle from the
  // candidate relation, so scoring is a pure function of (r, candidate) —
  // the subtask can run on any worker in any order.
  SimpleSampler sampler(candidate_kb_, reference_kb_, to_reference_.get(),
                        options_.sampler);
  SOFYA_ASSIGN_OR_RETURN(EvidenceSet evidence,
                         sampler.CollectEvidence(candidate.relation, r));
  PopulateRuleStats(evidence, &verdict.rule);
  verdict.passed_threshold =
      evidence.total_pairs() >= options_.min_pairs &&
      evidence.support() >= options_.min_support &&
      Confidence(options_.measure, evidence) >= options_.threshold;
  return verdict;
}

Status RelationAligner::UbsPhase(const Term& r,
                                 std::vector<CandidateVerdict>* verdicts) {
  if (options_.use_ubs) {
    std::vector<Term> survivors;
    for (const auto& v : *verdicts) {
      if (v.passed_threshold) survivors.push_back(v.relation);
    }
    if (!survivors.empty()) {
      UnbiasedSampler ubs(candidate_kb_, reference_kb_, to_reference_.get(),
                          to_candidate_.get(), options_.sampler, options_.ubs);
      // Candidate-side pair probes (the paper's explicit form) need at
      // least two candidates to contrast.
      UbsReport report;
      if (survivors.size() >= 2) {
        SOFYA_ASSIGN_OR_RETURN(report, ubs.Probe(r, survivors));
      }
      // Mirrored reference-side probes cover the remaining survivors
      // (e.g. a lone broad => narrow candidate): contrast the head with
      // the reference relations that co-occur with the candidate. The
      // survivor loop is order-dependent by design (each probe's settle
      // check reads the tallies of the previous ones), which is why UBS is
      // one sequential wave per relation rather than per-survivor subtasks.
      if (options_.ubs.enable_reference_siblings) {
        CandidateFinderOptions sibling_options = options_.finder;
        sibling_options.max_candidates = options_.ubs.reference_sibling_limit;
        CandidateFinder sibling_finder(reference_kb_, candidate_kb_,
                                       to_reference_.get(), sibling_options);
        for (const Term& survivor : survivors) {
          if (report.SubsumptionHits(survivor) >=
                  options_.ubs.min_contradictions &&
              report.EquivalenceHits(survivor) >=
                  options_.ubs.min_contradictions) {
            continue;  // Already fully contradicted.
          }
          SOFYA_ASSIGN_OR_RETURN(
              std::vector<CandidateRelation> siblings,
              sibling_finder.FindCandidates(survivor));
          std::vector<Term> sibling_terms;
          for (const auto& s : siblings) sibling_terms.push_back(s.relation);
          SOFYA_RETURN_IF_ERROR(ubs.ProbeReferenceSiblings(
              r, survivor, sibling_terms, &report));
        }
      }
      for (auto& v : *verdicts) {
        if (!v.passed_threshold) continue;
        const size_t needed = std::max<size_t>(
            options_.ubs.min_contradictions,
            static_cast<size_t>(
                std::ceil(options_.ubs.contradiction_support_ratio *
                          static_cast<double>(v.rule.support))));
        if (report.SubsumptionHits(v.relation) >= needed) {
          v.ubs_subsumption_pruned = true;
        }
        if (report.EquivalenceHits(v.relation) >= needed) {
          v.ubs_equivalence_pruned = true;
        }
      }
    }
  }

  for (auto& v : *verdicts) {
    v.accepted = v.passed_threshold && !v.ubs_subsumption_pruned;
  }
  return Status::OK();
}

Status RelationAligner::ReversePhase(const Term& r, CandidateVerdict* v) {
  // Equivalence via double subsumption: the reverse direction with the KB
  // roles swapped (r plays the candidate body in K, r' the reference head
  // in K'). Like ScorePhase, a pure function of (r, verdict->relation).
  SimpleSampler reverse_sampler(reference_kb_, candidate_kb_,
                                to_candidate_.get(), options_.sampler);
  v->reverse_rule.body = r;
  v->reverse_rule.head = v->relation;
  SOFYA_ASSIGN_OR_RETURN(EvidenceSet reverse_evidence,
                         reverse_sampler.CollectEvidence(r, v->relation));
  PopulateRuleStats(reverse_evidence, &v->reverse_rule);
  v->reverse_checked = true;
  v->reverse_passed_threshold =
      reverse_evidence.total_pairs() >= options_.min_pairs &&
      reverse_evidence.support() >= options_.min_support &&
      Confidence(options_.measure, reverse_evidence) >= options_.threshold;
  v->equivalence = v->reverse_passed_threshold && !v->ubs_equivalence_pruned;
  return Status::OK();
}

StatusOr<AlignmentResult> RelationAligner::Align(const Term& r) {
  AlignmentResult result;
  result.reference_relation = r;

  const EndpointStats cand_before = candidate_kb_->stats();
  const EndpointStats ref_before = reference_kb_->stats();

  // The sequential composition of the four phases — the reference the
  // scheduled decomposition must be bit-identical to.
  SOFYA_ASSIGN_OR_RETURN(std::vector<CandidateRelation> candidates,
                         DiscoverPhase(r));
  for (const CandidateRelation& candidate : candidates) {
    SOFYA_ASSIGN_OR_RETURN(CandidateVerdict verdict,
                           ScorePhase(r, candidate));
    result.verdicts.push_back(std::move(verdict));
  }
  SOFYA_RETURN_IF_ERROR(UbsPhase(r, &result.verdicts));
  if (options_.check_equivalence) {
    for (auto& v : result.verdicts) {
      if (!v.accepted) continue;
      SOFYA_RETURN_IF_ERROR(ReversePhase(r, &v));
    }
  }

  // Cost accounting.
  const EndpointStats cand_after = candidate_kb_->stats();
  const EndpointStats ref_after = reference_kb_->stats();
  result.candidate_queries = cand_after.queries - cand_before.queries;
  result.reference_queries = ref_after.queries - ref_before.queries;
  result.rows_shipped = (cand_after.rows_returned - cand_before.rows_returned) +
                        (ref_after.rows_returned - ref_before.rows_returned);
  result.cache_hits = (cand_after.cache_hits - cand_before.cache_hits) +
                      (ref_after.cache_hits - ref_before.cache_hits);
  result.cache_misses = (cand_after.cache_misses - cand_before.cache_misses) +
                        (ref_after.cache_misses - ref_before.cache_misses);
  result.simulated_latency_ms =
      (cand_after.simulated_latency_ms - cand_before.simulated_latency_ms) +
      (ref_after.simulated_latency_ms - ref_before.simulated_latency_ms);
  return result;
}

namespace {

/// Runs one phase body, converting any escaping exception into a Status.
/// Phase subtasks run via ThreadPool::Post (fire-and-forget continuations,
/// no future to carry an exception), so an uncaught throw — say bad_alloc
/// inside sampling — would terminate the process; it surfaces as an error
/// instead, as it would from sequential Align.
template <typename Fn>
Status RunPhaseBody(Fn&& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("phase subtask threw: ") + e.what());
  } catch (...) {
    return Status::Internal("phase subtask threw a non-exception");
  }
}

/// Computes a fleet-level stats delta.
EndpointStats StatsDelta(const EndpointStats& after,
                         const EndpointStats& before) {
  EndpointStats d;
  d.queries = after.queries - before.queries;
  d.rows_returned = after.rows_returned - before.rows_returned;
  d.bytes_estimated = after.bytes_estimated - before.bytes_estimated;
  d.index_probes = after.index_probes - before.index_probes;
  d.triples_scanned = after.triples_scanned - before.triples_scanned;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.failures_injected = after.failures_injected - before.failures_injected;
  d.simulated_latency_ms =
      after.simulated_latency_ms - before.simulated_latency_ms;
  return d;
}

}  // namespace

/// Per-relation state of the phase scheduler. Each relation owns private
/// tracking views over the shared endpoint stack (thread-safe: the
/// relation's subtasks run on different workers) and a task aligner bound
/// to those views, so per-relation attribution is exact regardless of what
/// the rest of the fleet is doing.
struct RelationRun {
  RelationRun(const Term& relation, RelationAligner* parent)
      : r(relation),
        cand_view(parent->candidate_kb_),
        ref_view(parent->reference_kb_),
        aligner(&cand_view, &ref_view, *parent) {}

  Term r;
  TrackingEndpoint cand_view;
  TrackingEndpoint ref_view;
  RelationAligner aligner;

  AlignmentResult result;
  std::vector<CandidateRelation> candidates;
  /// Per-candidate ScorePhase statuses (slot-addressed, no lock needed:
  /// each subtask writes only its own slot, and the phase barrier's
  /// acquire-decrement publishes the writes to whoever runs the next
  /// phase).
  std::vector<Status> score_statuses;
  /// Verdict indices that need a ReversePhase, and their statuses.
  std::vector<size_t> reverse_targets;
  std::vector<Status> reverse_statuses;

  Status status;  ///< The relation's final status (first error, in order).
  std::atomic<size_t> pending{0};  ///< Subtasks outstanding in this phase.
};

StatusOr<AlignManyResult> RelationAligner::AlignMany(
    std::span<const Term> relations, const AlignManyOptions& options) {
  AlignManyResult fleet;
  if (relations.empty()) return fleet;
  const size_t num_threads = std::max<size_t>(1, options.num_threads);
  fleet.threads_used = num_threads;

  // Fleet-level accounting: one snapshot pair around the whole fan-out. No
  // tasks are in flight at either snapshot, so the deltas are exact.
  const EndpointStats cand_before = candidate_kb_->stats();
  const EndpointStats ref_before = reference_kb_->stats();
  WallTimer timer;

  std::vector<std::unique_ptr<RelationRun>> runs;
  runs.reserve(relations.size());
  for (const Term& r : relations) {
    runs.push_back(std::make_unique<RelationRun>(r, this));
  }

  std::mutex done_mu;
  std::condition_variable done_cv;
  size_t remaining = runs.size();       // Guarded by done_mu.
  std::atomic<size_t> subtasks{0};

  {
    ThreadPool pool(num_threads);

    auto finish_relation = [&](RelationRun* run) {
      // Counters from the relation's private views: per-call charges whose
      // sums are scheduling-independent — the bit-identical guarantee.
      const EndpointStats cand = run->cand_view.stats();
      const EndpointStats ref = run->ref_view.stats();
      run->result.reference_relation = run->r;
      run->result.candidate_queries = cand.queries;
      run->result.reference_queries = ref.queries;
      run->result.rows_shipped = cand.rows_returned + ref.rows_returned;
      run->result.cache_hits = cand.cache_hits + ref.cache_hits;
      run->result.cache_misses = cand.cache_misses + ref.cache_misses;
      run->result.simulated_latency_ms =
          cand.simulated_latency_ms + ref.simulated_latency_ms;
      {
        std::lock_guard<std::mutex> lock(done_mu);
        --remaining;
      }
      done_cv.notify_one();
    };

    // Phase chain, continuation-passing: the worker that completes a
    // phase's last subtask posts the next phase. No subtask ever blocks on
    // another, so a fixed pool cannot deadlock on its own dependencies.
    std::function<void(RelationRun*)> post_finalize_or_reverse =
        [&](RelationRun* run) {
          // First error by phase-then-candidate order, deterministically.
          for (const Status& status : run->score_statuses) {
            if (!status.ok() && run->status.ok()) run->status = status;
          }
          for (const Status& status : run->reverse_statuses) {
            if (!status.ok() && run->status.ok()) run->status = status;
          }
          finish_relation(run);
        };

    auto post_reverse_phase = [&](RelationRun* run) {
      if (!run->status.ok() || !options_.check_equivalence) {
        post_finalize_or_reverse(run);
        return;
      }
      for (size_t i = 0; i < run->result.verdicts.size(); ++i) {
        if (run->result.verdicts[i].accepted) run->reverse_targets.push_back(i);
      }
      if (run->reverse_targets.empty()) {
        post_finalize_or_reverse(run);
        return;
      }
      run->reverse_statuses.resize(run->reverse_targets.size());
      run->pending.store(run->reverse_targets.size(),
                         std::memory_order_relaxed);
      for (size_t j = 0; j < run->reverse_targets.size(); ++j) {
        subtasks.fetch_add(1, std::memory_order_relaxed);
        pool.Post([&, run, j] {
          run->reverse_statuses[j] = RunPhaseBody([&] {
            return run->aligner.ReversePhase(
                run->r, &run->result.verdicts[run->reverse_targets[j]]);
          });
          if (run->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            post_finalize_or_reverse(run);
          }
        });
      }
    };

    auto post_ubs_phase = [&](RelationRun* run) {
      subtasks.fetch_add(1, std::memory_order_relaxed);
      pool.Post([&, run] {
        // A failed sampling subtask settles the relation's status before
        // UBS spends any more of the query budget on it.
        for (const Status& status : run->score_statuses) {
          if (!status.ok()) {
            run->status = status;
            break;
          }
        }
        if (run->status.ok()) {
          run->status = RunPhaseBody([&] {
            return run->aligner.UbsPhase(run->r, &run->result.verdicts);
          });
        }
        post_reverse_phase(run);
      });
    };

    auto post_score_phase = [&](RelationRun* run) {
      if (run->candidates.empty()) {
        post_ubs_phase(run);
        return;
      }
      run->result.verdicts.resize(run->candidates.size());
      run->score_statuses.resize(run->candidates.size());
      run->pending.store(run->candidates.size(), std::memory_order_relaxed);
      for (size_t i = 0; i < run->candidates.size(); ++i) {
        subtasks.fetch_add(1, std::memory_order_relaxed);
        pool.Post([&, run, i] {
          run->score_statuses[i] = RunPhaseBody([&]() -> Status {
            auto verdict = run->aligner.ScorePhase(run->r, run->candidates[i]);
            if (!verdict.ok()) return verdict.status();
            run->result.verdicts[i] = std::move(*verdict);
            return Status::OK();
          });
          if (run->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            post_ubs_phase(run);
          }
        });
      }
    };

    for (const auto& run_ptr : runs) {
      RelationRun* run = run_ptr.get();
      subtasks.fetch_add(1, std::memory_order_relaxed);
      pool.Post([&, run] {
        run->status = RunPhaseBody([&]() -> Status {
          auto candidates = run->aligner.DiscoverPhase(run->r);
          if (!candidates.ok()) return candidates.status();
          run->candidates = std::move(*candidates);
          return Status::OK();
        });
        if (!run->status.ok()) {
          finish_relation(run);
          return;
        }
        post_score_phase(run);
      });
    }

    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
    // Pool destructor: all queues are drained (every chain finished), so
    // this only joins the workers.
  }

  fleet.wall_ms = timer.ElapsedMillis();
  fleet.subtasks_scheduled = subtasks.load(std::memory_order_relaxed);
  const EndpointStats cand_after = candidate_kb_->stats();
  const EndpointStats ref_after = reference_kb_->stats();

  // Report the first failure by input order (deterministic regardless of
  // which chain lost the wall-clock race).
  for (const auto& run : runs) {
    if (!run->status.ok()) return run->status;
  }
  fleet.results.reserve(runs.size());
  for (auto& run : runs) fleet.results.push_back(std::move(run->result));

  fleet.candidate_stats = StatsDelta(cand_after, cand_before);
  fleet.reference_stats = StatsDelta(ref_after, ref_before);
  return fleet;
}

}  // namespace sofya
