#include "eval/experiment.h"

#include <algorithm>
#include <set>

#include "util/timer.h"

namespace sofya {

StatusOr<DirectionRun> RunDirection(
    Endpoint* candidate, Endpoint* reference, const SameAsIndex& links,
    const std::vector<std::string>& reference_relations,
    const DirectionRunOptions& options) {
  DirectionRun run;
  run.candidate_kb = candidate->name();
  run.reference_kb = reference->name();

  std::vector<std::string> heads = reference_relations;
  std::sort(heads.begin(), heads.end());
  if (options.max_relations > 0 && heads.size() > options.max_relations) {
    heads.resize(options.max_relations);
  }

  AlignerOptions aligner_options = options.aligner;
  ApplyRunSeed(&aligner_options, options.seed);
  RelationAligner aligner(candidate, reference, &links, aligner_options);

  const EndpointStats cand_before = candidate->stats();
  const EndpointStats ref_before = reference->stats();
  WallTimer timer;

  // Collect the per-head results, sequentially or fanned out. Verdicts are
  // identical either way (AlignMany's determinism guarantee); the run-level
  // cost below is a whole-run delta in both cases.
  std::vector<AlignmentResult> results;
  results.reserve(heads.size());
  if (options.num_threads > 1) {
    std::vector<Term> terms;
    terms.reserve(heads.size());
    for (const std::string& head_iri : heads) {
      terms.push_back(Term::Iri(head_iri));
    }
    AlignManyOptions fan_out;
    fan_out.num_threads = options.num_threads;
    SOFYA_ASSIGN_OR_RETURN(AlignManyResult fleet,
                           aligner.AlignMany(terms, fan_out));
    results = std::move(fleet.results);
  } else {
    for (const std::string& head_iri : heads) {
      SOFYA_ASSIGN_OR_RETURN(AlignmentResult result,
                             aligner.Align(Term::Iri(head_iri)));
      results.push_back(std::move(result));
    }
  }

  for (size_t h = 0; h < heads.size(); ++h) {
    const std::string& head_iri = heads[h];
    run.attempted_heads.push_back(head_iri);
    const AlignmentResult& result = results[h];
    for (const CandidateVerdict& v : result.verdicts) {
      MinedRuleRecord record;
      record.body_iri = v.relation.lexical();
      record.head_iri = head_iri;
      record.cwa_conf = v.rule.cwa_conf;
      record.pca_conf = v.rule.pca_conf;
      record.support = v.rule.support;
      record.pairs = v.rule.body_size;
      record.pca_pairs = v.rule.pca_body_size;
      record.ubs_subsumption_pruned = v.ubs_subsumption_pruned;
      record.ubs_equivalence_pruned = v.ubs_equivalence_pruned;
      record.accepted = v.accepted;
      record.equivalence = v.equivalence;
      run.rules.push_back(std::move(record));
    }
  }

  run.wall_ms = timer.ElapsedMillis();
  const EndpointStats cand_after = candidate->stats();
  const EndpointStats ref_after = reference->stats();
  run.candidate_queries = cand_after.queries - cand_before.queries;
  run.reference_queries = ref_after.queries - ref_before.queries;
  run.rows_shipped =
      (cand_after.rows_returned - cand_before.rows_returned) +
      (ref_after.rows_returned - ref_before.rows_returned);
  run.simulated_latency_ms =
      (cand_after.simulated_latency_ms - cand_before.simulated_latency_ms) +
      (ref_after.simulated_latency_ms - ref_before.simulated_latency_ms);
  return run;
}

PrecisionRecall ScoreSubsumptions(const DirectionRun& run,
                                  const GroundTruth& truth,
                                  const ScorePolicy& policy) {
  PrecisionRecall pr;
  std::set<std::pair<std::string, std::string>> accepted;
  for (const MinedRuleRecord& rule : run.rules) {
    const double conf = policy.measure == ConfidenceMeasure::kPca
                            ? rule.pca_conf
                            : rule.cwa_conf;
    if (conf < policy.tau) continue;
    if (rule.pairs < policy.min_pairs) continue;
    if (rule.support < policy.min_support) continue;
    if (policy.apply_ubs && rule.ubs_subsumption_pruned) continue;
    accepted.insert({rule.body_iri, rule.head_iri});
  }

  for (const auto& [body, head] : accepted) {
    if (truth.Subsumes(body, head)) {
      ++pr.true_positives;
    } else {
      ++pr.false_positives;
    }
  }

  // Gold pairs restricted to the attempted heads.
  const std::set<std::string> heads(run.attempted_heads.begin(),
                                    run.attempted_heads.end());
  for (const auto& [body, head] :
       truth.AllSubsumptions(run.candidate_kb, run.reference_kb)) {
    if (!heads.count(head)) continue;
    if (!accepted.count({body, head})) ++pr.false_negatives;
  }
  return pr;
}

PrecisionRecall ScoreEquivalences(const DirectionRun& run,
                                  const GroundTruth& truth) {
  PrecisionRecall pr;
  std::set<std::pair<std::string, std::string>> accepted;
  for (const MinedRuleRecord& rule : run.rules) {
    if (rule.equivalence) accepted.insert({rule.body_iri, rule.head_iri});
  }
  for (const auto& [body, head] : accepted) {
    if (truth.Classify(body, head) == AlignKind::kEquivalence) {
      ++pr.true_positives;
    } else {
      ++pr.false_positives;
    }
  }
  const std::set<std::string> heads(run.attempted_heads.begin(),
                                    run.attempted_heads.end());
  for (const auto& [body, head] :
       truth.AllSubsumptions(run.candidate_kb, run.reference_kb)) {
    if (!heads.count(head)) continue;
    if (truth.Classify(body, head) != AlignKind::kEquivalence) continue;
    if (!accepted.count({body, head})) ++pr.false_negatives;
  }
  return pr;
}

const SweepPoint* SweepResult::best() const {
  for (const SweepPoint& p : points) {
    if (p.tau == best_tau) return &p;
  }
  return points.empty() ? nullptr : &points.front();
}

SweepResult SweepThreshold(const DirectionRun& run1, const DirectionRun& run2,
                           const GroundTruth& truth,
                           const std::vector<double>& taus,
                           ScorePolicy policy) {
  SweepResult result;
  double best_f1 = -1.0;
  for (double tau : taus) {
    SweepPoint point;
    point.tau = tau;
    policy.tau = tau;
    point.dir1 = ScoreSubsumptions(run1, truth, policy);
    point.dir2 = ScoreSubsumptions(run2, truth, policy);
    point.mean_f1 = (point.dir1.f1() + point.dir2.f1()) / 2.0;
    if (point.mean_f1 > best_f1) {
      best_f1 = point.mean_f1;
      result.best_tau = tau;
    }
    result.points.push_back(point);
  }
  return result;
}

std::vector<double> DefaultTauGrid() {
  std::vector<double> taus;
  for (int i = 1; i <= 19; ++i) taus.push_back(0.05 * i);
  return taus;
}

}  // namespace sofya
