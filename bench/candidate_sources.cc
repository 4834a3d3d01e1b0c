// E7 — candidate sources on the zero-sameAs preset.
//
// The question this bench answers: what does each discovery source buy when
// entity links are gone? For every source (sameas, lexical, distribution,
// auto) it measures recall@k against the preset's gold equivalences and the
// discovery query cost per reference relation. Two more sections pin the
// refactor and the data structure:
//
//   * a verdict fingerprint of a full sameAs-source alignment on the movies
//     preset — CI compares it against a frozen constant, so any behavioral
//     drift of the refactored SameAsOverlapSource fails the build;
//   * LSH lookup scaling at P = 25k / 100k / 400k candidate relations —
//     the fraction of the inventory a lookup touches must stay far below
//     brute force (the sub-linearity claim of similarity/minhash_lsh.h).
//
// Pass --json (or set SOFYA_JSON=1) for a machine-readable summary (CI).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/sofya.h"
#include "similarity/minhash_lsh.h"
#include "util/hash.h"

namespace {

using sofya::AlignKind;
using sofya::CandidateFinder;
using sofya::CandidateFinderOptions;
using sofya::CandidateSourceKind;
using sofya::Term;

/// Gold kb1 equivalent of a reference relation, empty when none.
std::string GoldEquivalent(const sofya::GroundTruth& truth,
                           const std::string& reference_iri,
                           const std::vector<std::string>& candidates) {
  for (const std::string& c : candidates) {
    if (truth.Classify(reference_iri, c) == AlignKind::kEquivalence) return c;
  }
  return {};
}

struct SourceRun {
  double recall = 0.0;
  uint64_t queries = 0;
  size_t discovered = 0;
  double ms = 0.0;
};

/// Discovery over every reference relation of the zero-links world with one
/// source; recall@max_candidates against gold + tracked query cost.
SourceRun RunSource(sofya::SynthWorld* world, CandidateSourceKind kind) {
  sofya::LocalEndpoint cand_local(world->kb1.get());
  sofya::LocalEndpoint ref_local(world->kb2.get());
  sofya::TrackingEndpoint cand(&cand_local), ref(&ref_local);
  sofya::CrossKbTranslator to_cand(&world->links, &ref_local, &cand_local);

  CandidateFinderOptions options;
  options.source = kind;
  options.lexical_cache = std::make_shared<sofya::LexicalIndexCache>();
  CandidateFinder finder(&cand, &ref, &to_cand, options);

  const std::vector<std::string> refs = world->truth.RelationsOf("canon2");
  const std::vector<std::string> golds = world->truth.RelationsOf("canon1");

  SourceRun run;
  size_t scored = 0, hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (const std::string& iri : refs) {
    const std::string gold = GoldEquivalent(world->truth, iri, golds);
    if (gold.empty()) continue;
    ++scored;
    auto candidates = finder.FindCandidates(Term::Iri(iri));
    if (!candidates.ok()) continue;
    run.discovered += candidates->size();
    for (const auto& c : *candidates) {
      if (c.relation.lexical() == gold) {
        ++hits;
        break;
      }
    }
  }
  run.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
  run.recall = scored == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(scored);
  run.queries = cand.stats().queries + ref.stats().queries;
  return run;
}

/// Order-stable fingerprint of a full alignment's verdicts: any change to
/// candidates, order, confidences, support or decisions changes the value.
uint64_t AlignmentFingerprint(const std::vector<sofya::AlignmentResult>& runs) {
  std::string blob;
  for (const auto& result : runs) {
    blob += result.reference_relation.lexical();
    blob += '{';
    for (const auto& v : result.verdicts) {
      blob += sofya::StrFormat(
          "%s|%zu|%.9f|%.9f|%zu|%zu|%d|%d|%d|%d;", v.relation.lexical().c_str(),
          v.cooccurrences, v.rule.pca_conf, v.rule.cwa_conf,
          v.rule.pca_body_size, v.rule.support,
          static_cast<int>(v.passed_threshold),
          static_cast<int>(v.ubs_subsumption_pruned),
          static_cast<int>(v.accepted), static_cast<int>(v.equivalence));
    }
    blob += '}';
  }
  return sofya::Fnv1a(blob.data(), blob.size());
}

/// Synthetic relation-label inventory of size `p`: two to three words from
/// a deterministic ~4k-word vocabulary, the lexical diversity a federation-
/// scale predicate inventory actually has (tens of thousands of ontologies,
/// not one). Seeded, so every run measures the identical inventory.
std::vector<std::string> SyntheticLabels(size_t p) {
  constexpr size_t kVocab = 4096;
  std::vector<std::string> words;
  words.reserve(kVocab);
  sofya::SplitMix64 mix(0xbe9cu);
  for (size_t w = 0; w < kVocab; ++w) {
    const size_t len = 4 + (mix.Next() % 5);
    std::string word;
    for (size_t c = 0; c < len; ++c) {
      word += static_cast<char>('a' + (mix.Next() % 26));
    }
    words.push_back(std::move(word));
  }
  std::vector<std::string> labels;
  labels.reserve(p);
  sofya::SplitMix64 pick(0x10ab5u);
  for (size_t i = 0; i < p; ++i) {
    std::string label = words[pick.Next() % kVocab];
    label += ' ';
    label += words[pick.Next() % kVocab];
    if (pick.Next() % 3 == 0) {
      label += ' ';
      label += words[pick.Next() % kVocab];
    }
    labels.push_back(std::move(label));
  }
  return labels;
}

struct ScalePoint {
  size_t p = 0;
  double avg_scanned = 0.0;
  double scan_fraction = 0.0;
  double avg_lookup_us = 0.0;
};

ScalePoint MeasureLshScale(size_t p) {
  const std::vector<std::string> labels = SyntheticLabels(p);
  sofya::MinHashLsh lsh;
  for (size_t i = 0; i < labels.size(); ++i) {
    lsh.Insert(static_cast<uint32_t>(i), labels[i]);
  }
  ScalePoint point;
  point.p = p;
  const size_t probes = 200;
  uint64_t scanned = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < probes; ++i) {
    sofya::MinHashLsh::LookupStats stats;
    lsh.Lookup(labels[(i * 7919) % labels.size()], &stats);
    scanned += stats.ids_scanned;
  }
  const double us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  point.avg_scanned =
      static_cast<double>(scanned) / static_cast<double>(probes);
  point.scan_fraction = point.avg_scanned / static_cast<double>(p);
  point.avg_lookup_us = us / static_cast<double>(probes);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = std::getenv("SOFYA_JSON") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  if (!json) std::printf("=== E7: candidate sources without sameAs ===\n\n");

  // ----------------------------------------------------------------------
  // Section 1: recall@8 + discovery cost per source on the zero-links world.
  auto world_or = sofya::GenerateWorld(sofya::NoLinksWorldSpec());
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  sofya::SynthWorld world = std::move(world_or).value();

  const struct {
    CandidateSourceKind kind;
    const char* name;
  } kinds[] = {
      {CandidateSourceKind::kSameAs, "sameas"},
      {CandidateSourceKind::kLexical, "lexical"},
      {CandidateSourceKind::kDistribution, "distribution"},
      {CandidateSourceKind::kAuto, "auto"},
  };

  sofya::TableWriter table(
      {"source", "recall@8", "queries", "discovered", "ms"});
  SourceRun runs[4];
  for (size_t i = 0; i < 4; ++i) {
    runs[i] = RunSource(&world, kinds[i].kind);
    table.AddRow({kinds[i].name, sofya::FormatDouble(runs[i].recall, 2),
                  std::to_string(runs[i].queries),
                  std::to_string(runs[i].discovered),
                  sofya::FormatDouble(runs[i].ms, 1)});
  }
  if (!json) {
    std::printf("zero-links preset (%zu aligned pairs, 0 sameAs links):\n",
                world.truth.CountSubsumptions("canon2", "canon1"));
    table.Print(std::cout);
    std::printf(
        "\nlexical finds the gold through labels alone; sameas works here "
        "only because the preset shares identifiers (the translator's "
        "identity fallback) — with disjoint namespaces its recall is 0.\n\n");
  }

  // ----------------------------------------------------------------------
  // Section 2: sameAs-source verdict fingerprint on the movies preset (the
  // refactor parity pin CI compares against a frozen constant).
  auto movies = std::move(sofya::GenerateWorld(sofya::MoviesWorldSpec())).value();
  sofya::LocalEndpoint mcand(movies.kb1.get());
  sofya::LocalEndpoint mref(movies.kb2.get());
  sofya::RelationAligner aligner(&mcand, &mref, &movies.links);
  std::vector<sofya::AlignmentResult> results;
  for (const std::string& iri : movies.truth.RelationsOf("filmkb")) {
    auto result = aligner.Align(Term::Iri(iri));
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*result));
  }
  const uint64_t fingerprint = AlignmentFingerprint(results);
  if (!json) {
    std::printf("movies sameAs verdict fingerprint: %016llx\n\n",
                static_cast<unsigned long long>(fingerprint));
  }

  // ----------------------------------------------------------------------
  // Section 3: LSH lookup scaling — sub-linear in the inventory size.
  const size_t scales[] = {25000, 100000, 400000};
  ScalePoint points[3];
  sofya::TableWriter scale_table(
      {"P", "avg ids scanned", "scan fraction", "lookup us"});
  for (size_t i = 0; i < 3; ++i) {
    points[i] = MeasureLshScale(scales[i]);
    scale_table.AddRow({std::to_string(points[i].p),
                        sofya::FormatDouble(points[i].avg_scanned, 1),
                        sofya::FormatDouble(points[i].scan_fraction, 4),
                        sofya::FormatDouble(points[i].avg_lookup_us, 1)});
  }
  if (!json) {
    scale_table.Print(std::cout);
    std::printf(
        "\nbrute force scores all P labels per reference relation; the LSH "
        "lattice touches the fraction above (bucket mates only).\n");
  }

  if (json) {
    std::printf("{\n  \"preset\": \"nolinks\",\n  \"sources\": {\n");
    for (size_t i = 0; i < 4; ++i) {
      std::printf(
          "    \"%s\": {\"recall_at_8\": %.4f, \"queries\": %llu, "
          "\"discovered\": %zu, \"ms\": %.1f}%s\n",
          kinds[i].name, runs[i].recall,
          static_cast<unsigned long long>(runs[i].queries), runs[i].discovered,
          runs[i].ms, i + 1 < 4 ? "," : "");
    }
    std::printf("  },\n  \"sameas_fingerprint\": \"%016llx\",\n",
                static_cast<unsigned long long>(fingerprint));
    std::printf("  \"lsh_scaling\": [\n");
    for (size_t i = 0; i < 3; ++i) {
      std::printf(
          "    {\"P\": %zu, \"avg_scanned\": %.1f, \"scan_fraction\": %.6f, "
          "\"avg_lookup_us\": %.1f}%s\n",
          points[i].p, points[i].avg_scanned, points[i].scan_fraction,
          points[i].avg_lookup_us, i + 1 < 3 ? "," : "");
    }
    std::printf("  ]\n}\n");
  }
  return 0;
}
