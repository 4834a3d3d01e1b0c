// Store bench — snapshot load vs N-Triples re-parse, quantified.
//
// The same dataset is written both ways, then cold-loaded both ways. The
// snapshot path is a checksum pass + dictionary rebuild + mmap attach; the
// parse path re-tokenizes every line. Loaded stores must answer a probe
// query identically: the bench exits nonzero on any mismatch, so the CI
// smoke run doubles as an integration test.
//
// Pass --json (or set SOFYA_JSON=1) for a machine-readable summary (CI).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <fstream>
#include <string>
#include <vector>

#include "core/sofya.h"
#include "rdf/store_snapshot.h"

int main(int argc, char** argv) {
  bool json = std::getenv("SOFYA_JSON") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  const double scale =
      std::getenv("SOFYA_SCALE") ? std::atof(std::getenv("SOFYA_SCALE")) : 1.0;

  // ----------------------------------------------------------------------
  // The dataset: one hot predicate plus a tail of cold predicates, so
  // several ring shards are populated.
  const size_t hot_facts = static_cast<size_t>(300000 * scale);
  const size_t subjects = hot_facts / 4;
  sofya::KnowledgeBase kb("scanbench", "http://scan.org/");
  {
    sofya::TripleStore::BulkLoadScope bulk(&kb.store(), hot_facts + 20000);
    for (size_t i = 0; i < hot_facts; ++i) {
      kb.AddFact("s" + std::to_string(i % subjects), "hot",
                 "v" + std::to_string((i * 13 + 7) % 4093));
    }
    for (size_t i = 0; i < 10000; ++i) {
      kb.AddFact("s" + std::to_string(i % subjects),
                 "cold" + std::to_string(i % 7), "c" + std::to_string(i % 31));
    }
  }

  const std::string dir =
      std::getenv("TMPDIR") ? std::getenv("TMPDIR") : "/tmp";
  const std::string nt_path = dir + "/sofya_bench_store.nt";
  const std::string snap_path = dir + "/sofya_bench_store.snap";

  auto nt_doc = sofya::WriteNTriplesString(kb.store(), kb.dict());
  if (!nt_doc.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", nt_doc.status().ToString().c_str());
    return 1;
  }
  {
    std::ofstream out(nt_path, std::ios::trunc);
    out << *nt_doc;
  }
  auto saved = sofya::SaveStoreSnapshot(kb.store(), kb.dict(), snap_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", saved.status().ToString().c_str());
    return 1;
  }

  double parse_ms = 0, snap_ms = 0;
  size_t parse_triples = 0, snap_triples = 0;
  bool load_parity = true;
  {
    sofya::KnowledgeBase parsed("parsed", "http://scan.org/");
    std::ifstream in(nt_path);
    sofya::WallTimer timer;
    auto report =
        sofya::ParseNTriples(in, &parsed.dict(), &parsed.store());
    parse_ms = timer.ElapsedMillis();
    if (!report.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    parse_triples = parsed.size();

    sofya::KnowledgeBase snapped("snapped", "http://scan.org/");
    sofya::WallTimer timer2;
    auto loaded = snapped.LoadSnapshot(snap_path);
    snap_ms = timer2.ElapsedMillis();
    if (!loaded.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    snap_triples = snapped.size();

    // Parity gate: both cold stores answer the probe join identically to
    // the original (sorted compare — enumeration order across a re-parse
    // depends on insert order, which the snapshot intentionally preserves
    // but the NT writer's own ordering may not).
    auto probe = [&](sofya::KnowledgeBase* target) {
      const sofya::TermId h = target->RelationId("hot");
      sofya::SelectQuery q;
      const sofya::VarId s = q.NewVar("s");
      const sofya::VarId v = q.NewVar("v");
      q.Where(sofya::NodeRef::Variable(s), sofya::NodeRef::Constant(h),
              sofya::NodeRef::Variable(v));
      auto rows = sofya::Evaluate(target->store(), q);
      std::vector<std::string> rendered;
      if (rows.ok()) {
        for (const auto& row : rows->rows) {
          std::string line;
          for (sofya::TermId id : row) {
            line += target->dict().Decode(id).ToNTriples() + "\t";
          }
          rendered.push_back(std::move(line));
        }
      }
      std::sort(rendered.begin(), rendered.end());
      return rendered;
    };
    const auto original = probe(&kb);
    load_parity = probe(&parsed) == original && probe(&snapped) == original &&
                  parse_triples == kb.size() && snap_triples == kb.size();
  }

  const double load_speedup = snap_ms > 0 ? parse_ms / snap_ms : 0.0;
  if (!json) {
    std::printf("=== cold start: snapshot mmap load vs N-Triples re-parse "
                "(%zu triples, %zu shards) ===\n\n",
                kb.size(), kb.store().num_shards());
    sofya::TableWriter table({"path", "triples", "ms", "speedup"});
    table.AddRow({"N-Triples parse", std::to_string(parse_triples),
                  sofya::FormatDouble(parse_ms, 1), "1.0x"});
    table.AddRow({"snapshot mmap", std::to_string(snap_triples),
                  sofya::FormatDouble(snap_ms, 1),
                  sofya::FormatDouble(load_speedup, 1) + "x"});
    table.Print(std::cout);
    std::printf("\nsnapshot: %llu bytes on disk; load verifies the checksum, "
                "rebuilds the dictionary, and attaches triples zero-copy\n",
                static_cast<unsigned long long>(saved->bytes));
    std::printf("loaded stores answer probes identically: %s\n",
                load_parity ? "yes" : "NO (BUG)");
  }

  if (json) {
    std::printf("{\"triples\": %zu, \"shards\": %zu, ", kb.size(),
                kb.store().num_shards());
    std::printf("\"snapshot\": {\"bytes\": %llu, \"parse_ms\": %.2f, "
                "\"mmap_ms\": %.2f, \"load_speedup\": %.2f, "
                "\"parity\": %s}}\n",
                static_cast<unsigned long long>(saved->bytes), parse_ms,
                snap_ms, load_speedup, load_parity ? "true" : "false");
  }

  std::remove(nt_path.c_str());
  std::remove(snap_path.c_str());

  // Correctness gate: persistence must never change answers. The speedup is
  // reported, not asserted — CI runners vary.
  if (!load_parity) {
    std::fprintf(stderr,
                 "FATAL: snapshot/parse cold loads disagree with source\n");
    return 1;
  }
  return 0;
}
