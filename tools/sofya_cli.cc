// sofya — command-line interface to the library.
//
//   sofya generate --preset movies --out DIR [--seed N] [--scale S]
//       Write a benchmark world as kb1.nt / kb2.nt / links.nt / truth.tsv.
//
//   sofya align --kb1 F|URL --kb2 F|URL --links F --relation IRI[,IRI...]
//               [--threads N] [--tau T] [--measure pca|cwa] [--no-ubs]
//               [--sample N] [--base1 IRI] [--base2 IRI]
//       Load two datasets + an owl:sameAs link file and align the given
//       reference relation(s) (IRIs live in --kb2) on the fly. A dataset
//       is either an N-Triples file or an http:// SPARQL endpoint URL
//       (live DBpedia/Wikidata-style access; --base1/--base2 give the
//       remote datasets' entity namespaces for sameAs translation).
//       --relation all aligns every kb2 relation; --threads N fans the
//       relations out across N workers (verdicts are identical to
//       sequential for any N).
//
//   sofya query --kb F --sparql 'SELECT ...'
//   sofya query --endpoint-url URL --sparql 'SELECT ...'
//       Run a SPARQL SELECT (the supported subset) against a local
//       dataset or a remote SPARQL endpoint (retried with backoff on
//       transient failures).
//
//   sofya snapshot save --kb F --out F.snap
//   sofya snapshot load --kb F.snap
//       Freeze a dataset to the binary snapshot format (store_snapshot.h)
//       or verify/mmap-load one. Everywhere a --kb flag takes a file, a
//       .snap snapshot is auto-detected and mmap-loaded instead of parsed.
//
//   sofya serve --kb F [--port N] [--address A] [--path /sparql]
//               [--workers N] [--max-concurrent N]
//               [--per-client-concurrent N] [--quota N] [--retry-after-s S]
//               [--port-file F]
//       Serve the dataset as a SPARQL 1.1 Protocol endpoint (GET ?query=
//       and POST, results as application/sparql-results+json) until
//       SIGINT/SIGTERM. --port 0 (default) picks an ephemeral port;
//       --port-file writes the bound port for scripts. The admission knobs
//       shed overload with 503/429 + Retry-After — exactly what the
//       client-side retry stack (query --endpoint-url, align against a
//       URL) backs off on and recovers from. --workers N is the number of
//       server threads in total (default 4); each one accepts, reads, runs
//       queries and writes.
//
//   sofya explain --kb F --sparql 'SELECT ...' [--execute] [--json]
//       Show the join-order plan the engine would run the query with:
//       chosen clause order, per-clause cardinality estimates (per-stage
//       fan-out and cumulative), attached filters. --execute also runs the
//       query and merges the observed per-clause row counts into the table
//       (estimated-vs-actual) plus the evaluation metering; --json emits
//       the whole report as one machine-readable JSON object.
//
// Each subcommand accepts only its own flags: any other --flag exits 2
// with "unknown flag --NAME". A boolean flag (--inverses, --lenient,
// --no-ubs, --update, --execute, --json) takes no value, every other flag
// takes one ("missing value for --NAME" otherwise, exit 2), and any word
// that is neither a flag nor a value flag's value exits 2 with
// "unexpected argument 'WORD'".

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/run_manifest.h"
#include "core/sofya.h"
#include "endpoint/recording_endpoint.h"
#include "endpoint/replay_endpoint.h"
#include "rdf/store_snapshot.h"
#include "util/timer.h"

namespace sofya {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sofya generate --preset tiny|movies|music|nolinks|"
               "yago-dbpedia --out DIR [--seed N] [--scale S] [--inverses]\n"
               "  sofya align --kb1 FILE|URL --kb2 FILE|URL --links FILE "
               "--relation IRI[,IRI...]|all [--threads N] [--tau T] "
               "[--measure pca|cwa] [--no-ubs] [--sample N] [--seed N] "
               "[--candidate-source sameas|lexical|distribution|auto] "
               "[--base1 IRI] [--base2 IRI]\n"
               "  sofya record ...align flags... --cassette-dir DIR\n"
               "      (align + capture every endpoint interaction into "
               "DIR/kb1.cass, DIR/kb2.cass, DIR/run.manifest)\n"
               "  sofya replay --links FILE --relation ... --cassette-dir DIR "
               "[--lenient --kb1 F --kb2 F [--update]] "
               "[--manifest-out F] [--expect-manifest F]\n"
               "      (re-run the alignment from the cassettes, no network/"
               "dataset; strict mode fails on unrecorded queries)\n"
               "  sofya manifest diff A.manifest B.manifest\n"
               "  sofya query (--kb FILE | --endpoint-url URL) "
               "--sparql 'SELECT ...'\n"
               "  sofya serve --kb FILE [--port N] [--address A] "
               "[--path /sparql] [--workers N] "
               "[--max-concurrent N] [--per-client-concurrent N] "
               "[--quota N] [--retry-after-s S] [--port-file FILE]\n"
               "  sofya explain --kb FILE --sparql 'SELECT ...' "
               "[--execute] [--json]\n"
               "  sofya snapshot save --kb FILE --out FILE.snap\n"
               "  sofya snapshot load --kb FILE.snap\n"
               "(--kb accepts N-Triples or .snap snapshots everywhere; "
               "snapshots mmap-load)\n");
  return 2;
}

/// The flags one subcommand accepts: value flags take the next word,
/// boolean flags take none.
struct FlagSpec {
  std::set<std::string> values;
  std::set<std::string> booleans;
};

/// The flags `command` accepts; none for an unknown command.
FlagSpec KnownFlags(const std::string& command) {
  FlagSpec align = {{"kb1", "kb2", "links", "relation", "threads", "tau",
                     "measure", "sample", "seed", "base1", "base2",
                     "candidate-source"},
                    {"no-ubs"}};
  if (command == "align") return align;
  if (command == "record" || command == "replay") {
    align.values.insert("cassette-dir");
    if (command == "replay") {
      align.values.insert({"manifest-out", "expect-manifest"});
      align.booleans.insert({"lenient", "update"});
    }
    return align;
  }
  if (command == "generate") {
    return {{"preset", "out", "seed", "scale"}, {"inverses"}};
  }
  if (command == "query") return {{"kb", "endpoint-url", "sparql"}, {}};
  if (command == "serve") {
    return {{"kb", "port", "address", "path", "workers", "quota",
             "retry-after-s", "port-file", "max-concurrent",
             "per-client-concurrent"},
            {}};
  }
  if (command == "explain") return {{"kb", "sparql"}, {"execute", "json"}};
  if (command == "snapshot") return {{"kb", "out"}, {}};
  return {};
}

/// Minimal flag parser: --key value and boolean --key. A flag outside
/// `known` prints "unknown flag --NAME", a value flag with no value prints
/// "missing value for --NAME", and a word no flag takes prints
/// "unexpected argument 'WORD'"; each returns false (the caller exits 2),
/// so a typo such as `--thread 4` or a stray word fails instead of running
/// with a default.
bool ParseFlags(int argc, char** argv, int start, const FlagSpec& known,
                std::map<std::string, std::string>* flags) {
  for (int i = start; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    arg = arg.substr(2);
    if (known.booleans.count(arg)) {
      (*flags)[arg] = "true";
    } else if (!known.values.count(arg)) {
      std::fprintf(stderr, "unknown flag --%s\n", arg.c_str());
      return false;
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      (*flags)[arg] = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for --%s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// Reads numeric flag `name` into `*out` when it is present. The whole value
/// must parse as a T within [lo, hi]; otherwise prints
/// "invalid --name 'value'" and returns false, and the caller exits 2.
template <typename T>
bool NumberFlag(const std::map<std::string, std::string>& flags,
                const char* name, T* out,
                std::type_identity_t<T> lo = std::numeric_limits<T>::lowest(),
                std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  const auto it = flags.find(name);
  if (it == flags.end()) return true;
  const std::string& text = it->second;
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end ||
      !(value >= lo && value <= hi)) {
    std::fprintf(stderr, "invalid --%s '%s'\n", name, text.c_str());
    return false;
  }
  *out = value;
  return true;
}

/// Loads a dataset into `kb`, auto-detecting the format: snapshot files
/// (rdf/store_snapshot.h magic) mmap-load in O(dictionary), anything else
/// parses as N-Triples with a file-size-derived capacity reservation.
Status LoadKb(const std::string& path, KnowledgeBase* kb) {
  WallTimer timer;
  if (LooksLikeSnapshot(path)) {
    SOFYA_ASSIGN_OR_RETURN(SnapshotReport report, kb->LoadSnapshot(path));
    std::fprintf(stderr, "loaded %s: %zu triples (snapshot, %.0f ms)\n",
                 path.c_str(), report.triples, timer.ElapsedMillis());
    return Status::OK();
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::error_code ec;
  const uint64_t file_bytes = std::filesystem::file_size(path, ec);
  const size_t expected =
      ec ? 0 : static_cast<size_t>(file_bytes / 120);  // ~bytes per triple.
  SOFYA_ASSIGN_OR_RETURN(
      NTriplesParseReport report,
      ParseNTriples(in, &kb->dict(), &kb->store(), expected));
  std::fprintf(stderr, "loaded %s: %zu triples (%.0f ms)\n", path.c_str(),
               report.triples_parsed, timer.ElapsedMillis());
  return Status::OK();
}

Status LoadLinks(const std::string& path, SameAsIndex* links) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::string line;
  size_t n = 0, line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    Term s, p, o;
    Status st = ParseNTriplesLine(line, &s, &p, &o);
    if (st.IsNotFound()) continue;
    SOFYA_RETURN_IF_ERROR(st.WithContext(StrFormat("line %zu", line_no)));
    if (p.lexical() != ns::kOwlSameAs) continue;
    links->AddLink(s, o);
    ++n;
  }
  std::fprintf(stderr, "loaded %s: %zu sameAs links\n", path.c_str(), n);
  return Status::OK();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) return Status::NotFound("cannot write " + path);
  out << content;
  return Status::OK();
}

int Generate(const std::map<std::string, std::string>& flags) {
  const std::string preset =
      flags.count("preset") ? flags.at("preset") : "movies";
  const std::string out_dir = flags.count("out") ? flags.at("out") : ".";
  uint64_t seed = 7;
  double scale = 0.25;
  if (!NumberFlag(flags, "seed", &seed) ||
      !NumberFlag(flags, "scale", &scale, 0.0)) {
    return 2;
  }

  WorldSpec spec;
  if (preset == "tiny") {
    spec = TinyWorldSpec(seed);
  } else if (preset == "movies") {
    spec = MoviesWorldSpec(seed);
  } else if (preset == "music") {
    spec = MusicWorldSpec(seed);
  } else if (preset == "nolinks") {
    spec = NoLinksWorldSpec(seed);
  } else if (preset == "yago-dbpedia") {
    spec = YagoDbpediaSpec(seed, scale);
  } else {
    std::fprintf(stderr, "unknown preset '%s'\n", preset.c_str());
    return 2;
  }
  if (flags.count("inverses")) spec.add_inverse_relations = true;

  auto world_or = GenerateWorld(spec);
  if (!world_or.ok()) {
    std::fprintf(stderr, "%s\n", world_or.status().ToString().c_str());
    return 1;
  }
  SynthWorld world = std::move(world_or).value();
  std::printf("%s\n", DescribeWorld(world).c_str());

  auto kb1 = WriteNTriplesString(world.kb1->store(), world.kb1->dict());
  auto kb2 = WriteNTriplesString(world.kb2->store(), world.kb2->dict());
  if (!kb1.ok() || !kb2.ok()) return 1;

  // Serialize links as owl:sameAs N-Triples. SameAsIndex does not
  // enumerate pairs, so walk kb1's resource IRIs and emit each one's
  // translation.
  std::string links_doc;
  {
    const std::string same_as = std::string(ns::kOwlSameAs);
    const Dictionary& dict = world.kb1->dict();
    for (TermId id = dict.min_id(); id <= dict.max_id(); ++id) {
      const Term& term = dict.Decode(id);
      if (!term.is_iri() ||
          !StartsWith(term.lexical(), world.kb1->base_iri() + "resource/")) {
        continue;
      }
      auto partner = world.links.TranslateTo(term, world.kb2->base_iri());
      if (!partner.ok()) continue;
      // Shared-namespace worlds (nolinks) "translate" unlinked terms to
      // themselves — not a link, don't emit a self sameAs.
      if (*partner == term) continue;
      links_doc += term.ToNTriples() + " <" + same_as + "> " +
                   partner->ToNTriples() + " .\n";
    }
  }

  // Ground truth as TSV: body, head, kind.
  std::string truth_doc = "#body\thead\tkind\n";
  for (const std::string& body : world.truth.RelationsOf(world.kb1->name())) {
    for (const std::string& head :
         world.truth.RelationsOf(world.kb2->name())) {
      const AlignKind kind = world.truth.Classify(body, head);
      if (kind == AlignKind::kNone) continue;
      truth_doc += body + "\t" + head + "\t" + AlignKindName(kind) + "\n";
    }
  }

  for (const auto& [name, content] :
       std::initializer_list<std::pair<const char*, const std::string*>>{
           {"kb1.nt", &*kb1},
           {"kb2.nt", &*kb2},
           {"links.nt", &links_doc},
           {"truth.tsv", &truth_doc}}) {
    const std::string path = out_dir + "/" + name;
    Status st = WriteFile(path, *content);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// Guesses a dataset's base IRI as the longest common prefix of its
/// resource IRIs (up to the last '/').
std::string GuessBaseIri(const KnowledgeBase& kb) {
  const Dictionary& dict = kb.dict();
  std::string prefix;
  for (TermId id = dict.min_id(); id <= dict.max_id(); ++id) {
    const Term& term = dict.Decode(id);
    if (!term.is_iri()) continue;
    const std::string& iri = term.lexical();
    if (prefix.empty()) {
      prefix = iri;
      continue;
    }
    size_t i = 0;
    while (i < prefix.size() && i < iri.size() && prefix[i] == iri[i]) ++i;
    prefix.resize(i);
  }
  const size_t slash = prefix.rfind('/');
  if (slash != std::string::npos) prefix.resize(slash + 1);
  return prefix;
}

/// True when a dataset spec names a remote SPARQL endpoint, not a file.
bool IsEndpointUrl(const std::string& spec) {
  return StartsWith(spec, "http://") || StartsWith(spec, "https://");
}

/// Builds one dataset's base endpoint: an HttpSparqlEndpoint for URLs, a
/// LocalEndpoint over a freshly loaded KB for files. `kb_storage` owns the
/// loaded KB in the file case and must outlive the returned endpoint.
StatusOr<std::unique_ptr<Endpoint>> MakeBaseEndpoint(
    const std::string& spec, const std::string& name,
    const std::string& base_iri, std::unique_ptr<KnowledgeBase>* kb_storage) {
  if (IsEndpointUrl(spec)) {
    if (base_iri.empty()) {
      // An empty base IRI would make sameAs translation match *every*
      // group member (prefix filter on "" never filters) and silently
      // corrupt verdicts; a local file guesses its base, a remote endpoint
      // cannot.
      return Status::InvalidArgument(
          name + " is a remote endpoint; pass its entity namespace via --" +
          (name == "kb1" ? std::string("base1") : std::string("base2")) +
          " (e.g. http://dbpedia.org/)");
    }
    HttpSparqlEndpointOptions options;
    options.name = name;
    options.base_iri = base_iri;
    SOFYA_ASSIGN_OR_RETURN(std::unique_ptr<HttpSparqlEndpoint> endpoint,
                           HttpSparqlEndpoint::Create(spec, options));
    std::fprintf(stderr, "%s: remote endpoint %s\n", name.c_str(),
                 spec.c_str());
    return std::unique_ptr<Endpoint>(std::move(endpoint));
  }
  auto loaded = std::make_unique<KnowledgeBase>(name, "");
  SOFYA_RETURN_IF_ERROR(LoadKb(spec, loaded.get()));
  const std::string guessed =
      base_iri.empty() ? GuessBaseIri(*loaded) : base_iri;
  *kb_storage = std::make_unique<KnowledgeBase>(name, guessed);
  (*kb_storage)->dict() = std::move(loaded->dict());
  (*kb_storage)->store() = std::move(loaded->store());
  std::fprintf(stderr, "%s: base IRI %s\n", name.c_str(), guessed.c_str());
  return std::unique_ptr<Endpoint>(
      std::make_unique<LocalEndpoint>(kb_storage->get()));
}

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return Status::OK();
}

/// Alignment run mode: plain, or with the cassette record/replay harness.
enum class RunMode { kAlign, kRecord, kReplay };

/// Shared runner behind `align`, `record`, and `replay`: builds the base
/// endpoints for the mode (live, recording-wrapped, or cassette-replaying),
/// aligns, prints verdicts + cost, and handles the cassette/manifest
/// artifacts afterwards.
int RunAlignment(const std::map<std::string, std::string>& flags,
                 RunMode mode) {
  const bool record = mode == RunMode::kRecord;
  const bool replay = mode == RunMode::kReplay;
  const bool lenient = replay && flags.count("lenient");
  const bool needs_kbs = !replay || lenient;
  if (!flags.count("links") || !flags.count("relation")) return Usage();
  if ((record || replay) && !flags.count("cassette-dir")) {
    std::fprintf(stderr, "%s requires --cassette-dir DIR\n",
                 record ? "record" : "replay");
    return 2;
  }
  if (needs_kbs && (!flags.count("kb1") || !flags.count("kb2"))) {
    if (lenient) {
      std::fprintf(stderr,
                   "--lenient replay needs --kb1/--kb2 fallback datasets\n");
      return 2;
    }
    return Usage();
  }

  // Options first, so a malformed flag fails before any dataset loads.
  SofyaOptions options;
  uint64_t seed = 0;
  size_t threads = 1;
  if (!NumberFlag(flags, "tau", &options.aligner.threshold, 0.0, 1.0) ||
      !NumberFlag(flags, "sample", &options.aligner.sampler.sample_size) ||
      !NumberFlag(flags, "seed", &seed) ||
      !NumberFlag(flags, "threads", &threads)) {
    return 2;
  }
  if (flags.count("measure") && flags.at("measure") == "cwa") {
    options.aligner.measure = ConfidenceMeasure::kCwa;
  }
  if (flags.count("no-ubs")) options.aligner.use_ubs = false;
  if (flags.count("candidate-source")) {
    auto kind = ParseCandidateSourceKind(flags.at("candidate-source"));
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    options.aligner.finder.source = *kind;
  }
  ApplyRunSeed(&options.aligner, seed);

  SameAsIndex links;
  if (Status st = LoadLinks(flags.at("links"), &links); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  const std::string cassette_dir =
      (record || replay) ? flags.at("cassette-dir") : "";
  const std::string cass1_path = cassette_dir + "/kb1.cass";
  const std::string cass2_path = cassette_dir + "/kb2.cass";

  // Everything below must outlive the Sofya facade (declared before it).
  std::unique_ptr<KnowledgeBase> kb1_storage;
  std::unique_ptr<KnowledgeBase> kb2_storage;
  std::unique_ptr<Endpoint> live1;  // Live base (align/record/lenient).
  std::unique_ptr<Endpoint> live2;

  if (needs_kbs) {
    const std::string base1 = flags.count("base1") ? flags.at("base1") : "";
    const std::string base2 = flags.count("base2") ? flags.at("base2") : "";
    auto ep1 = MakeBaseEndpoint(flags.at("kb1"), "kb1", base1, &kb1_storage);
    auto ep2 = MakeBaseEndpoint(flags.at("kb2"), "kb2", base2, &kb2_storage);
    if (!ep1.ok() || !ep2.ok()) {
      const Status& bad = !ep1.ok() ? ep1.status() : ep2.status();
      std::fprintf(stderr, "%s\n", bad.ToString().c_str());
      return 1;
    }
    live1 = std::move(*ep1);
    live2 = std::move(*ep2);
  }

  // The bases handed to Sofya, plus raw handles kept for the post-run
  // cassette/manifest work (Sofya owns the wrappers).
  std::unique_ptr<Endpoint> kb1_endpoint;
  std::unique_ptr<Endpoint> kb2_endpoint;
  RecordingEndpoint* recorder1 = nullptr;
  RecordingEndpoint* recorder2 = nullptr;
  ReplayEndpoint* replayer1 = nullptr;
  ReplayEndpoint* replayer2 = nullptr;

  if (record) {
    std::error_code ec;
    std::filesystem::create_directories(cassette_dir, ec);
    auto rec1 = std::make_unique<RecordingEndpoint>(live1.get());
    auto rec2 = std::make_unique<RecordingEndpoint>(live2.get());
    recorder1 = rec1.get();
    recorder2 = rec2.get();
    kb1_endpoint = std::move(rec1);
    kb2_endpoint = std::move(rec2);
  } else if (replay) {
    auto rep1 = ReplayEndpoint::Open(cass1_path,
                                     lenient ? live1.get() : nullptr);
    auto rep2 = ReplayEndpoint::Open(cass2_path,
                                     lenient ? live2.get() : nullptr);
    if (!rep1.ok() || !rep2.ok()) {
      const Status& bad = !rep1.ok() ? rep1.status() : rep2.status();
      std::fprintf(stderr, "%s\n", bad.ToString().c_str());
      return 1;
    }
    replayer1 = rep1->get();
    replayer2 = rep2->get();
    kb1_endpoint = std::move(*rep1);
    kb2_endpoint = std::move(*rep2);
    std::fprintf(stderr, "replaying %s (%s mode)\n", cassette_dir.c_str(),
                 lenient ? "lenient" : "strict");
  } else {
    kb1_endpoint = std::move(live1);
    kb2_endpoint = std::move(live2);
  }

  Sofya sofya(std::move(kb1_endpoint), std::move(kb2_endpoint), &links,
              options);
  if (record) sofya.AttachJournals(recorder1, recorder2);
  if (replay) sofya.AttachJournals(replayer1, replayer2);

  // --relation: one IRI, a comma-separated list, or "all" (every predicate
  // of the reference KB).
  std::vector<std::string> relations;
  const std::string& relation_flag = flags.at("relation");
  if (relation_flag == "all") {
    auto discovered = sofya.ReferenceRelations();
    if (!discovered.ok()) {
      std::fprintf(stderr, "relation discovery failed: %s\n",
                   discovered.status().ToString().c_str());
      return 1;
    }
    relations = std::move(*discovered);
  } else {
    for (std::string& iri : Split(relation_flag, ',')) {
      if (!iri.empty()) relations.push_back(std::move(iri));
    }
  }
  if (relations.empty()) {
    std::fprintf(stderr, "no relations to align\n");
    return 2;
  }
  WallTimer timer;
  auto results = sofya.AlignAll(relations, threads);
  if (!results.ok()) {
    std::fprintf(stderr, "alignment failed: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < relations.size(); ++i) {
    const AlignmentResult* result = (*results)[i];
    std::printf("alignment of <%s>:\n", relations[i].c_str());
    if (result->verdicts.empty()) {
      std::printf("  (no candidate relations discovered)\n");
    }
    for (const auto& v : result->verdicts) {
      std::printf("  %-60s prior=%.2f pca=%.2f cwa=%.2f supp=%zu %s%s%s\n",
                  v.relation.lexical().c_str(), v.prior, v.rule.pca_conf,
                  v.rule.cwa_conf, v.rule.support,
                  v.accepted ? "[SUBSUMED]" : "[rejected]",
                  v.ubs_subsumption_pruned ? " (UBS pruned)" : "",
                  v.equivalence ? " [EQUIVALENT]" : "");
    }
  }
  const EndpointStats cost = sofya.TotalCost();
  std::printf(
      "cost: %llu queries, %llu rows, %zu relations, %zu threads, "
      "%.0f ms wall\n",
      static_cast<unsigned long long>(cost.queries),
      static_cast<unsigned long long>(cost.rows_returned), relations.size(),
      threads, timer.ElapsedMillis());

  if (record) {
    for (const auto& [recorder, path] :
         {std::pair{recorder1, &cass1_path}, std::pair{recorder2, &cass2_path}}) {
      if (Status st = recorder->Save(*path); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("recorded %s: %zu entries\n", path->c_str(),
                  recorder->num_entries());
      if (recorder->conflicts() > 0) {
        std::fprintf(stderr,
                     "warning: %s: %llu conflicting re-answers (dataset "
                     "changed mid-recording; first answer kept)\n",
                     path->c_str(),
                     static_cast<unsigned long long>(recorder->conflicts()));
      }
    }
    const std::string manifest_path = cassette_dir + "/run.manifest";
    if (Status st = WriteFile(manifest_path,
                              sofya.last_manifest().Serialize());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("recorded %s\nmanifest root: %s\n", manifest_path.c_str(),
                sofya.last_manifest().root().c_str());
  }

  if (replay) {
    const uint64_t misses =
        replayer1->strict_misses() + replayer2->strict_misses();
    if (misses > 0) {
      // Strict mode: an unrecorded interaction means this run is NOT the
      // recorded session — fail loudly even when the pipeline degraded
      // gracefully (e.g. an unrecorded term lookup yielding no candidates).
      std::fprintf(stderr,
                   "replay: %llu unrecorded interactions (strict mode)\n",
                   static_cast<unsigned long long>(misses));
      return 1;
    }
    if (lenient && flags.count("update")) {
      // Persist the cassettes extended by fall-through appends.
      for (const auto& [replayer, path] :
           {std::pair{replayer1, &cass1_path},
            std::pair{replayer2, &cass2_path}}) {
        if (Status st = replayer->Save(*path); !st.ok()) {
          std::fprintf(stderr, "%s\n", st.ToString().c_str());
          return 1;
        }
        std::printf("updated %s (+%llu entries)\n", path->c_str(),
                    static_cast<unsigned long long>(replayer->appended()));
      }
    }
    std::printf("manifest root: %s\n", sofya.last_manifest().root().c_str());
    if (flags.count("manifest-out")) {
      if (Status st = WriteFile(flags.at("manifest-out"),
                                sofya.last_manifest().Serialize());
          !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    if (flags.count("expect-manifest")) {
      std::string expected_text;
      if (Status st = ReadFileToString(flags.at("expect-manifest"),
                                       &expected_text);
          !st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
      auto expected = RunManifest::Parse(expected_text);
      if (!expected.ok()) {
        std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
        return 2;
      }
      if (auto div = FirstDivergence(*expected, sofya.last_manifest())) {
        std::fprintf(stderr,
                     "manifest MISMATCH at entry %zu: %s\n"
                     "expected root %s, got %s\n",
                     div->index, div->what.c_str(),
                     expected->root().c_str(),
                     sofya.last_manifest().root().c_str());
        return 1;
      }
      std::printf("manifest verified against %s\n",
                  flags.at("expect-manifest").c_str());
    }
  }
  return 0;
}

int Align(const std::map<std::string, std::string>& flags) {
  return RunAlignment(flags, RunMode::kAlign);
}

/// `manifest diff A B`: verifies both manifests and pinpoints the first
/// diverging entry. Exit 0 = identical, 1 = diverged, 2 = unreadable.
int ManifestDiff(const std::string& a_path, const std::string& b_path) {
  RunManifest manifests[2];
  const std::string* paths[2] = {&a_path, &b_path};
  for (int i = 0; i < 2; ++i) {
    std::string text;
    if (Status st = ReadFileToString(*paths[i], &text); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    auto parsed = RunManifest::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", paths[i]->c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    manifests[i] = std::move(*parsed);
  }
  if (auto div = FirstDivergence(manifests[0], manifests[1])) {
    std::printf("manifests diverge at entry %zu: %s\n", div->index,
                div->what.c_str());
    std::printf("roots: %s vs %s\n", manifests[0].root().c_str(),
                manifests[1].root().c_str());
    return 1;
  }
  std::printf("manifests agree: root %s (%zu entries)\n",
              manifests[0].root().c_str(), manifests[0].entries().size());
  return 0;
}

int Query(const std::map<std::string, std::string>& flags) {
  if ((!flags.count("kb") && !flags.count("endpoint-url")) ||
      !flags.count("sparql")) {
    return Usage();
  }

  // Build the target endpoint: local file or remote SPARQL service. The
  // remote path is wrapped in RetryingEndpoint so one 503 does not kill a
  // one-shot query (backoff per retry_policy.h defaults).
  KnowledgeBase kb("kb", "");
  std::unique_ptr<LocalEndpoint> local;
  std::unique_ptr<HttpSparqlEndpoint> remote;
  std::unique_ptr<RetryingEndpoint> retrying;
  Endpoint* endpoint = nullptr;
  if (flags.count("endpoint-url")) {
    HttpSparqlEndpointOptions options;
    options.name = "remote";
    auto created = HttpSparqlEndpoint::Create(flags.at("endpoint-url"),
                                              options);
    if (!created.ok()) {
      std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
      return 1;
    }
    remote = std::move(*created);
    retrying = std::make_unique<RetryingEndpoint>(remote.get());
    endpoint = retrying.get();
  } else {
    Status st = LoadKb(flags.at("kb"), &kb);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    local = std::make_unique<LocalEndpoint>(&kb);
    endpoint = local.get();
  }

  const PrefixMap prefixes = PrefixMap::WithDefaults();
  auto rows = SelectText(endpoint, flags.at("sparql"), &prefixes);
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  // Header.
  std::string header;
  for (const auto& name : rows->var_names) header += "?" + name + "\t";
  std::printf("%s\n", header.c_str());
  for (const auto& row : rows->rows) {
    std::string line;
    for (TermId id : row) {
      if (id == kNullTermId) {
        line += "\t";  // Unbound cell (remote results may have them).
        continue;
      }
      auto term = endpoint->DecodeTerm(id);
      line += (term.ok() ? term->ToNTriples() : "?") + "\t";
    }
    std::printf("%s\n", line.c_str());
  }
  std::fprintf(stderr, "%zu rows\n", rows->rows.size());
  return 0;
}

int Explain(const std::map<std::string, std::string>& flags) {
  if (!flags.count("kb") || !flags.count("sparql")) return Usage();

  KnowledgeBase kb("kb", "");
  if (Status st = LoadKb(flags.at("kb"), &kb); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  LocalEndpoint endpoint(&kb);

  const PrefixMap prefixes = PrefixMap::WithDefaults();
  TermInterner intern = [&endpoint](const Term& t) {
    return endpoint.EncodeTerm(t);
  };
  auto query = ParseSelectQuery(flags.at("sparql"), intern, &prefixes);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  auto explain = endpoint.Explain(*query);
  if (!explain.ok()) {
    std::fprintf(stderr, "%s\n", explain.status().ToString().c_str());
    return 1;
  }

  EvalStats eval_stats;
  size_t executed_rows = 0;
  if (flags.count("execute")) {
    // Run through the engine directly so the per-stage actual row counts
    // (EvalStats::clause_rows) come back with the result; merge them into
    // the explain table by source clause index.
    auto result = endpoint.engine().Select(*query, &eval_stats);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    executed_rows = result->rows.size();
    for (const ClauseRowStats& cr : eval_stats.clause_rows) {
      for (ClauseExplain& ce : explain->clauses) {
        if (ce.source_index == cr.source_index) {
          ce.actual_rows = static_cast<int64_t>(cr.actual_rows);
        }
      }
    }
  }

  if (flags.count("json")) {
    std::printf("%s\n", explain->ToJson().c_str());
  } else {
    std::printf("%s", explain->ToString().c_str());
  }
  if (flags.count("execute") && !flags.count("json")) {
    std::printf(
        "executed: %zu rows, %llu index probes, %llu triples scanned\n",
        executed_rows, static_cast<unsigned long long>(eval_stats.index_probes),
        static_cast<unsigned long long>(eval_stats.triples_scanned));
  }
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

int Serve(const std::map<std::string, std::string>& flags) {
  if (!flags.count("kb")) return Usage();

  SparqlServerOptions server_options;
  HttpServerOptions http_options;
  if (!NumberFlag(flags, "max-concurrent", &server_options.max_concurrent) ||
      !NumberFlag(flags, "per-client-concurrent",
                  &server_options.max_concurrent_per_client) ||
      !NumberFlag(flags, "quota", &server_options.per_client_query_quota) ||
      !NumberFlag(flags, "retry-after-s", &server_options.retry_after_seconds,
                  0.0) ||
      !NumberFlag(flags, "port", &http_options.port) ||
      !NumberFlag(flags, "workers", &http_options.worker_threads)) {
    return 2;
  }
  if (flags.count("path")) server_options.service_path = flags.at("path");
  if (flags.count("address")) http_options.bind_address = flags.at("address");

  KnowledgeBase kb("kb", "");
  if (Status st = LoadKb(flags.at("kb"), &kb); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  SparqlServer server(&kb, server_options);
  HttpServer http(server.HttpHandler(), http_options);
  if (Status st = http.Start(); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serving %s at http://%s:%u%s\n", flags.at("kb").c_str(),
              http_options.bind_address.c_str(),
              static_cast<unsigned>(http.port()),
              server_options.service_path.c_str());
  std::fflush(stdout);
  if (flags.count("port-file")) {
    // Scripts (the CI smoke) poll this file to learn the ephemeral port.
    if (Status st = WriteFile(flags.at("port-file"),
                              std::to_string(http.port()) + "\n");
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      http.Stop();
      return 1;
    }
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(
      stderr,
      "shutting down: %llu connections, %llu requests, %llu queries "
      "answered, %llu shed (503), %llu shed (429)\n",
      static_cast<unsigned long long>(http.connections_accepted()),
      static_cast<unsigned long long>(server.requests_received()),
      static_cast<unsigned long long>(server.queries_answered()),
      static_cast<unsigned long long>(server.shed_concurrency()),
      static_cast<unsigned long long>(server.shed_quota()));
  http.Stop();
  return 0;
}

int Snapshot(const std::string& action,
             const std::map<std::string, std::string>& flags) {
  if (!flags.count("kb")) return Usage();
  if (action == "save") {
    if (!flags.count("out")) return Usage();
    KnowledgeBase kb("kb", "");
    if (Status st = LoadKb(flags.at("kb"), &kb); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    WallTimer timer;
    auto report = kb.SaveSnapshot(flags.at("out"));
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "wrote %s: %zu triples, %zu terms, %zu shards, %llu bytes, %.0f "
        "ms\n",
        flags.at("out").c_str(), report->triples, report->terms,
        report->shards, static_cast<unsigned long long>(report->bytes),
        timer.ElapsedMillis());
    return 0;
  }
  if (action == "load") {
    KnowledgeBase kb("kb", "");
    WallTimer timer;
    auto report = kb.LoadSnapshot(flags.at("kb"));
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 1;
    }
    const StoreStats stats = kb.store().GlobalStats();
    std::printf(
        "loaded %s: %zu triples, %zu terms, %zu shards, %.0f ms\n"
        "distinct: %llu subjects, %llu predicates, %llu objects\n",
        flags.at("kb").c_str(), report->triples, report->terms,
        report->shards, timer.ElapsedMillis(),
        static_cast<unsigned long long>(stats.distinct_subjects),
        static_cast<unsigned long long>(stats.distinct_predicates),
        static_cast<unsigned long long>(stats.distinct_objects));
    return 0;
  }
  std::fprintf(stderr, "unknown snapshot action '%s' (save|load)\n",
               action.c_str());
  return 2;
}

}  // namespace
}  // namespace sofya

int main(int argc, char** argv) {
  if (argc < 2) return sofya::Usage();
  const std::string command = argv[1];
  if (command == "manifest") {
    if (argc != 5 || std::string(argv[2]) != "diff") return sofya::Usage();
    return sofya::ManifestDiff(argv[3], argv[4]);
  }
  const sofya::FlagSpec known = sofya::KnownFlags(command);
  if (known.values.empty()) return sofya::Usage();
  const bool snapshot = command == "snapshot";
  if (snapshot && argc < 3) return sofya::Usage();
  std::map<std::string, std::string> flags;
  if (!sofya::ParseFlags(argc, argv, snapshot ? 3 : 2, known, &flags)) {
    return 2;
  }
  if (snapshot) return sofya::Snapshot(argv[2], flags);
  if (command == "generate") return sofya::Generate(flags);
  if (command == "align") return sofya::Align(flags);
  if (command == "record") {
    return sofya::RunAlignment(flags, sofya::RunMode::kRecord);
  }
  if (command == "replay") {
    return sofya::RunAlignment(flags, sofya::RunMode::kReplay);
  }
  if (command == "query") return sofya::Query(flags);
  if (command == "serve") return sofya::Serve(flags);
  if (command == "explain") return sofya::Explain(flags);
  return sofya::Usage();
}
