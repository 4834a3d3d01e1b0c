// SOFYA end-to-end benchmark over the scale-1.0 Table-1 world
// (YagoDbpediaSpec(seed, 1.0): 92 yago and 1,313 dbpd relations).
//
//   perfbench --workload <t1_onthefly|t1_http|t1_churn> --seed N
//             --seconds S --trace <0|1>
//
// Workloads (single-process closed loops, at most 2 alignment threads):
//
//   t1_onthefly  one Sofya::Align(r) per relation, sorted, both directions
//                (1,405 relations per pass), over in-process LocalEndpoints
//                with the sameAs candidate source: the paper's unit of work,
//                where client CPU, the client cache, the engine and the
//                store do everything and the network and write path nothing.
//   t1_http      the yago-head direction (92 relations) through
//                Sofya::AlignAll(rels, 2) with the phase schedule, against
//                both KBs served by SparqlServer behind HttpServer on
//                127.0.0.1 (2 workers each), clients HttpSparqlEndpoint with
//                max_connections = 2: the deployment the paper targets.
//   t1_churn     the yago-head direction aligned with Align and the `auto`
//                candidate source, with one write batch on each KB before
//                every Align (re-insert the 32 triples the previous batch
//                erased, erase 32 seeded-random existing ones): every write
//                bumps the epochs and invalidates the client cache, plan
//                cache, statistics memos and lexical index.
//
// Every pass uses a fresh client (the facade memoizes Align results) and is
// identical to every other: counts come only from per-relation
// AlignmentResult counters, which repeat exactly at any thread count, and
// the churn pass restores the stores it wrote. One untimed warm pass fills
// lazy sorts, memos and server plan caches before timing.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs half the time
// untraced and half through a hand-built copy of the facade's stack with
// benchmark-owned TimedEndpoints at the aligner -> endpoint and
// cache -> base boundaries, a timing HTTP handler around SparqlServer, and
// timed store writes; it prints the per-layer metrics and the tracing
// overhead. Either mode exits 1 when a correctness gate fails.
//
// stdout: an `identity {...}` line (counts + verdict fingerprint, which
// perfbench/run.py compares across runs of one seed) and, last, the result
// JSON. Progress goes to stderr.

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sofya.h"
#include "tracing.h"
#include "util/hash.h"

namespace sofya::perfbench {
namespace {

constexpr double kWorldScale = 1.0;
/// Set-ups per run, spread over the timed phase; setup_s is their minimum.
constexpr size_t kSetups = 5;
constexpr size_t kHttpThreads = 2;
constexpr size_t kHttpConnections = 2;
constexpr size_t kServerWorkers = 2;
constexpr size_t kChurnBatch = 32;

enum class Workload { kOnTheFly, kHttp, kChurn };

struct Args {
  Workload workload = Workload::kOnTheFly;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload_name = value;
      if (value == "t1_onthefly") {
        args->workload = Workload::kOnTheFly;
      } else if (value == "t1_http") {
        args->workload = Workload::kHttp;
      } else if (value == "t1_churn") {
        args->workload = Workload::kChurn;
      } else {
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && argc % 2 == 1;
}

// ------------------------------------------------------------ statistics

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Minimum(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

/// The percentile reported as align_ms_tail: the highest with about ten
/// calls beyond it, p99 of t1_onthefly's 1,405 calls and p90 of t1_churn's
/// 92 (t1_http makes one call per pass, so its tail is that call). On
/// t1_onthefly p90 falls where the cheap dbpd heads give way to the yago
/// heads and moved by 20% between seeds; p99 moved by 5%.
double TailQuantile(Workload workload) {
  return workload == Workload::kOnTheFly ? 0.99 : 0.90;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

uint64_t MixHash(uint64_t h, const std::string& s) {
  h ^= Fnv1a(s.data(), s.size());
  return SplitMix64(h).Next();
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL;
  return SplitMix64(h).Next();
}

/// Order-independent content checksum of a store (count + sum + xor of
/// per-triple hashes), so churn can prove it restored every triple.
struct StoreChecksum {
  uint64_t size = 0, sum = 0, xored = 0;
  bool operator==(const StoreChecksum&) const = default;
};

StoreChecksum ChecksumOf(const TripleStore& store) {
  StoreChecksum c;
  store.ForEachMatch(TriplePattern(), [&](const Triple& t) {
    const uint64_t h = MixHash(MixHash(MixHash(0, t.subject), t.predicate),
                               t.object);
    ++c.size;
    c.sum += h;
    c.xored ^= h;
    return true;
  });
  return c;
}

// ----------------------------------------------------------- trace state

/// Counters of one traced phase. Index 0 of the per-KB arrays is kb1
/// (yago), index 1 is kb2 (dbpd).
struct Trace {
  BoundaryCounters endpoint;  ///< Aligner -> outermost endpoint.
  BoundaryCounters base;      ///< Cache -> base endpoint.
  BoundaryCounters first_after_write;
  BoundaryCounters writes;  ///< One per write batch (both KBs).
  std::array<std::atomic<bool>, 2> after_write{};
  double worker_ms = 0.0;  ///< Aligner thread time (wall x threads).
  uint64_t cache_hits = 0, cache_misses = 0, epoch_invalidations = 0;
  uint64_t retries = 0, lexical_builds = 0, lexical_hits = 0;
  uint64_t subtasks = 0, triples_written = 0;
  EndpointStats local;  ///< The evaluating LocalEndpoints.
  EndpointStats http;   ///< The HttpSparqlEndpoints (requests, bytes).
};

/// The HTTP handler's view of tracing: off during untraced phases.
struct ServerTrace {
  std::atomic<bool> enabled{false};
  BoundaryCounters handle;
};

/// Both SparqlServers' counters, summed (zero without servers).
struct ServerTotals {
  EndpointStats local;
  uint64_t requests = 0;
  uint64_t shed = 0;

  ServerTotals Minus(const ServerTotals& before) const {
    ServerTotals d;
    d.local.rows_returned = local.rows_returned - before.local.rows_returned;
    d.local.triples_scanned =
        local.triples_scanned - before.local.triples_scanned;
    d.local.index_probes = local.index_probes - before.local.index_probes;
    d.local.replans = local.replans - before.local.replans;
    d.requests = requests - before.requests;
    d.shed = shed - before.shed;
    return d;
  }
};

// ------------------------------------------------------------ the world

/// One generated world, indexed, and for t1_http served over loopback.
struct Served {
  SynthWorld world;
  std::vector<std::string> relations[2];  ///< Sorted heads of kb1, kb2.
  std::string urls[2];
  ServerTrace server_trace;
  std::unique_ptr<SparqlServer> servers[2];
  std::unique_ptr<HttpServer> http[2];  ///< Declared last: stops first.

  KnowledgeBase* kb(int i) { return i == 0 ? world.kb1.get() : world.kb2.get(); }
};

ServerTotals ServerTotalsOf(const Served& s) {
  ServerTotals totals;
  for (const auto& server : s.servers) {
    if (server == nullptr) continue;
    totals.local.Merge(server->local().stats());
    totals.requests += server->requests_received();
    totals.shed += server->shed_concurrency() + server->shed_quota();
  }
  return totals;
}

StatusOr<std::unique_ptr<Served>> SetUp(Workload workload, uint64_t seed,
                                        double* generate_s, double* serve_s) {
  auto served = std::make_unique<Served>();
  WallTimer timer;
  SOFYA_ASSIGN_OR_RETURN(served->world,
                         GenerateWorld(YagoDbpediaSpec(seed, kWorldScale)));
  *generate_s = timer.ElapsedSeconds();
  timer.Restart();
  for (int i = 0; i < 2; ++i) {
    served->kb(i)->store().EnsureIndexed();
    served->relations[i] = served->world.truth.RelationsOf(served->kb(i)->name());
  }
  if (workload == Workload::kHttp) {
    for (int i = 0; i < 2; ++i) {
      served->servers[i] = std::make_unique<SparqlServer>(served->kb(i));
      HttpServerOptions options;
      options.worker_threads = kServerWorkers;
      SparqlServer* server = served->servers[i].get();
      ServerTrace* trace = &served->server_trace;
      served->http[i] = std::make_unique<HttpServer>(
          [server, trace](const HttpRequest& request,
                          const HttpServerClient& client) {
            if (!trace->enabled.load(std::memory_order_relaxed)) {
              return server->Handle(request, client);
            }
            const uint64_t start = NowNanos();
            HttpResponse response = server->Handle(request, client);
            trace->handle.Add(NowNanos() - start);
            return response;
          },
          options);
      SOFYA_RETURN_IF_ERROR(served->http[i]->Start());
      served->urls[i] = "http://127.0.0.1:" +
                        std::to_string(served->http[i]->port()) + "/sparql";
    }
  }
  *serve_s = timer.ElapsedSeconds();
  return served;
}

// --------------------------------------------------------------- clients

/// One alignment client over (candidate, reference). Untraced it is the
/// Sofya facade; traced it is the facade's stack built by hand —
/// base -> [retry] -> cache -> RelationAligner — with TimedEndpoints at the
/// cache -> base and aligner -> cache boundaries.
class Session {
 public:
  /// In-process bases (LocalEndpoint), as the facade's KB constructor.
  static std::unique_ptr<Session> Local(Served& s, int candidate,
                                        int reference,
                                        const AlignerOptions& options,
                                        Trace* trace) {
    auto session = std::unique_ptr<Session>(new Session(trace));
    KnowledgeBase* cand = s.kb(candidate);
    KnowledgeBase* ref = s.kb(reference);
    if (trace == nullptr) {
      SofyaOptions facade_options;
      facade_options.aligner = options;
      session->facade_ = std::make_unique<Sofya>(cand, ref, &s.world.links,
                                                 facade_options);
      return session;
    }
    session->local_[0] = std::make_unique<LocalEndpoint>(cand);
    session->local_[1] = std::make_unique<LocalEndpoint>(ref);
    session->Stack(s, {session->local_[0].get(), session->local_[1].get()},
                   {candidate, reference}, /*retry=*/false, options);
    return session;
  }

  /// Remote bases (HttpSparqlEndpoint), as the facade's remote constructor.
  static StatusOr<std::unique_ptr<Session>> Remote(
      Served& s, int candidate, int reference, const AlignerOptions& options,
      Trace* trace) {
    auto session = std::unique_ptr<Session>(new Session(trace));
    std::unique_ptr<HttpSparqlEndpoint> bases[2];
    const int kbs[2] = {candidate, reference};
    for (int i = 0; i < 2; ++i) {
      HttpSparqlEndpointOptions endpoint_options;
      endpoint_options.name = s.kb(kbs[i])->name();
      endpoint_options.base_iri = s.kb(kbs[i])->base_iri();
      endpoint_options.max_connections = kHttpConnections;
      SOFYA_ASSIGN_OR_RETURN(
          bases[i], HttpSparqlEndpoint::Create(s.urls[kbs[i]], endpoint_options));
    }
    if (trace == nullptr) {
      SofyaOptions facade_options;
      facade_options.aligner = options;
      session->facade_ = std::make_unique<Sofya>(
          std::move(bases[0]), std::move(bases[1]), &s.world.links,
          facade_options);
      return session;
    }
    session->remote_[0] = std::move(bases[0]);
    session->remote_[1] = std::move(bases[1]);
    session->Stack(s, {session->remote_[0].get(), session->remote_[1].get()},
                   {candidate, reference}, /*retry=*/true, options);
    return session;
  }

  /// Sequential alignment of one relation (Sofya::Align).
  StatusOr<const AlignmentResult*> Align(const std::string& iri) {
    if (facade_ != nullptr) return facade_->Align(iri);
    const uint64_t start = NowNanos();
    StatusOr<AlignmentResult> result = aligner_->Align(Term::Iri(iri));
    trace_->worker_ms += static_cast<double>(NowNanos() - start) / 1e6;
    if (!result.ok()) return result.status();
    results_.push_back(std::move(result).value());
    return &results_.back();
  }

  /// Whole-schema alignment on `threads` workers (Sofya::AlignAll, phase
  /// schedule).
  StatusOr<std::vector<const AlignmentResult*>> AlignAll(
      const std::vector<std::string>& iris, size_t threads) {
    if (facade_ != nullptr) return facade_->AlignAll(iris, threads);
    std::vector<Term> terms;
    for (const std::string& iri : iris) terms.push_back(Term::Iri(iri));
    AlignManyOptions many;
    many.num_threads = threads;
    many.schedule = AlignSchedule::kPhase;
    SOFYA_ASSIGN_OR_RETURN(AlignManyResult fleet,
                           aligner_->AlignMany(terms, many));
    trace_->worker_ms += fleet.wall_ms * static_cast<double>(threads);
    trace_->subtasks += fleet.subtasks_scheduled;
    std::vector<const AlignmentResult*> out;
    for (AlignmentResult& result : fleet.results) {
      results_.push_back(std::move(result));
      out.push_back(&results_.back());
    }
    return out;
  }

  /// Folds this session's stack counters into the trace (traced only).
  void Collect() {
    if (trace_ == nullptr) return;
    for (int i = 0; i < 2; ++i) {
      trace_->cache_hits += cache_[i]->hits();
      trace_->cache_misses += cache_[i]->misses();
      trace_->epoch_invalidations += cache_[i]->epoch_invalidations();
      if (retry_[i] != nullptr) trace_->retries += retry_[i]->retries_performed();
      if (local_[i] != nullptr) trace_->local.Merge(local_[i]->stats());
      if (remote_[i] != nullptr) trace_->http.Merge(remote_[i]->stats());
    }
    trace_->lexical_builds += lexical_->builds();
    trace_->lexical_hits += lexical_->hits();
  }

 private:
  explicit Session(Trace* trace) : trace_(trace) {}

  void Stack(Served& s, std::array<Endpoint*, 2> bases, std::array<int, 2> kbs,
             bool retry, AlignerOptions options) {
    Endpoint* top[2];
    for (int i = 0; i < 2; ++i) {
      base_timer_[i] = std::make_unique<TimedEndpoint>(
          bases[i], &trace_->base, &trace_->after_write[kbs[i]],
          &trace_->first_after_write);
      Endpoint* inner = base_timer_[i].get();
      if (retry) {
        retry_[i] = std::make_unique<RetryingEndpoint>(inner);
        inner = retry_[i].get();
      }
      cache_[i] = std::make_unique<CachingEndpoint>(inner);
      top_timer_[i] =
          std::make_unique<TimedEndpoint>(cache_[i].get(), &trace_->endpoint);
      top[i] = top_timer_[i].get();
    }
    lexical_ = std::make_shared<LexicalIndexCache>();
    options.finder.lexical_cache = lexical_;
    aligner_ = std::make_unique<RelationAligner>(top[0], top[1],
                                                 &s.world.links, options);
  }

  Trace* trace_;
  std::unique_ptr<Sofya> facade_;
  // Traced stack, innermost first (destroyed outermost first).
  std::unique_ptr<LocalEndpoint> local_[2];
  std::unique_ptr<HttpSparqlEndpoint> remote_[2];
  std::unique_ptr<TimedEndpoint> base_timer_[2];
  std::unique_ptr<RetryingEndpoint> retry_[2];
  std::unique_ptr<CachingEndpoint> cache_[2];
  std::unique_ptr<TimedEndpoint> top_timer_[2];
  std::shared_ptr<LexicalIndexCache> lexical_;
  std::unique_ptr<RelationAligner> aligner_;
  std::deque<AlignmentResult> results_;
};

// ---------------------------------------------------------------- passes

struct PassResult {
  size_t relations = 0;
  size_t failed = 0;
  double wall_s = 0.0;
  uint64_t queries = 0;
  uint64_t rows = 0;
  uint64_t fingerprint = 0;
  std::vector<double> align_ms;  ///< Per alignment call.

  /// The parts every pass must repeat exactly.
  bool SameIdentity(const PassResult& o) const {
    return relations == o.relations && failed == o.failed &&
           queries == o.queries && rows == o.rows &&
           fingerprint == o.fingerprint;
  }
};

/// Every pass makes the same calls in the same order, so call i's cost is
/// its minimum latency over the passes: the repetition least disturbed by
/// other work on a shared machine (perfbench/METRICS.md has the numbers).
std::vector<double> PerCallMinimum(const std::vector<PassResult>& passes) {
  std::vector<double> minimum = passes.front().align_ms;
  for (const PassResult& p : passes) {
    for (size_t i = 0; i < minimum.size() && i < p.align_ms.size(); ++i) {
      minimum[i] = std::min(minimum[i], p.align_ms[i]);
    }
  }
  return minimum;
}

/// Relations per second of the fastest whole pass (client set-up, every
/// alignment call and, on t1_churn, every write batch).
double RelationsPerSecond(const std::vector<PassResult>& passes) {
  double best = 0.0;
  for (const PassResult& p : passes) {
    best = std::max(best, static_cast<double>(p.relations) / p.wall_s);
  }
  return best;
}

/// Counts and verdict fingerprint (relation, candidate, accepted,
/// equivalence, support) of one aligned relation.
void Fold(const AlignmentResult& result, PassResult* pass) {
  pass->queries += result.total_queries();
  pass->rows += result.rows_shipped;
  uint64_t h = MixHash(pass->fingerprint, result.reference_relation.lexical());
  for (const CandidateVerdict& v : result.verdicts) {
    h = MixHash(h, v.relation.lexical());
    h = MixHash(h, (uint64_t{v.accepted} << 1) | uint64_t{v.equivalence});
    h = MixHash(h, v.rule.support);
  }
  pass->fingerprint = h;
}

double MillisSince(uint64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) / 1e6;
}

/// Sequential Align over `relations` in a fresh session.
void AlignSequential(Session& session, const std::vector<std::string>& relations,
                     const std::function<void()>& before_each,
                     PassResult* pass) {
  for (const std::string& iri : relations) {
    if (before_each) before_each();
    const uint64_t start = NowNanos();
    StatusOr<const AlignmentResult*> result = session.Align(iri);
    pass->align_ms.push_back(MillisSince(start));
    ++pass->relations;
    if (result.ok()) {
      Fold(**result, pass);
    } else {
      ++pass->failed;
    }
  }
  session.Collect();
}

AlignerOptions OnTheFlyOptions() { return AlignerOptions(); }

AlignerOptions ChurnOptions() {
  AlignerOptions options;
  options.finder.source = CandidateSourceKind::kAuto;
  return options;
}

PassResult OnTheFlyPass(Served& s, Trace* trace) {
  PassResult pass;
  const uint64_t start = NowNanos();
  // yago heads against dbpd candidates, then the reverse direction.
  for (const auto& [candidate, reference] : {std::pair{1, 0}, std::pair{0, 1}}) {
    auto session = Session::Local(s, candidate, reference, OnTheFlyOptions(),
                                  trace);
    AlignSequential(*session, s.relations[reference], nullptr, &pass);
  }
  pass.wall_s = MillisSince(start) / 1e3;
  return pass;
}

PassResult HttpPass(Served& s, Trace* trace) {
  PassResult pass;
  const uint64_t start = NowNanos();
  const std::vector<std::string>& relations = s.relations[0];
  pass.relations = relations.size();
  StatusOr<std::unique_ptr<Session>> session =
      Session::Remote(s, 1, 0, OnTheFlyOptions(), trace);
  const uint64_t align_start = NowNanos();
  StatusOr<std::vector<const AlignmentResult*>> results =
      session.ok() ? (*session)->AlignAll(relations, kHttpThreads)
                   : session.status();
  pass.align_ms.push_back(MillisSince(align_start));
  if (results.ok()) {
    for (const AlignmentResult* result : *results) Fold(*result, &pass);
    (*session)->Collect();
  } else {
    pass.failed = relations.size();
  }
  pass.wall_s = MillisSince(start) / 1e3;
  return pass;
}

/// The churn writer: one batch per Align, each re-inserting the previous
/// batch's erased triples and erasing kChurnBatch fresh ones per KB, from a
/// stream re-seeded every pass so every pass writes the same triples.
class Churner {
 public:
  Churner(Served& s, uint64_t seed) : served_(s), seed_(seed) {
    for (int i = 0; i < 2; ++i) {
      triples_[i] = s.kb(i)->store().Match(TriplePattern());
      start_[i] = ChecksumOf(s.kb(i)->store());
    }
  }

  void BeginPass() {
    rng_ = Rng(MixHash(seed_, 0xc4u));
    for (auto& erased : erased_) erased.clear();
  }

  /// One write batch on both KBs; false if the store disagreed.
  bool WriteBatch(Trace* trace) {
    bool ok = true;
    const uint64_t start = NowNanos();
    for (int i = 0; i < 2; ++i) {
      TripleStore& store = served_.kb(i)->store();
      for (const Triple& t : erased_[i]) ok &= store.Insert(t);
      const std::vector<size_t> picks =
          SampleWithoutReplacement(rng_, triples_[i].size(), kChurnBatch);
      erased_[i].clear();
      for (size_t k : picks) {
        erased_[i].push_back(triples_[i][k]);
        ok &= store.Erase(triples_[i][k]);
      }
    }
    if (trace != nullptr) {
      trace->writes.Add(NowNanos() - start);
      trace->triples_written += 4 * kChurnBatch;
      for (auto& flag : trace->after_write) flag.store(true);
    }
    return ok;
  }

  /// Re-inserts the last batch's erased triples; false if the store
  /// disagreed.
  bool EndPass() {
    bool ok = true;
    for (int i = 0; i < 2; ++i) {
      for (const Triple& t : erased_[i]) ok &= served_.kb(i)->store().Insert(t);
      erased_[i].clear();
    }
    return ok;
  }

  bool Restored() const {
    for (int i = 0; i < 2; ++i) {
      if (!(ChecksumOf(served_.kb(i)->store()) == start_[i])) return false;
    }
    return true;
  }

 private:
  Served& served_;
  uint64_t seed_;
  Rng rng_;
  std::vector<Triple> triples_[2];
  std::vector<Triple> erased_[2];
  StoreChecksum start_[2];
};

PassResult ChurnPass(Served& s, Churner& churner, Trace* trace) {
  PassResult pass;
  const uint64_t start = NowNanos();
  churner.BeginPass();
  bool writes_ok = true;
  auto session = Session::Local(s, 1, 0, ChurnOptions(), trace);
  AlignSequential(
      *session, s.relations[0],
      [&] { writes_ok &= churner.WriteBatch(trace); },
      &pass);
  writes_ok &= churner.EndPass();
  if (!writes_ok) ++pass.failed;
  pass.wall_s = MillisSince(start) / 1e3;
  return pass;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// ------------------------------------------------------------------ main

int Run(const Args& args) {
  // setup_s is the minimum of kSetups set-ups, as every time below is a
  // minimum over repetitions: the first builds the world the run uses, the
  // others are spread over the timed phase (between passes, untimed for
  // them), so one slow stretch of the machine cannot decide the figure.
  std::vector<double> setup_s, generate_s, serve_s;
  auto set_up = [&]() -> std::unique_ptr<Served> {
    double generate = 0.0, serve = 0.0;
    auto made = SetUp(args.workload, args.seed, &generate, &serve);
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      std::exit(1);
    }
    generate_s.push_back(generate);
    serve_s.push_back(serve);
    setup_s.push_back(generate + serve);
    return std::move(made).value();
  };
  const std::unique_ptr<Served> served = set_up();
  Served& s = *served;
  std::fprintf(stderr, "world: %zu + %zu facts, %zu + %zu relations\n",
               s.world.kb1->size(), s.world.kb2->size(), s.relations[0].size(),
               s.relations[1].size());

  std::unique_ptr<Churner> churner;
  if (args.workload == Workload::kChurn) {
    churner = std::make_unique<Churner>(s, args.seed);
  }
  auto pass = [&](Trace* trace) {
    switch (args.workload) {
      case Workload::kOnTheFly:
        return OnTheFlyPass(s, trace);
      case Workload::kHttp:
        return HttpPass(s, trace);
      case Workload::kChurn:
        return ChurnPass(s, *churner, trace);
    }
    return PassResult();
  };
  WallTimer run_timer;  // Restarted when timing starts.
  auto spread_set_ups = [&] {
    while (setup_s.size() < kSetups &&
           run_timer.ElapsedSeconds() >=
               args.seconds * static_cast<double>(setup_s.size()) / kSetups) {
      set_up();
    }
  };
  auto timed = [&](double seconds, Trace* trace) {
    std::vector<PassResult> passes;
    WallTimer timer;
    do {
      passes.push_back(pass(trace));
      std::fprintf(stderr, "%s pass: %.1f relations/s\n",
                   trace == nullptr ? "untraced" : "traced",
                   static_cast<double>(passes.back().relations) /
                       passes.back().wall_s);
      spread_set_ups();
    } while (timer.ElapsedSeconds() < seconds);
    return passes;
  };

  WallTimer warm_timer;
  const PassResult warm = pass(nullptr);
  const double warm_pass_s = warm_timer.ElapsedSeconds();

  bool correct = warm.failed == 0;
  auto check_identity = [&](const std::vector<PassResult>& passes,
                            const char* phase) {
    for (const PassResult& p : passes) {
      if (!p.SameIdentity(warm)) {
        std::fprintf(stderr,
                     "%s pass differs from the warm pass: queries %" PRIu64
                     " vs %" PRIu64 ", rows %" PRIu64 " vs %" PRIu64
                     ", fingerprint %016" PRIx64 " vs %016" PRIx64 "\n",
                     phase, p.queries, warm.queries, p.rows, warm.rows,
                     p.fingerprint, warm.fingerprint);
        correct = false;
      }
    }
  };

  run_timer.Restart();
  std::vector<PassResult> untraced =
      timed(args.trace ? args.seconds / 2 : args.seconds, nullptr);
  check_identity(untraced, "untraced");

  Trace trace;
  std::vector<PassResult> traced;
  ServerTotals server;  // Over the traced phase.
  if (args.trace) {
    const ServerTotals before = ServerTotalsOf(s);
    s.server_trace.enabled.store(true);
    traced = timed(args.seconds / 2, &trace);
    s.server_trace.enabled.store(false);
    check_identity(traced, "traced");
    server = ServerTotalsOf(s).Minus(before);
    if (args.workload == Workload::kHttp) trace.local = server.local;
  }
  while (setup_s.size() < kSetups) set_up();

  // Workload-specific correctness gates.
  if (args.workload == Workload::kHttp) {
    // The remote verdicts must equal an in-process AlignAll of the same
    // relations on the same world.
    Sofya local(s.world.kb2.get(), s.world.kb1.get(), &s.world.links);
    PassResult reference;
    auto results = local.AlignAll(s.relations[0], kHttpThreads);
    if (!results.ok()) {
      correct = false;
    } else {
      for (const AlignmentResult* result : *results) Fold(*result, &reference);
      if (reference.fingerprint != warm.fingerprint) {
        std::fprintf(stderr, "remote verdicts differ from local verdicts\n");
        correct = false;
      }
    }
  }
  if (churner != nullptr && !churner->Restored()) {
    std::fprintf(stderr, "churn did not restore the stores\n");
    correct = false;
  }

  uint64_t attempted = 0, failed = 0;
  for (const auto* phase : {&untraced, &traced}) {
    for (const PassResult& p : *phase) {
      attempted += p.relations;
      failed += p.failed;
    }
  }

  const double relations = static_cast<double>(warm.relations);
  std::printf(
      "identity {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"relations\": %zu, \"queries\": %" PRIu64 ", \"rows\": %" PRIu64
      ", \"fingerprint\": \"%016" PRIx64 "\"}\n",
      args.workload_name.c_str(), args.seed, warm.relations, warm.queries,
      warm.rows, warm.fingerprint);

  std::vector<Metric> metrics;
  if (!args.trace) {
    const std::vector<double> align_ms = PerCallMinimum(untraced);
    metrics = {
        {"setup_s", Minimum(setup_s), "s"},
        {"relations_per_s", RelationsPerSecond(untraced), "1/s"},
        {"align_ms_p50", Percentile(align_ms, 0.5), "ms"},
        {"align_ms_tail", Percentile(align_ms, TailQuantile(args.workload)),
         "ms"},
        {"queries_per_relation", static_cast<double>(warm.queries) / relations,
         "queries"},
        {"rows_per_relation", static_cast<double>(warm.rows) / relations,
         "rows"},
    };
    std::fprintf(stderr, "%zu timed passes, %zu alignment calls per pass\n",
                 untraced.size(), align_ms.size());
  } else {
    double traced_relations = 0.0, traced_wall_s = 0.0;
    for (const PassResult& p : traced) {
      traced_relations += p.relations;
      traced_wall_s += p.wall_s;
    }
    const double passes = static_cast<double>(traced.size());
    const double per_rel = 1.0 / traced_relations;
    const double endpoint_ms = trace.endpoint.ms();
    const double base_ms = trace.base.ms();
    const double untraced_rate = RelationsPerSecond(untraced);
    const double traced_rate = RelationsPerSecond(traced);
    metrics = {
        {"align.self_ms", (trace.worker_ms - endpoint_ms) * per_rel, "ms"},
        {"endpoint.calls", static_cast<double>(trace.endpoint.count()) * per_rel,
         "calls"},
        {"endpoint.ms", endpoint_ms * per_rel, "ms"},
        {"cache.self_ms", (endpoint_ms - base_ms) * per_rel, "ms"},
        {"cache.hits", static_cast<double>(trace.cache_hits) * per_rel,
         "count"},
        {"cache.misses", static_cast<double>(trace.cache_misses) * per_rel,
         "count"},
        {"cache.hit_ratio",
         Ratio(static_cast<double>(trace.cache_hits),
               static_cast<double>(trace.cache_hits + trace.cache_misses)),
         "ratio"},
        {"cache.epoch_invalidations",
         static_cast<double>(trace.epoch_invalidations) / passes, "count"},
        {"retry.retries", static_cast<double>(trace.retries) / passes, "count"},
        {"base.calls", static_cast<double>(trace.base.count()) * per_rel,
         "calls"},
        {"base.ms", base_ms * per_rel, "ms"},
        {"local.rows", static_cast<double>(trace.local.rows_returned) * per_rel,
         "rows"},
        {"local.triples_scanned",
         static_cast<double>(trace.local.triples_scanned) * per_rel, "count"},
        {"local.index_probes",
         static_cast<double>(trace.local.index_probes) * per_rel, "count"},
        {"local.rows_per_scanned",
         Ratio(static_cast<double>(trace.local.rows_returned),
               static_cast<double>(trace.local.triples_scanned)),
         "ratio"},
        {"local.replans", static_cast<double>(trace.local.replans) / passes,
         "count"},
        {"local.first_after_write_share",
         Ratio(trace.first_after_write.ms(), base_ms), "ratio"},
        {"store.write_share", Ratio(trace.writes.ms() / 1e3, traced_wall_s),
         "ratio"},
        {"store.triples_written",
         static_cast<double>(trace.triples_written) / passes, "count"},
        {"lexical.index_builds",
         static_cast<double>(trace.lexical_builds) / passes, "count"},
        {"lexical.index_hits", static_cast<double>(trace.lexical_hits) / passes,
         "count"},
        {"server.requests", static_cast<double>(server.requests) * per_rel,
         "count"},
        {"server.shed", static_cast<double>(server.shed) / passes, "count"},
        {"http.wire_share",
         args.workload == Workload::kHttp
             ? 1.0 - Ratio(s.server_trace.handle.ms(), base_ms)
             : 0.0,
         "ratio"},
        {"http.bytes_per_request",
         Ratio(static_cast<double>(trace.http.bytes_estimated),
               static_cast<double>(trace.http.queries)),
         "bytes"},
        {"schedule.subtasks", static_cast<double>(trace.subtasks) * per_rel,
         "count"},
        {"setup.generate_s", Minimum(generate_s), "s"},
        {"setup.server_start_s", Minimum(serve_s), "s"},
        {"setup.warm_pass_s", warm_pass_s, "s"},
        {"trace.relations_per_s", traced_rate, "1/s"},
        {"trace.overhead", untraced_rate / traced_rate - 1.0, "ratio"},
    };
  }
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sofya::perfbench

int main(int argc, char** argv) {
  sofya::perfbench::Args args;
  if (!sofya::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <t1_onthefly|t1_http|t1_churn> "
                 "--seed N --seconds S --trace <0|1>\n",
                 argv[0]);
    return 2;
  }
  return sofya::perfbench::Run(args);
}
