// wdr-bench: Q1–Q10 on three reasoning routes, a DRed write stream and a
// loopback server mix, each checked against the benchmark's own RDFS
// oracle (oracle.h). See README.md for the workloads and metrics.
//
//   wdr_bench --workload read|write --seed N --seconds S --trace 0|1
//
// Every run has three phases, and the workload decides their sizes and
// their shares of the measured seconds:
//   read   Q1–Q10 passes on a saturation, a reformulation and a backward
//          chaining ReasoningStore;
//   write  SPARQL UPDATE requests on a saturation store, one Q1–Q10 read
//          after each;
//   server a SnapshotStore behind a loopback Server, driven by closed-loop
//          Client connections.
// The timed path calls only ReasoningStore, SnapshotStore, Server and
// Client. The last line of standard output is the JSON result.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "io/ntriples.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "query/sparql_parser.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "server/client.h"
#include "server/server.h"
#include "server/snapshot_store.h"
#include "speed.h"
#include "store/reasoning_store.h"
#include "store/update_parser.h"
#include "trace.h"

namespace wdrbench {
namespace {

using Clock = std::chrono::steady_clock;
using wdr::store::ReasoningMode;
using wdr::store::ReasoningStore;

// Set during static initialization, before main: the cold set-up is
// timed from here.
const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / v.size());
}

double Counter(const std::string& name) {
  return static_cast<double>(
      wdr::obs::MetricsRegistry::Get().GetCounter(name).value());
}

// A line of /proc/self/status in MB: "VmRSS" (resident now) or "VmHWM"
// (the peak).
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::atof(line.c_str() + field.size() + 1) / 1024;
    }
  }
  return 0;
}

wdr::rdf::Term ToTerm(const std::string& nt) {
  const std::string inner = nt.substr(1, nt.size() - 2);
  return nt[0] == '<' ? wdr::rdf::Term::Iri(inner)
                      : wdr::rdf::Term::Literal(inner);
}

std::vector<Triple> Concat(const std::vector<Triple>& a,
                           const std::vector<Triple>& b) {
  std::vector<Triple> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// Applies inserts then deletes to a base triple set, as SPARQL UPDATE does
// for "INSERT DATA {..} ; DELETE DATA {..}".
class Replay {
 public:
  explicit Replay(const std::vector<Triple>& base) {
    for (const auto& t : base) set_.insert({t.s, t.p, t.o});
  }
  void Apply(const std::vector<Triple>& inserted,
             const std::vector<Triple>& deleted) {
    for (const auto& t : inserted) set_.insert({t.s, t.p, t.o});
    for (const auto& t : deleted) set_.erase({t.s, t.p, t.o});
  }
  std::vector<Triple> Triples() const {
    std::vector<Triple> out;
    for (const auto& [s, p, o] : set_) out.push_back({s, p, o});
    return out;
  }

 private:
  std::set<std::tuple<std::string, std::string, std::string>> set_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Bookkeeping shared by the phases: operations attempted and failed, and
// every correctness problem found.
struct Run {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  void Error(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// What each workload puts where. A run is whole cycles of: `loads` timed
// loads of the workload's main store, `read_rounds` read rounds,
// `write_rounds` write rounds and one server slice of `slice_requests`
// requests per client connection. Every cycle attempts the same
// operations, so `failed` is the same share of `attempted` in every run.
// Interleaving the phases spreads every metric's samples over the whole
// run, so a slow spell of the host weighs on all of them alike. The read and write
// graphs have `read_univ` and `write_univ` universities; the server graph
// always has 5 (about 9k triples), so every result fits the client's
// 1 MiB frame cap.
struct Plan {
  int read_univ, write_univ;
  int loads, read_rounds, write_rounds, slice_requests;
};

constexpr int kServerUniversities = 5;
constexpr int kClients = 4;

// Graphs of more than the server's 5 universities do not fit the CPU
// caches; their timings are scaled by the large-graph host reference.
bool LargerThanCaches(const Dataset& data) {
  return data.departments.size() > 4 * kServerUniversities;
}

const char* kRoute[3] = {"sat", "ref", "bwd"};
const ReasoningMode kRouteMode[3] = {ReasoningMode::kSaturation,
                                     ReasoningMode::kReformulation,
                                     ReasoningMode::kBackward};

std::vector<Row> DecodeAll(const ReasoningStore& store,
                           const wdr::query::ResultSet& rs) {
  std::vector<Row> rows;
  rows.reserve(rs.rows.size());
  for (const auto& r : rs.rows) rows.push_back(store.DecodeRow(r));
  return rows;
}

ReasoningStore MakeStore(ReasoningMode mode) {
  wdr::store::ReasoningStoreOptions options;
  options.mode = mode;
  return ReasoningStore(options);
}

// Text to a queryable saturation store, closure included, in a store that
// is dropped afterwards.
double SaturationLoad(const std::string& text, Run& run) {
  ReasoningStore store = MakeStore(ReasoningMode::kSaturation);
  const auto t = Clock::now();
  auto loaded = store.LoadNTriples(text);
  const double seconds = Since(t);
  if (!loaded.ok()) run.Error("load: " + loaded.status().ToString());
  return seconds;
}

// ---------------------------------------------------------------- read --

class ReadPhase {
 public:
  ReadPhase(const Dataset& data, const std::string& text, HostSpeed& speed,
            Run& run, Tracer& tracer)
      : data_(data),
        text_(text),
        speed_(speed),
        run_(run),
        tracer_(tracer) {}

  // Set-up: the three stores, loaded from text.
  void Load() {
    for (int r = 0; r < 3; ++r) {
      stores_.push_back(MakeStore(kRouteMode[r]));
      auto loaded = stores_[r].LoadNTriples(text_);
      if (!loaded.ok()) run_.Error("read load: " + loaded.status().ToString());
    }
  }

  // One untimed pass per route keeps the answers for the oracle check and
  // warms every cache.
  void Warm() {
    for (int r = 0; r < 3; ++r) Pass(r, &first_);
  }

  // One round: a Q1–Q10 pass on each route, each pass between two runs
  // of the host-speed kernel. The kernels evict part of the store from
  // the caches, so an untimed Q1 on the route comes between them and the
  // pass. In a traced run, rounds alternate untraced and traced, so the
  // run also measures its own tracing overhead.
  void Round(bool traced) {
    tracer_.set_on(traced && rounds_++ % 2 == 1);
    double seconds = 0;
    for (int r = 0; r < 3; ++r) {
      speed_.Calibrate();
      if (!stores_[r].Query(StandardQueries()[0].sparql).ok()) {
        run_.Error(std::string("read ") + kRoute[r] + " warm-up query");
      }
      const double pass = Pass(r, nullptr);
      sweeps_[r].push_back(speed_.Stamp(pass, LargerThanCaches(data_)));
      seconds += pass;
    }
    (tracer_.on() ? traced_rounds_ : untraced_rounds_).push_back(seconds);
    tracer_.set_on(traced);
  }

  void Check() {
    const Oracle oracle(Concat(data_.ontology, data_.instances));
    const auto& qs = StandardQueries();
    for (int r = 0; r < 3; ++r) {
      for (size_t q = 0; q < qs.size(); ++q) {
        const std::string diff = Diff(first_[r * qs.size() + q],
                                      oracle.Answer(qs[q]));
        if (!diff.empty()) {
          run_.Error(std::string("read ") + kRoute[r] + " " + qs[q].name +
                     ": " + diff);
        }
      }
    }
  }

  void Report() {
    const auto& qs = StandardQueries();
    for (int r = 0; r < 3; ++r) {
      std::vector<double> per_query;
      for (size_t q = 0; q < qs.size(); ++q) {
        per_query.push_back(Median(speed_.Ref(latency_[r][q])) * 1e6);
      }
      run_.Add(std::string(kRoute[r]) + "_query_geomean_us",
               Geomean(per_query), "us");
    }
    for (int r = 0; r < 3; ++r) {
      run_.Add(std::string(kRoute[r]) + "_sweep_ms",
               Median(speed_.Ref(sweeps_[r])) * 1e3, "ms");
    }
  }

  void ReportLayers() {
    const auto& qs = StandardQueries();
    // Probes of single layers, outside the store: parse the text, build a
    // closure over the parsed graph, parse and rewrite each query.
    {
      wdr::rdf::Graph graph;
      auto t = Clock::now();
      auto parsed = wdr::io::ParseNTriples(text_, graph);
      run_.Add("io.parse_s", Since(t), "s");
      if (!parsed.ok()) run_.Error("io parse: " + parsed.status().ToString());
      const auto vocab = wdr::schema::Vocabulary::Intern(graph.dict());
      t = Clock::now();
      wdr::reasoning::SaturatedGraph closure(graph, vocab);
      run_.Add("reasoning.closure_build_s", Since(t), "s");
      run_.Add("reasoning.closure_triples",
               closure.initial_saturation().closure_triples, "count");
      run_.Add("reasoning.rounds", closure.initial_saturation().rounds,
               "count");
    }
    std::vector<double> parse_us, rewrite_us;
    ReasoningStore& ref = stores_[1];
    const auto schema =
        wdr::schema::Schema::FromGraph(ref.graph(), ref.vocab());
    for (const auto& q : qs) {
      std::vector<double> parse, rewrite;
      for (int rep = 0; rep < 7; ++rep) {
        wdr::rdf::Dictionary dict;
        auto t = Clock::now();
        auto parsed = wdr::query::ParseSparql(q.sparql, dict);
        parse.push_back(Since(t) * 1e6);
        auto in_store = wdr::query::ParseSparql(q.sparql, ref.graph().dict());
        if (!parsed.ok() || !in_store.ok()) {
          run_.Error("query parse " + q.name);
          return;
        }
        const wdr::reformulation::Reformulator fresh(schema, ref.vocab());
        t = Clock::now();
        auto ucq = fresh.Reformulate(in_store.value());
        rewrite.push_back(Since(t) * 1e6);
        if (!ucq.ok()) run_.Error("rewrite " + q.name);
      }
      parse_us.push_back(Median(parse));
      rewrite_us.push_back(Median(rewrite));
    }
    run_.Add("query.parse_us", Geomean(parse_us), "us");
    run_.Add("reformulation.rewrite_us", Geomean(rewrite_us), "us");
    run_.Add("reformulation.ucq_branches",
             Median(tracer_.counts("reformulation.ucq_branches")), "count");

    // Self times of the store's layers in the traced rounds, summed per
    // pass (a pass span precedes its children in the span list).
    const auto self = tracer_.SelfSeconds();
    const auto& spans = tracer_.spans();
    std::vector<std::vector<double>> prepare(3 * qs.size());
    std::vector<double> execute[3], decode, layer_rounds;
    std::vector<double> pass_execute(spans.size()), pass_decode(spans.size()),
        pass_layers(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      const int parent = spans[i].parent;
      const int route = spans[i].attr / 100, q = spans[i].attr % 100;
      if (name == "store.prepare") {
        prepare[route * qs.size() + q].push_back(self[i] * 1e6);
      } else if (name == "store.execute") {
        pass_execute[parent] += self[i] * 1e6;
      } else if (name == "store.decode") {
        pass_decode[parent] += self[i] * 1e6;
      } else {
        continue;
      }
      pass_layers[parent] += self[i];
    }
    double round_layers = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (std::string(spans[i].name) != "read.pass") continue;
      const int r = spans[i].attr;
      execute[r].push_back(pass_execute[i]);
      if (r == 0) decode.push_back(pass_decode[i]);
      round_layers += pass_layers[i];
      if (r == 2) {
        layer_rounds.push_back(round_layers);
        round_layers = 0;
      }
    }
    for (int r = 0; r < 3; ++r) {
      std::vector<double> per_query;
      for (size_t q = 0; q < qs.size(); ++q) {
        per_query.push_back(Median(prepare[r * qs.size() + q]));
      }
      run_.Add(std::string("store.prepare_us.") + kRoute[r],
               Geomean(per_query), "us");
    }
    for (int r = 0; r < 3; ++r) {
      run_.Add(std::string("store.execute_us.") + kRoute[r],
               Median(execute[r]), "us");
    }
    run_.Add("store.decode_us", Median(decode), "us");
    // The backward route does not count wdr.query.rows, so its rows are
    // left out.
    for (int r = 0; r < 3; ++r) {
      if (r != 2) {
        run_.Add(
            std::string("query.rows.") + kRoute[r],
            Median(tracer_.counts(std::string("query.rows.") + kRoute[r])),
            "count");
      }
      run_.Add(std::string("rdf.scans.") + kRoute[r],
               Median(tracer_.counts(std::string("rdf.scans.") + kRoute[r])),
               "count");
    }
    run_.Add("backward.goal_expansions",
             Median(tracer_.counts("backward.goal_expansions")), "count");
    run_.Add("backward.index_probes",
             Median(tracer_.counts("backward.index_probes")), "count");
    // Tracing overhead, and how much of the untraced round the layers'
    // traced self times leave unexplained.
    const double untraced = Median(untraced_rounds_);
    run_.Add("trace.overhead_pct",
             100 * (Median(traced_rounds_) - untraced) / untraced, "%");
    run_.Add("trace.residual_pct",
             100 * (untraced - Median(layer_rounds)) / untraced, "%");
  }

  const std::string& text() const { return text_; }

 private:
  // One Q1–Q10 pass on route `r`; returns its seconds. Each query is
  // Prepare + Execute + DecodeRow of every row. The untimed pass that
  // keeps its rows is not counted in `attempted`.
  double Pass(int r, std::vector<std::vector<Row>>* keep) {
    ReasoningStore& store = stores_[r];
    const auto& qs = StandardQueries();
    const double rows0 = Counter("wdr.query.rows");
    const double scans0 = Counter("wdr.store.ordered.scans");
    const double goals0 = Counter("wdr.backward.goal_expansions");
    const double probes0 = Counter("wdr.backward.index_probes");
    double branches = 0;
    Tracer::Scope pass(tracer_, "read.pass", r);
    const auto start = Clock::now();
    for (size_t q = 0; q < qs.size(); ++q) {
      const int attr = r * 100 + static_cast<int>(q);
      const auto t = Clock::now();
      const bool counted = keep == nullptr;
      run_.attempted += counted;
      std::vector<Row> rows;
      {
        std::optional<wdr::Result<wdr::store::PreparedQuery>> prepared;
        {
          Tracer::Scope span(tracer_, "store.prepare", attr);
          prepared.emplace(store.Prepare(qs[q].sparql));
        }
        if (!prepared->ok()) {
          if (keep != nullptr) keep->emplace_back();
          run_.failed += counted;
          run_.Error(qs[q].name + " prepare: " +
                     prepared->status().ToString());
          continue;
        }
        branches += prepared->value().union_size;
        std::optional<wdr::Result<wdr::query::ResultSet>> result;
        {
          Tracer::Scope span(tracer_, "store.execute", attr);
          result.emplace(store.Execute(prepared->value()));
        }
        if (!result->ok()) {
          if (keep != nullptr) keep->emplace_back();
          run_.failed += counted;
          run_.Error(qs[q].name + " execute: " + result->status().ToString());
          continue;
        }
        Tracer::Scope span(tracer_, "store.decode", attr);
        rows = DecodeAll(store, result->value());
      }
      latency_[r][q].push_back(
          speed_.Stamp(Since(t), LargerThanCaches(data_)));
      if (keep != nullptr) {
        keep->push_back(std::move(rows));
      } else if (rows.size() != first_[r * qs.size() + q].size()) {
        run_.Error(std::string("read ") + kRoute[r] + " " + qs[q].name +
                   ": row count changed between passes");
      }
    }
    const double seconds = Since(start);
    if (keep != nullptr) {
      for (auto& per_query : latency_[r]) per_query.clear();
      return seconds;
    }
    tracer_.Count(std::string("query.rows.") + kRoute[r],
                  Counter("wdr.query.rows") - rows0);
    tracer_.Count(std::string("rdf.scans.") + kRoute[r],
                  Counter("wdr.store.ordered.scans") - scans0);
    if (r == 1) tracer_.Count("reformulation.ucq_branches", branches);
    if (r == 2) {
      tracer_.Count("backward.goal_expansions",
                    Counter("wdr.backward.goal_expansions") - goals0);
      tracer_.Count("backward.index_probes",
                    Counter("wdr.backward.index_probes") - probes0);
    }
    return seconds;
  }

  const Dataset& data_;
  const std::string& text_;
  HostSpeed& speed_;
  Run& run_;
  Tracer& tracer_;
  std::vector<ReasoningStore> stores_;
  std::vector<std::vector<Row>> first_;  // route-major, then query
  std::vector<Timed> latency_[3][10];
  std::vector<Timed> sweeps_[3];
  std::vector<double> traced_rounds_, untraced_rounds_;
  int rounds_ = 0;
};

// --------------------------------------------------------------- write --

// The schema delete that the write stream's rotation leaves out: an edge
// that the load-time closure extends transitively. Deleting
// AssistantProfessor ⊑ Professor must also retract AssistantProfessor ⊑
// Faculty, Employee and Person and the types they entail, but a
// saturation store keeps them (FOUND: in CHANGES.md). So this operation
// fails every time until the store is fixed. It runs on a fixed graph of
// its own (the ontology and one assistant professor, the same for every
// seed), in a fresh store each time, and checks the closure size and the
// professor's types against the oracle.
class SchemaEraseProbe {
 public:
  explicit SchemaEraseProbe(const std::vector<Triple>& ontology)
      : edge_{Ub("AssistantProfessor"), kSubClassOf, Ub("Professor")},
        member_(Data("probeProfessor")) {
    std::vector<Triple> base = ontology;
    base.push_back({member_, kType, Ub("AssistantProfessor")});
    text_ = ToNTriples(base);
    request_ = UpdateText({}, {edge_});
    Replay replay(base);
    replay.Apply({}, {edge_});
    const Oracle oracle(replay.Triples());
    want_size_ = oracle.closure_size();
    want_types_ = oracle.Answer(TypesOf(member_));
  }

  // Empty when the store agrees with the oracle, else what differs.
  std::string Attempt() const {
    ReasoningStore store = MakeStore(ReasoningMode::kSaturation);
    auto loaded = store.LoadNTriples(text_);
    if (!loaded.ok()) return "load: " + loaded.status().ToString();
    auto info = store.Update(request_);
    if (!info.ok()) return "update: " + info.status().ToString();
    auto types = store.Query(TypesOf(member_).sparql);
    if (!types.ok()) return "query: " + types.status().ToString();
    std::string diff = Diff(DecodeAll(store, types.value()), want_types_);
    if (store.effective_size() != want_size_) {
      diff = "closure size " + std::to_string(store.effective_size()) +
             ", oracle " + std::to_string(want_size_) + "; types " + diff;
    }
    return diff;
  }

 private:
  const Triple edge_;
  const std::string member_;
  std::string text_, request_;
  size_t want_size_ = 0;
  std::vector<Row> want_types_;
};

class WritePhase {
 public:
  WritePhase(const Dataset& data, const std::string& text, uint64_t seed,
             const HostSpeed& speed, Run& run, Tracer& tracer)
      : data_(data),
        text_(text),
        probe_(data.ontology),
        stream_(data, seed ^ 0x5bd1e995ULL, "w"),
        store_(MakeStore(ReasoningMode::kSaturation)),
        speed_(speed),
        run_(run),
        tracer_(tracer) {}

  void Load() {
    auto loaded = store_.LoadNTriples(text_);
    if (!loaded.ok()) run_.Error("write load: " + loaded.status().ToString());
  }

  const std::string& text() const { return text_; }

  // One round: ten requests (eight instance, two schema), each followed
  // by one of Q1–Q10, then one untimed run of the schema-erase probe.
  void Round() {
    const auto& qs = StandardQueries();
    const auto start = Clock::now();
    for (size_t i = 0; i < qs.size(); ++i) {
      UpdateRequest req = stream_.Next(i % 5 == 4);
      Apply(req);
      ++ops_;
      const auto t = Clock::now();
      ++run_.attempted;
      {
        Tracer::Scope span(tracer_, "store.read_after_write", 0);
        auto result = store_.Query(qs[i].sparql);
        if (result.ok()) {
          DecodeAll(store_, result.value());
        } else {
          ++run_.failed;
          run_.Error("read after write: " + result.status().ToString());
        }
      }
      read_after_write_.push_back(Since(t));
      ++ops_;
      applied_.push_back(std::move(req));
    }
    rounds_s_.push_back(speed_.Stamp(Since(start), LargerThanCaches(data_)));
    ++run_.attempted;
    const std::string diff = probe_.Attempt();
    if (!diff.empty()) {
      ++run_.failed;
      if (probe_diff_.empty()) probe_diff_ = diff;
    }
  }

  // The probe's first failure, for standard error.
  const std::string& probe_diff() const { return probe_diff_; }

  // The final closure and answers must equal the oracle's over the base
  // graph replayed from the applied requests: incremental maintenance
  // against a from-scratch fixpoint.
  void Check() {
    Replay replay(Concat(data_.ontology, data_.instances));
    for (const auto& req : applied_) replay.Apply(req.inserted, req.deleted);
    const Oracle oracle(replay.Triples());
    if (store_.effective_size() != oracle.closure_size()) {
      run_.Error("write closure size " +
                 std::to_string(store_.effective_size()) + ", oracle " +
                 std::to_string(oracle.closure_size()));
    }
    for (const auto& q : StandardQueries()) {
      auto result = store_.Query(q.sparql);
      if (!result.ok()) {
        run_.Error("write final " + q.name + ": " +
                   result.status().ToString());
        continue;
      }
      const std::string diff =
          Diff(DecodeAll(store_, result.value()), oracle.Answer(q));
      if (!diff.empty()) run_.Error("write final " + q.name + ": " + diff);
    }
  }

  void Report() {
    run_.Add("instance_update_p50_us",
             Median(speed_.Ref(update_s_[0])) * 1e6, "us");
    // Schema requests of one place in the rotation are alike; requests
    // of different places are not. So: the geometric mean over the places
    // of each place's median.
    std::vector<double> per_kind;
    for (size_t k = 1; k < update_s_.size(); ++k) {
      if (!update_s_[k].empty()) {
        per_kind.push_back(Median(speed_.Ref(update_s_[k])) * 1e6);
      }
    }
    run_.Add("schema_update_p50_us", Geomean(per_kind), "us");
    double elapsed = 0;
    for (double s : speed_.Ref(rounds_s_)) elapsed += s;
    run_.Add("write_ops_per_s", ops_ / elapsed, "ops/s");
  }

  void ReportLayers() {
    const auto self = tracer_.SelfSeconds();
    const auto& spans = tracer_.spans();
    std::vector<double> parse, maintain[2];
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string name = spans[i].name;
      if (name == "store.update_parse") parse.push_back(self[i] * 1e6);
      if (name == "reasoning.maintain") {
        maintain[spans[i].attr].push_back(self[i] * 1e6);
      }
    }
    run_.Add("store.update_parse_us", Median(parse), "us");
    run_.Add("reasoning.maintain_us.instance", Median(maintain[0]), "us");
    run_.Add("reasoning.maintain_us.schema", Median(maintain[1]), "us");
    const double deleted = std::max(1.0, deleted_triples_);
    run_.Add("reasoning.overdeleted_per_delete", overdeleted_ / deleted,
             "count");
    run_.Add("reasoning.rederived_per_delete", rederived_ / deleted, "count");
    run_.Add("reasoning.closure_delta_per_update",
             closure_delta_ / std::max<size_t>(1, applied_.size()), "count");
    run_.Add("store.read_after_write_us", Median(read_after_write_) * 1e6,
             "us");
  }

 private:
  // Untraced: one ReasoningStore::Update of the request text. Traced: the
  // update parser alone, then Insert/Erase of the same triples, so parse
  // and maintenance are timed apart.
  void Apply(const UpdateRequest& req) {
    // Update kind 0 is an instance request; 1.. are the places of the
    // schema rotation.
    const size_t kind =
        req.schema ? 1 + schema_requests_++ % stream_.schema_period() : 0;
    if (update_s_.size() <= kind) update_s_.resize(kind + 1);
    ++run_.attempted;
    const auto t = Clock::now();
    if (!tracer_.on()) {
      auto info = store_.Update(req.sparql);
      update_s_[kind].push_back(
          speed_.Stamp(Since(t), LargerThanCaches(data_)));
      if (!info.ok()) {
        ++run_.failed;
        run_.Error("update: " + info.status().ToString());
      } else if (info.value().inserted != req.inserted.size() ||
                 info.value().deleted != req.deleted.size()) {
        run_.Error("update applied " + std::to_string(info.value().inserted) +
                   "+/" + std::to_string(info.value().deleted) + "-");
      }
      return;
    }
    {
      Tracer::Scope span(tracer_, "store.update_parse", req.schema);
      auto ops = wdr::store::ParseSparqlUpdate(req.sparql,
                                               store_.graph().dict());
      if (!ops.ok()) {
        ++run_.failed;
        run_.Error("update parse: " + ops.status().ToString());
        return;
      }
    }
    const double over0 = Counter("wdr.maintenance.overdeleted");
    const double re0 = Counter("wdr.maintenance.rederived");
    Tracer::Scope span(tracer_, "reasoning.maintain", req.schema);
    auto& g = store_.graph();
    for (const auto& x : req.inserted) {
      closure_delta_ += store_.Insert(g.Encode(ToTerm(x.s), ToTerm(x.p),
                                               ToTerm(x.o)))
                            .closure_delta;
    }
    for (const auto& x : req.deleted) {
      closure_delta_ += store_.Erase(g.Encode(ToTerm(x.s), ToTerm(x.p),
                                              ToTerm(x.o)))
                            .closure_delta;
    }
    overdeleted_ += Counter("wdr.maintenance.overdeleted") - over0;
    rederived_ += Counter("wdr.maintenance.rederived") - re0;
    deleted_triples_ += req.deleted.size();
  }

  const Dataset& data_;
  const std::string& text_;
  const SchemaEraseProbe probe_;
  std::string probe_diff_;
  UpdateStream stream_;
  ReasoningStore store_;
  const HostSpeed& speed_;
  Run& run_;
  Tracer& tracer_;
  std::vector<UpdateRequest> applied_;
  std::vector<std::vector<Timed>> update_s_;  // by update kind
  std::vector<Timed> rounds_s_;
  std::vector<double> read_after_write_;
  size_t schema_requests_ = 0;
  uint64_t ops_ = 0;
  double closure_delta_ = 0, overdeleted_ = 0, rederived_ = 0,
         deleted_triples_ = 0;
};

// -------------------------------------------------------------- server --

// The subjects a client inserts: a graduate student in a department with
// an advisor. Its entailed types come from the oracle.
std::vector<Triple> OwnSubject(const std::string& s, const Dataset& data,
                               Rng& rng) {
  return {{s, kType, Ub("GraduateStudent")},
          {s, Ub("memberOf"),
           data.departments[rng.Below(data.departments.size())]},
          {s, Ub("advisor"),
           data.professors[rng.Below(data.professors.size())]}};
}

// One closed-loop connection: about 90% selective reads that need
// entailment (the types of one person, the members of one department, or
// the types of this client's newest subject) and about 10% updates that
// insert a subject of this client's and delete its oldest one.
struct ClientLoop {
  int id = 0;
  wdr::server::Client client;
  Rng rng{0};
  const Dataset* data = nullptr;
  const std::vector<std::string>* own_types = nullptr;
  std::deque<std::vector<Triple>> live;  // this client's subjects
  uint64_t next_subject = 0, ops = 0, acked = 0, failed = 0;
  std::vector<double> query_s, update_s;
  std::vector<std::string> errors;

  void Loop(int requests) {
    for (int i = 0; i < requests; ++i) Step();
  }

  void Step() {
    ++ops;
    if (rng.Percent(10)) {
      std::vector<Triple> added = OwnSubject(
          Data("c" + std::to_string(id) + "s" + std::to_string(next_subject++)),
          *data, rng);
      std::vector<Triple> removed;
      if (live.size() >= 3) removed = live.front();
      const auto t = Clock::now();
      auto r = client.Update(UpdateText(added, removed));
      update_s.push_back(Since(t));
      if (!r.ok() || !r.value().ok) {
        ++failed;
        Note("update: " + (r.ok() ? r.value().head : r.status().ToString()));
        return;
      }
      ++acked;
      live.push_back(std::move(added));
      if (!removed.empty()) live.pop_front();
      return;
    }
    const size_t pick = rng.Below(10);
    const bool own = pick >= 7 && !live.empty();
    const BenchQuery q =
        own ? TypesOf(live.back()[0].s)
        : pick < 4 || pick >= 7
            ? TypesOf(data->people[rng.Below(data->people.size())])
            : MembersOf(data->departments[rng.Below(data->departments.size())]);
    const auto t = Clock::now();
    auto r = client.Query(q.sparql);
    query_s.push_back(Since(t));
    if (!r.ok() || !r.value().ok) {
      ++failed;
      Note("query: " + (r.ok() ? r.value().head : r.status().ToString()));
      return;
    }
    if (own) {
      // Read-your-writes: the newest acknowledged subject shows with all
      // of its entailed types.
      std::vector<std::string> got;
      std::istringstream body(r.value().body);
      std::string line;
      std::getline(body, line);  // the variable header
      while (std::getline(body, line)) got.push_back(line);
      std::sort(got.begin(), got.end());
      if (got != *own_types) Note("own subject types differ");
    }
  }

  void Note(const std::string& what) {
    if (errors.size() < 5) errors.push_back(what);
  }
};

class ServerPhase {
 public:
  ServerPhase(const Dataset& data, const std::string& text, uint64_t seed,
              Run& run, Tracer& tracer)
      : data_(data),
        text_(text),
        seed_(seed),
        run_(run),
        tracer_(tracer),
        server_(snapshot_) {
    // The entailed types of a client's subject, for the read-your-writes
    // check.
    Rng rng(0);
    const auto sample = OwnSubject(Data("sample"), data_, rng);
    for (const auto& row :
         Oracle(Concat(data_.ontology, sample)).Answer(TypesOf(Data("sample")))) {
      own_types_.push_back(row[0]);
    }
    std::sort(own_types_.begin(), own_types_.end());
  }

  ~ServerPhase() { server_.Stop(); }

  void Load() {
    auto loaded = snapshot_.LoadTurtle(text_);
    if (!loaded.ok()) run_.Error("server load: " + loaded.status().ToString());
    const auto started = server_.Start();
    if (!started.ok()) run_.Error("server start: " + started.ToString());
    const int clients = std::min<int>(
        kClients, std::max(1u, std::thread::hardware_concurrency()));
    clients_.resize(clients);
    for (int c = 0; c < clients; ++c) {
      ClientLoop& loop = clients_[c];
      loop.id = c;
      loop.rng = Rng(seed_ * 1000003 + c);
      loop.data = &data_;
      loop.own_types = &own_types_;
      const auto connected = loop.client.Connect(server_.port());
      if (!connected.ok()) run_.Error("connect: " + connected.ToString());
    }
  }

  // One slice: every connection runs `requests` requests of its closed
  // loop, on a thread of its own; the slice ends when the last reply is
  // in.
  void Slice(int requests) {
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (auto& loop : clients_) {
      threads.emplace_back([&loop, requests] { loop.Loop(requests); });
    }
    for (auto& t : threads) t.join();
    elapsed_ += Since(start);
  }

  // Ends the sessions and collects the clients' counts and latencies.
  void Finish() {
    for (auto& loop : clients_) {
      loop.client.Close();
      run_.attempted += loop.ops;
      run_.failed += loop.failed;
      acked_ += loop.acked;
      ops_ += loop.ops;
      query_s_.insert(query_s_.end(), loop.query_s.begin(), loop.query_s.end());
      update_s_.insert(update_s_.end(), loop.update_s.begin(),
                       loop.update_s.end());
      for (const auto& e : loop.errors) {
        run_.Error("client " + std::to_string(loop.id) + " " + e);
      }
    }
  }

  // In-process probes of the layers under the transport (traced run
  // only): SnapshotStore::Query with a plan cache and the clients' kind of
  // text, then SnapshotStore::Update of subjects of its own. Like the
  // other layer probes, they are not counted in `attempted`.
  void MeasureInProcess() {
    wdr::server::SnapshotStore::PlanCache cache;
    Rng rng(seed_ * 1000003 + 999);
    std::vector<double> query_s, update_s;
    for (int i = 0; i < 400; ++i) {
      const BenchQuery q =
          rng.Below(10) < 5
              ? TypesOf(data_.people[rng.Below(data_.people.size())])
              : MembersOf(
                    data_.departments[rng.Below(data_.departments.size())]);
      Tracer::Scope span(tracer_, "server.snapshot_query", 0);
      const auto t = Clock::now();
      auto r = snapshot_.Query(q.sparql, {}, &cache);
      query_s.push_back(Since(t));
      if (!r.ok()) {
        run_.Error("snapshot query: " + r.status().ToString());
      }
    }
    const double batches0 = Counter("wdr.server.store.catchup_batches");
    for (int i = 0; i < 20; ++i) {
      auto added =
          OwnSubject(Data("inproc" + std::to_string(i)), data_, rng);
      Tracer::Scope span(tracer_, "server.snapshot_update", 0);
      const auto t = Clock::now();
      auto r = snapshot_.Update(UpdateText(added, {}));
      update_s.push_back(Since(t));
      if (!r.ok()) {
        run_.Error("snapshot update: " + r.status().ToString());
        continue;
      }
      ++inprocess_updates_;
      inprocess_.insert(inprocess_.end(), added.begin(), added.end());
    }
    const double snapshot_query_us = Median(query_s) * 1e6;
    run_.Add("server.snapshot_query_us", snapshot_query_us, "us");
    run_.Add("server.plan_cache_hit_ratio",
             static_cast<double>(cache.hits()) /
                 std::max<uint64_t>(1, cache.hits() + cache.misses()),
             "ratio");
    run_.Add("server.snapshot_update_us", Median(update_s) * 1e6, "us");
    run_.Add("server.catchup_batches",
             (Counter("wdr.server.store.catchup_batches") - batches0) / 20,
             "count");
    run_.Add("server.transport_us",
             Median(query_s_) * 1e6 - snapshot_query_us, "us");
  }

  // The final epoch counts the load plus every acknowledged update, and
  // the final answers equal the oracle's over the base graph with every
  // client's live subjects.
  void Check() {
    if (snapshot_.epoch() != 1 + acked_ + inprocess_updates_) {
      run_.Error("server epoch " + std::to_string(snapshot_.epoch()) +
                 ", acknowledged updates " +
                 std::to_string(acked_ + inprocess_updates_));
    }
    std::vector<Triple> base = Concat(data_.ontology, data_.instances);
    base.insert(base.end(), inprocess_.begin(), inprocess_.end());
    for (const auto& loop : clients_) {
      for (const auto& subject : loop.live) {
        base.insert(base.end(), subject.begin(), subject.end());
      }
    }
    const Oracle oracle(base);
    for (const auto& q : StandardQueries()) {
      auto r = snapshot_.Query(q.sparql, {});
      if (!r.ok()) {
        run_.Error("server final " + q.name + ": " + r.status().ToString());
        continue;
      }
      const std::string diff = Diff(r.value().rows, oracle.Answer(q));
      if (!diff.empty()) run_.Error("server final " + q.name + ": " + diff);
    }
  }

  void Report() {
    run_.Add("server_ops_per_s", ops_ / elapsed_, "ops/s");
    run_.Add("server_query_p50_us", Median(query_s_) * 1e6, "us");
    run_.Add("server_update_p50_us", Median(update_s_) * 1e6, "us");
    // The tail does not repeat from run to run (the delayed-ACK stall
    // puts a few reads anywhere from 92 to 170 ms), so it is reported
    // here and in README.md, not as a bounded metric.
    std::fprintf(stderr, "server query p99 %.0f us over %zu reads\n",
                 Quantile(query_s_, 0.99) * 1e6, query_s_.size());
  }

 private:
  const Dataset& data_;
  const std::string& text_;
  uint64_t seed_;
  Run& run_;
  Tracer& tracer_;
  wdr::server::SnapshotStore snapshot_;
  wdr::server::Server server_;
  std::vector<std::string> own_types_;
  std::vector<ClientLoop> clients_;
  std::vector<double> query_s_, update_s_;
  std::vector<Triple> inprocess_;
  uint64_t acked_ = 0, ops_ = 0, inprocess_updates_ = 0;
  double elapsed_ = 0;
};

// ---------------------------------------------------------------- main --

std::string Json(const Run& run, bool correct) {
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", run.metrics[i].value);
    out += (i == 0 ? "\"" : ", \"") + run.metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" +
           run.metrics[i].unit + "\"}";
  }
  return out + "}}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "wdr_bench: %s\nusage: wdr_bench --workload read|write "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value.c_str());
    else if (flag == "--trace") trace = std::atoi(value.c_str());
    else return Usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 != 1 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage("bad arguments");
  }
  // These variables change which program is measured.
  for (const char* var : {"WDR_MODE", "WDR_PLAN", "WDR_ENCODING"}) {
    if (std::getenv(var) != nullptr) {
      return Usage((std::string(var) + " is set; unset it").c_str());
    }
  }
  Plan plan;
  if (workload == "read") plan = {60, 5, 3, 2, 3, 7};
  else if (workload == "write") plan = {5, 60, 1, 3, 4, 7};
  else return Usage("unknown workload");

  // The benchmark's own inputs: each graph generated and serialized once,
  // the oracle's expectations, and the host-speed kernels' memory. This
  // is left out of the set-up time, and the program's memory is counted
  // from the resident size it leaves.
  const auto inputs_start = Clock::now();
  Run run;
  Tracer tracer;
  HostSpeed speed;
  const Dataset small = GenerateUniversities(seed, kServerUniversities);
  const Dataset big =
      GenerateUniversities(seed, std::max(plan.read_univ, plan.write_univ));
  const std::string small_text =
      ToNTriples(Concat(small.ontology, small.instances));
  const std::string big_text = ToNTriples(Concat(big.ontology, big.instances));
  auto pick = [&](int univ) {
    return univ == kServerUniversities ? std::make_pair(&small, &small_text)
                                       : std::make_pair(&big, &big_text);
  };
  const auto [read_data, read_text] = pick(plan.read_univ);
  const auto [write_data, write_text] = pick(plan.write_univ);
  ReadPhase read(*read_data, *read_text, speed, run, tracer);
  WritePhase write(*write_data, *write_text, seed, speed, run, tracer);
  ServerPhase server(small, small_text, seed, run, tracer);
  speed.Calibrate();  // builds the memory kernel's ring
  malloc_trim(0);
  const double baseline_rss_mb = StatusMb("VmRSS");
  const double inputs_s = Since(inputs_start);

  // Set-up, timed from the process's start without the inputs: the
  // loaded stores, the server started and the clients connected. It is
  // one cold sample, as measured.
  read.Load();
  write.Load();
  server.Load();
  const double setup_s = Since(kProcessStart) - inputs_s;
  if (!run.errors.empty()) {
    for (const auto& e : run.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
    return 1;
  }

  // Whole cycles until the measured seconds are over.
  read.Warm();
  tracer.set_on(trace == 1);
  std::vector<Timed> loads;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  // A new cycle starts while at least half a cycle's time is left, so a
  // run measures the given seconds give or take half a cycle.
  Clock::duration half_cycle{};
  for (int cycle = 0; cycle == 0 || Clock::now() + half_cycle < deadline;
       ++cycle) {
    const auto cycle_start = Clock::now();
    for (int i = 0; i < plan.loads; ++i) {
      speed.Calibrate();
      loads.push_back(speed.Stamp(
          SaturationLoad(workload == "read" ? read.text() : write.text(), run),
          true));
    }
    for (int i = 0; i < plan.read_rounds; ++i) read.Round(trace == 1);
    for (int i = 0; i < plan.write_rounds; ++i) {
      speed.Calibrate();
      write.Round();
    }
    speed.Calibrate();
    server.Slice(plan.slice_requests);
    half_cycle = (Clock::now() - cycle_start) / 2;
  }
  server.Finish();
  if (trace == 1) server.MeasureInProcess();
  tracer.set_on(false);
  const double peak_rss_mb = StatusMb("VmHWM") - baseline_rss_mb;

  // Correctness, against the oracle, outside every timed region.
  read.Check();
  write.Check();
  server.Check();

  if (trace == 0) {
    run.Add("setup_s", setup_s, "s");
    run.Add("peak_rss_mb", peak_rss_mb, "MB");
    run.Add("load_saturation_s", Median(speed.Ref(loads)), "s");
    read.Report();
    write.Report();
    server.Report();
  } else {
    read.ReportLayers();
    write.ReportLayers();
    std::filesystem::create_directories(".bench_out");
    std::ofstream(".bench_out/spans-" + workload + "-" + std::to_string(seed) +
                  ".jsonl")
        << tracer.ToJsonLines();
  }
  for (const auto& e : run.errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  if (!write.probe_diff().empty()) {
    std::fprintf(stderr, "schema-erase probe failed (known defect): %s\n",
                 write.probe_diff().c_str());
  }
  std::fprintf(stderr,
               "host kernel median %.3f ms over %zu samples; inputs %.3f s "
               "and %.1f MB resident\n",
               Median(speed.cache_samples()) * 1e3,
               speed.cache_samples().size(), inputs_s, baseline_rss_mb);
  const bool correct = run.errors.empty();
  std::printf("%s\n", Json(run, correct).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wdrbench

int main(int argc, char** argv) { return wdrbench::Main(argc, argv); }
