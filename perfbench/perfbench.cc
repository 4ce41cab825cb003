// pis_perfbench: one closed-loop, seeded, oracle-checked benchmark of the
// PIS library in its three deployment shapes (see README.md next to this
// file for the workloads, metrics and reference figures).
//
//   pis_perfbench --workload local_read|served_rw|routed_read --seed N
//                 --seconds S --trace 0|1 --work_dir DIR
//
// Every input (queries, fresh graphs, removal order) derives from --seed,
// over one fixed database. One client runs a fixed operation sequence in
// whole blocks until --seconds have passed; nothing runs in the
// background. With --trace 0 the last stdout line carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, measured by
// timing calls into each layer from outside. Either way every answer is
// checked against the naive-scan oracle and a wrong answer makes the run
// fail (exit code 1, "correct": false).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "pis.h"
#include "server/cluster_engine.h"
#include "server/engine_host.h"
#include "server/pis_server.h"
#include "server/router_server.h"
#include "server/wal.h"
#include "util/flags.h"
#include "util/socket.h"
#include "util/timer.h"

using namespace pis;

namespace {

// ----------------------------------------------------------------- inputs
// pis_server's build-at-startup defaults: 4 shards, fragments of up to 4
// edges, 5% relative feature support, gamma 1, mutation distance, sigma 2.
constexpr int kDbSize = 1000;
constexpr int kShards = 4;
constexpr int kMaxFragmentEdges = 4;
constexpr double kMinSupport = 0.05;
constexpr double kGamma = 1.0;
constexpr double kSigma = 2.0;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupReps = 3;
/// Queries sampled from an added graph (the write checks) have this size.
constexpr int kProbeQueryEdges = 8;
/// Queries of the fixed set (its first ones) the traced run probes.
constexpr int kProbeQueries = 32;
/// Adds and removes the traced run applies to its write-probe host.
constexpr int kWriteProbes = 12;
/// Upper bound on blocks per run (far above what 60 s can execute).
constexpr int kMaxBlocks = 400;

struct Workload {
  std::string name;
  int query_edges;       // size of the fixed query set's queries
  int query_set;         // distinct queries sampled from the initial db
  int block_queries;     // queries per block
  int block_writes;      // add(+query)/remove pairs per block
  bool block_compact;    // a compact closes every block
  int gap_writes;        // add/query/remove triples after each block, off
                         // the clock (the read-only shapes' write latency)
  double tail_pct;       // percentile reported as query_tail_ms
};

const Workload kWorkloads[] = {
    {"local_read", 16, 192, 8, 0, false, 1, 96},
    {"served_rw", 8, 256, 8, 2, true, 0, 98},
    {"routed_read", 12, 96, 8, 0, false, 3, 90},
};

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 1000003ULL + stream * 7919ULL + 17ULL;
}

Graph StripVertexLabels(Graph g) {
  for (VertexId v = 0; v < g.NumVertices(); ++v) g.SetVertexLabel(v, kNoLabel);
  return g;
}

/// One query of the run: the graph, its wire record, and the graph it was
/// sampled from (its distance-0 answer).
struct QueryEntry {
  Graph graph;
  std::string request;  // {"op":"query",...} line
  int source = -1;      // gid; for a query of an added graph, set on add
};

/// A graph the run adds, with the query sampled from it.
struct FreshGraph {
  Graph graph;
  std::string request;  // {"op":"add",...} line
  int query = -1;       // index into Run::queries
};

std::string QueryLine(const Graph& g) {
  JsonValue r = JsonValue::Object();
  r.Set("op", "query");
  r.Set("graph", FormatGraph(g, 0));
  return r.Serialize();
}

// ---------------------------------------------------------------- failure
struct Verdict {
  bool correct = true;
  void Fail(const std::string& what) {
    if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    correct = false;
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "error: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what + ": " + r.status().ToString());
  return r.MoveValue();
}

void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

// ------------------------------------------------------------- statistics
double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ------------------------------------------------------------------ wire
/// Requests sent per op to one endpoint, for the metrics cross-check.
using SentCounts = std::map<std::string, uint64_t>;

/// One closed-loop connection: the next request goes out only after the
/// previous reply came back and was parsed.
class Client {
 public:
  Client(int port, SentCounts* sent) : sent_(sent) {
    sock_ = Must(TcpSocket::Connect("127.0.0.1", port, 120000),
                 "connect to port " + std::to_string(port));
  }

  /// Sends one request line and returns the raw reply line.
  std::string RoundTrip(const std::string& op, const std::string& line) {
    MustOk(sock_.SendLine(line), "send " + op);
    ++(*sent_)[op];
    return Must(sock_.RecvLine(), "receive " + op + " reply");
  }

  /// RoundTrip + parse + "ok" check; errors come back as a Status.
  Result<JsonValue> Call(const std::string& op, const std::string& line) {
    Result<JsonValue> reply = JsonValue::Parse(RoundTrip(op, line));
    if (!reply.ok()) return reply.status();
    if (!reply.value().GetBoolOr("ok", false)) {
      return Status::Internal(op + " failed: " +
                              reply.value().GetStringOr("error", "?"));
    }
    return reply;
  }

 private:
  TcpSocket sock_;
  SentCounts* sent_;
};

std::vector<int> IntArray(const JsonValue* v) {
  std::vector<int> out;
  if (v == nullptr || !v->is_array()) return out;
  for (const JsonValue& x : v->items()) {
    out.push_back(static_cast<int>(x.AsNumber()));
  }
  return out;
}

/// Value of `series` (e.g. `pis_queries_total` or
/// `pis_server_requests_total{op="query"}`) in a Prometheus exposition.
double PromValue(const std::string& text, const std::string& series) {
  const std::string head = series + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (text.compare(pos, head.size(), head) == 0) {
      return std::strtod(text.c_str() + pos + head.size(), nullptr);
    }
    pos = end + 1;
  }
  return 0;
}

// ----------------------------------------------------------------- setup
struct SetupTimes {
  double total_s = 0, generate_s = 0, features_s = 0, build_s = 0,
         start_s = 0;
  double features = 0, occurrences = 0;
};

/// One pis_server as the shipped binary runs it: its own metrics registry,
/// the default worker pool, loopback.
struct Node {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<EngineHost> host;
  std::unique_ptr<PisServer> server;
  std::vector<int> shards;  // owned shards (all of them when serving alone)
  SentCounts sent;
  int port() const { return server->port(); }
};

/// pis_router over a set of nodes.
struct Router {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<ClusterEngine> cluster;
  std::unique_ptr<RouterServer> server;
  std::vector<Node*> nodes;
  SentCounts sent;
};

/// Everything one set-up starts, torn down in reverse order.
struct Stack {
  GraphDatabase initial_db;
  std::optional<ShardedFragmentIndex> initial_index;
  std::unique_ptr<MetricsRegistry> local_registry;
  std::unique_ptr<EngineHost> local_host;  // local_read only
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<Router>> routers;
  std::string wal_dir;

  /// The host whose snapshot holds every shard (engine-layer probes).
  EngineHost* primary() const {
    return local_host != nullptr ? local_host.get() : nodes.front()->host.get();
  }

  void Stop() {
    for (auto& r : routers) {
      r->server->Shutdown();
      r->server->Wait();
    }
    routers.clear();
    for (auto& n : nodes) {
      n->server->Shutdown();
      n->server->Wait();
    }
    nodes.clear();
    local_host.reset();
  }
  ~Stack() { Stop(); }
};

PisOptions ServingOptions() {
  PisOptions options;
  options.sigma = kSigma;
  return options;
}

std::unique_ptr<Node> StartNode(const GraphDatabase& db,
                                const ShardedFragmentIndex& index,
                                std::vector<int> shards_owned,
                                const std::string& wal_dir) {
  auto node = std::make_unique<Node>();
  node->registry = std::make_unique<MetricsRegistry>();
  node->host = std::make_unique<EngineHost>(
      GraphDatabase(db), ShardedFragmentIndex(index), ServingOptions());
  if (!wal_dir.empty()) {
    WriteAheadLog wal = Must(WriteAheadLog::Open(wal_dir), "open WAL");
    MustOk(node->host->AttachWal(
               std::make_unique<WriteAheadLog>(std::move(wal))),
           "attach WAL");
  }
  node->host->EnableMetrics(node->registry.get());
  PisServerOptions options;
  options.metrics = node->registry.get();
  options.shards_owned = shards_owned;
  node->shards = shards_owned;
  if (node->shards.empty()) {
    for (int s = 0; s < kShards; ++s) node->shards.push_back(s);
  }
  node->server = std::make_unique<PisServer>(node->host.get(), options);
  MustOk(node->server->Start(), "start pis_server");
  return node;
}

/// pis_router's set-up: connect + bootstrap, then the front end. The
/// health prober is left off: a 100 ms timer thread is background work the
/// closed loop would measure, and no replica fails during a run.
std::unique_ptr<Router> StartRouter(std::vector<Node*> nodes) {
  auto router = std::make_unique<Router>();
  router->registry = std::make_unique<MetricsRegistry>();
  router->nodes = nodes;
  ClusterManifest manifest;
  manifest.shards.resize(kShards);
  for (Node* n : nodes) {
    for (int s : n->shards) {
      manifest.shards[s].replicas.push_back("127.0.0.1:" +
                                            std::to_string(n->port()));
    }
  }
  ClusterEngineOptions cluster_options;
  cluster_options.options = ServingOptions();
  cluster_options.metrics = router->registry.get();
  router->cluster =
      Must(ClusterEngine::Connect(manifest, cluster_options), "router");
  RouterServerOptions options;
  options.metrics = router->registry.get();
  router->server =
      std::make_unique<RouterServer>(router->cluster.get(), options);
  MustOk(router->server->Start(), "start pis_router");
  return router;
}

int FrontPort(const Stack& stack) {
  if (!stack.routers.empty()) return stack.routers.front()->server->port();
  return stack.nodes.front()->port();
}

SentCounts* FrontSent(Stack& stack) {
  if (!stack.routers.empty()) return &stack.routers.front()->sent;
  return &stack.nodes.front()->sent;
}

std::unique_ptr<Stack> SetUp(const Workload& w,
                             const std::string& work_dir, int rep,
                             SetupTimes* t) {
  auto stack = std::make_unique<Stack>();
  if (w.name == "served_rw") {
    stack->wal_dir = work_dir + "/wal" + std::to_string(rep);
    std::filesystem::remove_all(stack->wal_dir);
  }
  Timer total;
  Timer phase;
  // One fixed corpus, as the paper searches one fixed database: the seed
  // picks the queries and the write stream, not the data.
  GraphDatabase db = MoleculeGenerator().Generate(kDbSize);
  t->generate_s = phase.Seconds();

  phase.Reset();
  std::vector<Graph> features = Must(
      MineDiscriminativeFeatures(db, kMaxFragmentEdges, kMinSupport, kGamma),
      "mine features");
  t->features_s = phase.Seconds();
  t->features = static_cast<double>(features.size());

  phase.Reset();
  FragmentIndexOptions index_options;
  index_options.max_fragment_edges = kMaxFragmentEdges;
  index_options.num_threads = HardwareThreads();
  index_options.spec = Must(DistanceSpecFromName("mutation"), "spec");
  ShardedFragmentIndex index = Must(
      ShardedFragmentIndex::Build(db, features, index_options, kShards),
      "build index");
  t->build_s = phase.Seconds();
  t->occurrences = 0;
  for (int s = 0; s < index.num_shards(); ++s) {
    t->occurrences += index.shard(s).stats().num_fragment_occurrences;
  }

  phase.Reset();
  if (w.name == "local_read") {
    stack->local_registry = std::make_unique<MetricsRegistry>();
    stack->local_host = std::make_unique<EngineHost>(
        GraphDatabase(db), ShardedFragmentIndex(index), ServingOptions());
    stack->local_host->EnableMetrics(stack->local_registry.get());
  } else if (w.name == "served_rw") {
    stack->nodes.push_back(StartNode(db, index, {}, stack->wal_dir));
  } else {
    stack->nodes.push_back(StartNode(db, index, {0, 1}, ""));
    stack->nodes.push_back(StartNode(db, index, {2, 3}, ""));
    stack->routers.push_back(
        StartRouter({stack->nodes[0].get(), stack->nodes[1].get()}));
  }
  if (!stack->nodes.empty()) {
    // Time to first servable request: one health round trip.
    SentCounts scratch;
    Client probe(FrontPort(*stack), &scratch);
    Must(probe.Call("health", R"({"op":"health"})"), "health");
  }
  t->start_s = phase.Seconds();
  t->total_s = total.Seconds();

  stack->initial_db = std::move(db);
  stack->initial_index.emplace(std::move(index));
  return stack;
}

// ------------------------------------------------------------ operations
struct Op {
  enum Kind { kQuery, kAdd, kRemove, kCompact } kind = kQuery;
  int query = -1;  // kQuery: index into Run::queries
  int fresh = -1;  // kAdd: index into Run::fresh
  int gid = -1;    // kRemove: target; kAdd: assigned id
  bool timed = true;  // false for the writes between blocks
  // Outcome.
  bool failed = false;
  double ms = 0;
  std::vector<int> answers;
  std::vector<int> candidates;  // in-process only
  size_t candidate_count = 0;
};

/// The seeded inputs and the operation log of one run.
struct Run {
  const Workload* w = nullptr;
  std::vector<QueryEntry> queries;  // [0, query_set) is the fixed set
  std::vector<FreshGraph> fresh;
  std::vector<int> removal_order;  // initial gids that no query comes from
  size_t next_removal = 0;
  MoleculeGenerator fresh_gen;
  Rng fresh_rng;
  std::vector<Op> ops;

  Run(const Workload& workload, uint64_t seed)
      : w(&workload),
        fresh_gen([&] {
          MoleculeGeneratorOptions o;
          o.seed = SubSeed(seed, 3);
          return o;
        }()),
        fresh_rng(SubSeed(seed, 4)) {}

  /// Next fresh graph (and the query sampled from it).
  int NewFresh() {
    for (;;) {
      Graph g = fresh_gen.Next();
      if (g.NumEdges() < kProbeQueryEdges) continue;
      Result<Graph> q = SampleConnectedSubgraph(g, kProbeQueryEdges,
                                                &fresh_rng);
      if (!q.ok()) continue;
      FreshGraph f;
      JsonValue add = JsonValue::Object();
      add.Set("op", "add");
      add.Set("graph", FormatGraph(g, 0));
      f.request = add.Serialize();
      f.graph = std::move(g);
      QueryEntry e;
      e.graph = StripVertexLabels(q.MoveValue());
      e.request = QueryLine(e.graph);
      f.query = static_cast<int>(queries.size());
      queries.push_back(std::move(e));
      fresh.push_back(std::move(f));
      return static_cast<int>(fresh.size()) - 1;
    }
  }

  /// Add a fresh graph, query a subgraph of it, remove a live graph.
  void AddWriteTriple(bool timed) {
    Op add;
    add.kind = Op::kAdd;
    add.fresh = NewFresh();
    Op q;
    q.query = fresh[add.fresh].query;
    Op rm;
    rm.kind = Op::kRemove;
    rm.gid = removal_order.at(next_removal++);
    add.timed = q.timed = rm.timed = timed;
    ops.push_back(std::move(add));
    ops.push_back(std::move(q));
    ops.push_back(std::move(rm));
  }

  /// Appends block `b` of the timed phase.
  void AppendBlock(int b) {
    const int n = w->block_queries;
    for (int i = 0; i < n; ++i) {
      Op q;
      q.query = (b * n + i) % w->query_set;
      ops.push_back(std::move(q));
      // Writes spread evenly through the block.
      if (w->block_writes > 0 && (i + 1) % (n / w->block_writes) == 0) {
        AddWriteTriple(true);
      }
    }
    if (w->block_compact) {
      Op c;
      c.kind = Op::kCompact;
      ops.push_back(std::move(c));
    }
  }
};

void SampleQueries(const GraphDatabase& db, uint64_t seed, Run* run) {
  Rng rng(SubSeed(seed, 2));
  std::set<int> sources;
  while (static_cast<int>(run->queries.size()) < run->w->query_set) {
    const int gid = static_cast<int>(rng.UniformIndex(db.size()));
    if (sources.count(gid) != 0) continue;
    if (db.at(gid).NumEdges() < run->w->query_edges) continue;
    Result<Graph> q =
        SampleConnectedSubgraph(db.at(gid), run->w->query_edges, &rng);
    if (!q.ok()) continue;
    sources.insert(gid);
    QueryEntry e;
    e.graph = StripVertexLabels(q.MoveValue());
    e.request = QueryLine(e.graph);
    e.source = gid;
    run->queries.push_back(std::move(e));
  }
  for (int gid = 0; gid < db.size(); ++gid) {
    if (sources.count(gid) == 0) run->removal_order.push_back(gid);
  }
  for (size_t i = run->removal_order.size(); i > 1; --i) {
    std::swap(run->removal_order[i - 1],
              run->removal_order[rng.UniformIndex(i)]);
  }
}

/// Executes one operation through the workload's front door.
void Execute(Run* run, Op* op, EngineHost* host, Client* client) {
  Timer timer;
  if (host != nullptr) {
    switch (op->kind) {
      case Op::kQuery: {
        Result<SearchResult> r = host->Search(run->queries[op->query].graph);
        op->ms = timer.Millis();
        if (!r.ok()) break;
        op->answers = std::move(r.value().answers);
        op->candidates = std::move(r.value().candidates);
        op->candidate_count = op->candidates.size();
        return;
      }
      case Op::kAdd: {
        Result<int> gid = host->AddGraph(run->fresh[op->fresh].graph);
        op->ms = timer.Millis();
        if (!gid.ok()) break;
        op->gid = gid.value();
        return;
      }
      case Op::kRemove: {
        Status s = host->RemoveGraph(op->gid);
        op->ms = timer.Millis();
        if (!s.ok()) break;
        return;
      }
      case Op::kCompact: {
        Result<int> c = host->Compact();
        op->ms = timer.Millis();
        if (!c.ok()) break;
        return;
      }
    }
    op->failed = true;
    return;
  }
  Result<JsonValue> reply = Status::Internal("no op");
  switch (op->kind) {
    case Op::kQuery:
      reply = client->Call("query", run->queries[op->query].request);
      break;
    case Op::kAdd:
      reply = client->Call("add", run->fresh[op->fresh].request);
      break;
    case Op::kRemove:
      reply = client->Call(
          "remove", R"({"op":"remove","id":)" + std::to_string(op->gid) + "}");
      break;
    case Op::kCompact:
      reply = client->Call("compact", R"({"op":"compact"})");
      break;
  }
  op->ms = timer.Millis();
  if (!reply.ok()) {
    op->failed = true;
    return;
  }
  if (op->kind == Op::kQuery) {
    op->answers = IntArray(reply.value().Find("answers"));
    op->candidate_count =
        static_cast<size_t>(reply.value().GetNumberOr("candidates", -1));
  } else if (op->kind == Op::kAdd) {
    op->gid = static_cast<int>(reply.value().GetNumberOr("id", -1));
  }
}

// ----------------------------------------------------------------- oracle
/// Checks every executed op against NaiveSearch over the graphs live at
/// that moment, plus the method's properties: a query's source graph is
/// among its answers, every true answer was a candidate, added graphs are
/// found by the query sampled from them, removed graphs never reappear.
/// Returns the universe database (every graph ever added) and final live
/// set through the out-params.
void CheckOracle(Run* run, const GraphDatabase& initial, Verdict* verdict,
                 GraphDatabase* universe_out, std::vector<char>* live_out) {
  GraphDatabase universe = initial;
  for (const Op& op : run->ops) {
    if (op.kind != Op::kAdd || op.failed) continue;
    verdict->Expect(op.gid == universe.size(),
                    "add returned id " + std::to_string(op.gid) +
                        ", expected " + std::to_string(universe.size()));
    universe.Add(run->fresh[op.fresh].graph);
  }
  const DistanceSpec spec = DistanceSpec::EdgeMutation();
  std::map<int, std::vector<int>> oracle;  // query -> answers over universe
  std::vector<char> live(universe.size(), 0);
  std::fill(live.begin(), live.begin() + initial.size(), 1);
  std::vector<char> ever_removed(universe.size(), 0);
  for (Op& op : run->ops) {
    if (op.failed) continue;
    switch (op.kind) {
      case Op::kAdd:
        if (op.gid >= 0 && op.gid < universe.size()) {
          live[op.gid] = 1;
          run->queries[run->fresh[op.fresh].query].source = op.gid;
        }
        break;
      case Op::kRemove:
        verdict->Expect(live.at(op.gid) == 1,
                        "removed graph " + std::to_string(op.gid) +
                            " was not live");
        live[op.gid] = 0;
        ever_removed[op.gid] = 1;
        break;
      case Op::kCompact:
        break;
      case Op::kQuery: {
        auto it = oracle.find(op.query);
        if (it == oracle.end()) {
          it = oracle
                   .emplace(op.query,
                            NaiveSearch(universe, run->queries[op.query].graph,
                                        spec, kSigma)
                                .answers)
                   .first;
        }
        std::vector<int> expected;
        for (int gid : it->second) {
          if (live[gid]) expected.push_back(gid);
        }
        const std::string tag = "query " + std::to_string(op.query);
        verdict->Expect(op.answers == expected,
                        tag + ": " + std::to_string(op.answers.size()) +
                            " answers, oracle has " +
                            std::to_string(expected.size()));
        const int source = run->queries[op.query].source;
        verdict->Expect(
            source >= 0 && std::binary_search(op.answers.begin(),
                                              op.answers.end(), source),
            tag + ": source graph " + std::to_string(source) +
                " missing from the answers");
        for (int gid : op.answers) {
          verdict->Expect(gid >= 0 && gid < universe.size() &&
                              !ever_removed[gid],
                          tag + ": answered graph " + std::to_string(gid) +
                              " was removed or never added");
        }
        if (!op.candidates.empty()) {
          std::vector<int> cands = op.candidates;
          std::sort(cands.begin(), cands.end());
          verdict->Expect(std::includes(cands.begin(), cands.end(),
                                        expected.begin(), expected.end()),
                          tag + ": the filter lost a true answer");
        }
        verdict->Expect(op.candidate_count >= expected.size(),
                        tag + ": fewer candidates than true answers");
        break;
      }
    }
  }
  *universe_out = std::move(universe);
  *live_out = std::move(live);
}

// ---------------------------------------------------- per-layer sampling
struct Layered {
  std::map<std::string, std::vector<double>> s;
  std::map<std::string, std::string> units;
  void Add(const std::string& name, double value, const std::string& unit) {
    s[name].push_back(value);
    units[name] = unit;
  }
};

/// Engine/index layers for one query on a pinned snapshot.
void ProbeEngine(const EngineHost::Snapshot& snap, const Graph& q,
                 Layered* out, std::vector<int>* candidates_out) {
  const ShardedFragmentIndex& index = *snap.index;
  Timer t;
  std::vector<QueryFragment> frags = Must(
      EnumerateIndexedQueryFragments(index.shard(0), q,
                                     snap.engine.options().max_query_fragments),
      "enumerate");
  out->Add("core.enumerate_ms", t.Millis(), "ms");
  out->Add("core.fragments", static_cast<double>(frags.size()), "count");
  std::set<std::tuple<int, std::vector<Label>, std::vector<double>>> distinct;
  for (const QueryFragment& f : frags) {
    distinct.emplace(f.prepared.class_id, f.prepared.labels,
                     f.prepared.weights);
  }
  out->Add("core.distinct_fragments", static_cast<double>(distinct.size()),
           "count");

  double range_ms = 0;
  size_t results = 0;
  const ClassMatchCallback count = [&results](int, double) { ++results; };
  for (const QueryFragment& f : frags) {
    for (int s = 0; s < index.num_shards(); ++s) {
      Timer rt;
      MustOk(index.shard(s).RangeQuery(f.prepared, kSigma, count),
             "range query");
      range_ms += rt.Millis();
    }
  }
  out->Add("index.range_query_ms", range_ms, "ms");
  out->Add("index.range_results", static_cast<double>(results), "count");

  t.Reset();
  FilterResult filter = Must(snap.engine.Filter(q), "filter");
  out->Add("core.filter_ms", t.Millis(), "ms");
  const QueryStats& st = filter.stats;
  out->Add("index.range_queries", static_cast<double>(st.range_queries),
           "count");
  out->Add("core.pass1_ms", st.pass1_seconds * 1e3, "ms");
  out->Add("core.selectivity_ms", st.selectivity_seconds * 1e3, "ms");
  out->Add("core.partition_ms", st.partition_seconds * 1e3, "ms");
  out->Add("core.pass2_ms", st.pass2_seconds * 1e3, "ms");

  t.Reset();
  VerifyResult v =
      VerifyCandidates(*snap.db, q, filter.candidates,
                       DistanceSpec::EdgeMutation(), kSigma,
                       snap.engine.options().verify_threads);
  const double verify_ms = t.Millis();
  const double n_cand = static_cast<double>(filter.candidates.size());
  out->Add("core.candidates", n_cand, "count");
  out->Add("core.answers", static_cast<double>(v.answers.size()), "count");
  out->Add("core.candidate_precision",
           n_cand > 0 ? v.answers.size() / n_cand : 1.0, "ratio");
  out->Add("core.verify_ms", verify_ms, "ms");
  out->Add("core.verify_us_per_candidate",
           n_cand > 0 ? verify_ms * 1e3 / n_cand : 0.0, "us");
  // The floor the indexed path is measured against: verify everything.
  t.Reset();
  NaiveSearch(*snap.db, q, DistanceSpec::EdgeMutation(), kSigma);
  out->Add("core.naive_scan_ms", t.Millis(), "ms");
  *candidates_out = std::move(filter.candidates);
}

/// Protocol layer: a `query` round trip minus EngineHost::Search of the
/// same query on the serving host.
void ProbeProtocol(EngineHost* host, Client* client, const QueryEntry& q,
                   Layered* out) {
  Timer t;
  Must(host->Search(q.graph), "host search");
  const double search_ms = t.Millis();
  t.Reset();
  const std::string reply = client->RoundTrip("query", q.request);
  const double rt_ms = t.Millis();
  Must(JsonValue::Parse(reply), "parse query reply");
  out->Add("server.query_protocol_ms", rt_ms - search_ms, "ms");
  out->Add("util.request_bytes", static_cast<double>(q.request.size() + 1),
           "bytes");
  out->Add("util.reply_bytes", static_cast<double>(reply.size() + 1),
           "bytes");
}

/// Fabric layer: direct shard_query round trips per endpoint group, the
/// JSON parse of their replies, shard_verify per shard with candidates,
/// and the router's own time around them.
void ProbeFabric(Router* router, std::vector<Client*> node_clients,
                 Client* router_client, const ShardedFragmentIndex& index,
                 const QueryEntry& q, const std::vector<int>& candidates,
                 Layered* out) {
  const std::string record = FormatGraph(q.graph, 0);
  double sq_ms = 0, sq_bytes = 0, parse_ms = 0;
  for (size_t e = 0; e < router->nodes.size(); ++e) {
    JsonValue req = JsonValue::Object();
    req.Set("op", "shard_query");
    req.Set("graph", record);
    JsonValue shards = JsonValue::Array();
    for (int s : router->nodes[e]->shards) shards.Push(s);
    req.Set("shards", std::move(shards));
    req.Set("sigma", kSigma);
    const std::string line = req.Serialize();
    Timer t;
    const std::string reply = node_clients[e]->RoundTrip("shard_query", line);
    sq_ms += t.Millis();
    sq_bytes += static_cast<double>(reply.size() + 1);
    t.Reset();
    JsonValue parsed = Must(JsonValue::Parse(reply), "parse shard_query");
    parse_ms += t.Millis();
    if (!parsed.GetBoolOr("ok", false)) Die("shard_query failed: " + reply);
  }
  double sv_ms = 0, sv_bytes = 0;
  std::map<int, std::vector<int>> by_shard;
  for (int gid : candidates) by_shard[index.shard_of(gid)].push_back(gid);
  for (const auto& [shard, ids] : by_shard) {
    size_t e = 0;
    while (std::find(router->nodes[e]->shards.begin(),
                     router->nodes[e]->shards.end(),
                     shard) == router->nodes[e]->shards.end()) {
      ++e;
    }
    JsonValue req = JsonValue::Object();
    req.Set("op", "shard_verify");
    req.Set("graph", record);
    JsonValue arr = JsonValue::Array();
    for (int gid : ids) arr.Push(gid);
    req.Set("ids", std::move(arr));
    req.Set("sigma", kSigma);
    Timer t;
    const std::string reply =
        node_clients[e]->RoundTrip("shard_verify", req.Serialize());
    sv_ms += t.Millis();
    sv_bytes += static_cast<double>(reply.size() + 1);
  }
  Timer t;
  Must(router_client->Call("query", q.request), "router query");
  const double router_ms = t.Millis();
  out->Add("server.shard_query_ms", sq_ms, "ms");
  out->Add("server.shard_query_bytes", sq_bytes, "bytes");
  out->Add("util.json_parse_ms", parse_ms, "ms");
  out->Add("server.shard_verify_ms", sv_ms, "ms");
  out->Add("server.shard_verify_bytes", sv_bytes, "bytes");
  out->Add("server.router_self_ms", router_ms - sq_ms - sv_ms, "ms");
}

/// Write path on a probe host: a copy of the primary host's current state
/// with its own WAL, so the workload's own state and counters stay as the
/// run left them.
void ProbeWrites(EngineHost* primary, const Run& run, uint64_t seed,
                 const std::string& dir, bool measure_compact, Layered* out) {
  std::shared_ptr<const EngineHost::Snapshot> snap = primary->snapshot();
  // A stream of its own, so the timed phase sees the same fresh graphs
  // with and without tracing.
  MoleculeGeneratorOptions gen;
  gen.seed = SubSeed(seed, 5);
  MoleculeGenerator fresh(gen);
  for (int s = 0; s < snap->index->num_shards(); ++s) {
    Timer t;
    FragmentIndex clone =
        Must(snap->index->shard_handle(s)->Clone(), "clone shard");
    out->Add("index.shard_clone_ms", t.Millis(), "ms");
    for (int k = 0; k < 2; ++k) {
      const Graph g = fresh.Next();
      t.Reset();
      Must(clone.AddGraph(g), "add into clone");
      out->Add("index.add_graph_ms", t.Millis(), "ms");
    }
  }

  std::filesystem::remove_all(dir);
  EngineHost host(GraphDatabase(*snap->db), ShardedFragmentIndex(*snap->index),
                  ServingOptions());
  WriteAheadLog wal = Must(WriteAheadLog::Open(dir), "open probe WAL");
  MustOk(host.AttachWal(std::make_unique<WriteAheadLog>(std::move(wal))),
         "attach probe WAL");
  double user_bytes = 0;
  for (int k = 0; k < kWriteProbes; ++k) {
    const Graph g = fresh.Next();
    user_bytes += static_cast<double>(FormatGraph(g, 0).size());
    EngineHost::WriteTiming timing;
    Timer t;
    Must(host.AddGraph(g, nullptr, &timing), "probe add");
    out->Add("server.add_ms", t.Millis(), "ms");
    out->Add("server.wal_append_ms", timing.wal_append_ms, "ms");
    out->Add("server.publish_ms", timing.publish_ms, "ms");
    // Remove from the far end of the removal order: the run's own
    // removals consume it from the front.
    const int gid = run.removal_order[run.removal_order.size() - 1 - k];
    t.Reset();
    MustOk(host.RemoveGraph(gid, nullptr, &timing), "probe remove");
    out->Add("server.remove_ms", t.Millis(), "ms");
    out->Add("server.wal_append_ms", timing.wal_append_ms, "ms");
    out->Add("server.publish_ms", timing.publish_ms, "ms");
  }
  out->Add("server.wal_bytes_per_user_byte",
           static_cast<double>(host.Stats().wal_bytes) / user_bytes, "ratio");
  if (measure_compact) {
    Timer t;
    Must(host.Compact(), "probe compact");
    out->Add("server.compact_ms", t.Millis(), "ms");
  }
}

// ----------------------------------------------------------- cross-check
/// The servers' own request counters and each host's pis_queries_total
/// must equal what this process sent. `direct_searches` counts
/// EngineHost::Search calls made on a node's host from outside.
void CheckCounters(Stack* stack,
                   const std::map<const EngineHost*, uint64_t>& direct,
                   Verdict* verdict) {
  SentCounts scratch;
  auto count = [](const SentCounts& sent, const std::string& op) {
    auto it = sent.find(op);
    return it == sent.end() ? uint64_t{0} : it->second;
  };
  for (auto& r : stack->routers) {
    Client c(r->server->port(), &scratch);
    const std::string text =
        Must(c.Call("metrics", R"({"op":"metrics"})"), "router metrics")
            .GetStringOr("text", "");
    for (const char* op : {"query", "add", "remove"}) {
      const double got = PromValue(
          text, std::string("pis_router_requests_total{op=\"") + op + "\"}");
      verdict->Expect(got == count(r->sent, op),
                      std::string("router ") + op + " counter " +
                          std::to_string(got) + " != sent " +
                          std::to_string(count(r->sent, op)));
    }
  }
  for (auto& n : stack->nodes) {
    Client c(n->port(), &scratch);
    const std::string text =
        Must(c.Call("metrics", R"({"op":"metrics"})"), "server metrics")
            .GetStringOr("text", "");
    // Every query a router fans out reaches each of its endpoints once.
    uint64_t fanned = 0;
    for (auto& r : stack->routers) {
      if (std::find(r->nodes.begin(), r->nodes.end(), n.get()) !=
          r->nodes.end()) {
        fanned += count(r->sent, "query");
      }
    }
    const std::map<std::string, uint64_t> expected = {
        {"query", count(n->sent, "query")},
        {"add", count(n->sent, "add")},
        {"remove", count(n->sent, "remove")},
        {"compact", count(n->sent, "compact")},
        {"shard_query", count(n->sent, "shard_query") + fanned},
    };
    for (const auto& [op, want] : expected) {
      const double got = PromValue(
          text, "pis_server_requests_total{op=\"" + op + "\"}");
      verdict->Expect(got == want, "server " + op + " counter " +
                                       std::to_string(got) + " != sent " +
                                       std::to_string(want));
    }
    if (n->host == nullptr) continue;  // probe server over the local host
    auto it = direct.find(n->host.get());
    const uint64_t want_queries =
        count(n->sent, "query") + (it == direct.end() ? 0 : it->second);
    const double got = PromValue(text, "pis_queries_total");
    verdict->Expect(got == want_queries,
                    "host pis_queries_total " + std::to_string(got) +
                        " != " + std::to_string(want_queries));
  }
}

/// served_rw: rebuild a host from the initial state plus a replay of the
/// run's WAL; it must hold exactly the tracked live set and answer as the
/// oracle does.
void CheckRecovery(Stack* stack, Run* run, const GraphDatabase& universe,
                   const std::vector<char>& live, Verdict* verdict) {
  stack->Stop();  // closes the WAL
  WriteAheadLog wal = Must(WriteAheadLog::Open(stack->wal_dir), "reopen WAL");
  GraphDatabase db = stack->initial_db;
  ShardedFragmentIndex index = *stack->initial_index;
  MustOk(wal.Replay(&db, &index), "replay WAL");
  verdict->Expect(db.size() == universe.size() &&
                      index.db_size() == universe.size(),
                  "recovered " + std::to_string(index.db_size()) +
                      " slots, expected " + std::to_string(universe.size()));
  for (int gid = 0; gid < universe.size(); ++gid) {
    verdict->Expect(index.IsLive(gid) == (live[gid] != 0),
                    "recovered liveness of graph " + std::to_string(gid));
  }
  EngineHost host(std::move(db), std::move(index), ServingOptions());
  const DistanceSpec spec = DistanceSpec::EdgeMutation();
  std::vector<int> sample;
  for (int i = 0; i < 8; ++i) sample.push_back(i);
  for (size_t k = run->fresh.size(); k > 0 && sample.size() < 12; --k) {
    if (run->queries[run->fresh[k - 1].query].source >= 0) {
      sample.push_back(run->fresh[k - 1].query);
    }
  }
  for (int qi : sample) {
    const Graph& q = run->queries[qi].graph;
    SearchResult got = Must(host.Search(q), "recovered search");
    std::vector<int> expected;
    for (int gid : NaiveSearch(universe, q, spec, kSigma).answers) {
      if (live[gid]) expected.push_back(gid);
    }
    verdict->Expect(got.answers == expected,
                    "recovered host answers query " + std::to_string(qi) +
                        " unlike the oracle");
  }
}

// ----------------------------------------------------------------- report
struct Metric {
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::map<std::string, Metric>& metrics) {
  JsonValue m = JsonValue::Object();
  for (const auto& [name, metric] : metrics) {
    JsonValue v = JsonValue::Object();
    v.Set("value", metric.value);
    v.Set("unit", metric.unit);
    m.Set(name, std::move(v));
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", correct);
  out.Set("attempted", attempted);
  out.Set("failed", failed);
  out.Set("metrics", std::move(m));
  std::printf("%s\n", out.Serialize().c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: with glibc's adaptive defaults, the ~1 MB
  // JSON buffers of the fabric were mapped and unmapped per request in
  // some runs and reused in others, which moved routed_read by ~25% from
  // run to run. Pinned, every run reuses heap memory the same way.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload_name;
  int64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string work_dir = ".bench_build/work";
  FlagSet flags;
  flags.AddString("workload", &workload_name,
                  "local_read | served_rw | routed_read");
  flags.AddInt64("seed", &seed, "workload seed");
  flags.AddDouble("seconds", &seconds, "length of the timed phase");
  flags.AddInt("trace", &trace, "1 = report per-layer metrics");
  flags.AddString("work_dir", &work_dir, "scratch directory (WAL files)");
  Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == StatusCode::kAlreadyExists) return 0;
  MustOk(parsed, "flags");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (candidate.name == workload_name) w = &candidate;
  }
  if (w == nullptr) Die("unknown --workload \"" + workload_name + "\"");
  const uint64_t useed = static_cast<uint64_t>(seed);
  work_dir += "/" + w->name;
  std::filesystem::create_directories(work_dir);

  // ---- set-up, repeated; the last one serves the run
  std::vector<SetupTimes> setups(kSetupReps);
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = SetUp(*w, work_dir, rep, &setups[rep]);
  }

  Run run(*w, useed);
  SampleQueries(stack->initial_db, useed, &run);
  Verdict verdict;
  Layered layers;
  std::map<const EngineHost*, uint64_t> direct_searches;

  EngineHost* host = stack->local_host.get();  // in-process front door
  std::unique_ptr<Client> client;
  if (host == nullptr) {
    client = std::make_unique<Client>(FrontPort(*stack), FrontSent(*stack));
  }

  // ---- traced run: layer probes over the fixed query set, initial state
  if (trace != 0) {
    std::shared_ptr<const EngineHost::Snapshot> snap =
        stack->primary()->snapshot();
    const int probes = std::min(w->query_set, kProbeQueries);
    std::vector<std::vector<int>> candidates(probes);
    for (int i = 0; i < probes; ++i) {
      ProbeEngine(*snap, run.queries[i].graph, &layers, &candidates[i]);
    }
    // Shapes without a server or router get one over the same host for
    // the protocol and fabric probes.
    if (stack->nodes.empty()) {
      auto node = std::make_unique<Node>();
      node->registry = std::make_unique<MetricsRegistry>();
      node->shards = {0, 1, 2, 3};
      PisServerOptions options;
      options.metrics = node->registry.get();
      node->server =
          std::make_unique<PisServer>(stack->local_host.get(), options);
      MustOk(node->server->Start(), "start probe pis_server");
      stack->nodes.push_back(std::move(node));
    }
    if (stack->routers.empty()) {
      stack->routers.push_back(StartRouter({stack->nodes[0].get()}));
    }
    Node* server_node = stack->nodes[0].get();
    EngineHost* server_host = server_node->host != nullptr
                                  ? server_node->host.get()
                                  : stack->local_host.get();
    Router* router = stack->routers[0].get();
    Client protocol_client(server_node->port(), &server_node->sent);
    std::vector<std::unique_ptr<Client>> node_clients;
    std::vector<Client*> node_ptrs;
    for (Node* n : router->nodes) {
      node_clients.push_back(std::make_unique<Client>(n->port(), &n->sent));
      node_ptrs.push_back(node_clients.back().get());
    }
    Client router_client(router->server->port(), &router->sent);
    for (int i = 0; i < probes; ++i) {
      ProbeProtocol(server_host, &protocol_client, run.queries[i], &layers);
      ++direct_searches[server_host];
      ProbeFabric(router, node_ptrs, &router_client, *snap->index,
                  run.queries[i], candidates[i], &layers);
    }
    ProbeWrites(stack->primary(), run, useed, work_dir + "/probe_wal",
                !w->block_compact, &layers);
  }

  auto execute_from = [&](size_t first) {
    for (size_t i = first; i < run.ops.size(); ++i) {
      Execute(&run, &run.ops[i], host, client.get());
    }
  };

  // ---- timed phase: whole blocks until --seconds of them have passed
  double elapsed = 0;
  int blocks = 0;
  while (blocks < kMaxBlocks && (blocks == 0 || elapsed < seconds)) {
    size_t first = run.ops.size();
    run.AppendBlock(blocks++);
    Timer block;
    execute_from(first);
    elapsed += block.Seconds();
    // Spread over the whole run, write samples see the same machine as
    // the reads; a burst after the timed phase swung from run to run.
    first = run.ops.size();
    for (int k = 0; k < w->gap_writes; ++k) run.AddWriteTriple(false);
    execute_from(first);
  }

  // ---- checks (outside every timed span)
  GraphDatabase universe;
  std::vector<char> live;
  CheckOracle(&run, stack->initial_db, &verdict, &universe, &live);
  if (host != nullptr) {
    // The local host also answers the traced run's probe server.
    uint64_t queries = direct_searches[host];
    for (const Op& op : run.ops) queries += op.kind == Op::kQuery;
    if (!stack->nodes.empty()) queries += stack->nodes[0]->sent["query"];
    const double got = PromValue(stack->local_registry->RenderPrometheus(),
                                 "pis_queries_total");
    verdict.Expect(got == queries, "host pis_queries_total " +
                                       std::to_string(got) + " != " +
                                       std::to_string(queries));
  }
  if (!stack->nodes.empty()) {
    CheckCounters(stack.get(), direct_searches, &verdict);
  }
  client.reset();
  if (w->name == "served_rw") {
    CheckRecovery(stack.get(), &run, universe, live, &verdict);
  }
  stack.reset();

  // ---- report
  uint64_t failed = 0;
  uint64_t timed_ops = 0;
  std::vector<double> query_ms, add_ms, remove_ms, compact_ms;
  for (const Op& op : run.ops) {
    timed_ops += op.timed;
    if (op.failed) {
      ++failed;
      continue;
    }
    switch (op.kind) {
      case Op::kQuery:
        if (op.timed) query_ms.push_back(op.ms);
        break;
      case Op::kAdd:
        add_ms.push_back(op.ms);
        break;
      case Op::kRemove:
        remove_ms.push_back(op.ms);
        break;
      case Op::kCompact:
        compact_ms.push_back(op.ms);
        break;
    }
  }
  std::map<std::string, Metric> metrics;
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  if (trace == 0) {
    metrics["setup_s"] = {setup_median(&SetupTimes::total_s), "s"};
    metrics["query_p50_ms"] = {Median(query_ms), "ms"};
    metrics["query_tail_ms"] = {Percentile(query_ms, w->tail_pct), "ms"};
    metrics["ops_per_s"] = {static_cast<double>(timed_ops) / elapsed, "1/s"};
    metrics["add_p50_ms"] = {Median(add_ms), "ms"};
    metrics["remove_p50_ms"] = {Median(remove_ms), "ms"};
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
  } else {
    metrics["graph.generate_s"] = {setup_median(&SetupTimes::generate_s), "s"};
    metrics["mining.features_s"] = {setup_median(&SetupTimes::features_s), "s"};
    metrics["mining.features"] = {setups.back().features, "count"};
    metrics["index.build_s"] = {setup_median(&SetupTimes::build_s), "s"};
    metrics["index.fragment_occurrences"] = {setups.back().occurrences,
                                             "count"};
    metrics["server.start_s"] = {setup_median(&SetupTimes::start_s), "s"};
    if (w->block_compact) {
      layers.Add("server.compact_ms", Median(compact_ms), "ms");
    }
    for (const auto& [name, values] : layers.s) {
      metrics[name] = {Median(values), layers.units[name]};
    }
    metrics["trace.query_p50_ms"] = {Median(query_ms), "ms"};
  }
  PrintResult(verdict.correct, run.ops.size(), failed, metrics);
  return verdict.correct ? 0 : 1;
}
