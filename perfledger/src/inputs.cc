#include "inputs.h"

#include <algorithm>
#include <numeric>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/rng.h"

namespace ledger {

using namespace egocensus;

namespace {

constexpr const char* kLabel = "?A; [?A.LABEL=1];";
constexpr const char* kEdgeLabeled = "?A-?B; [?A.LABEL=1]; [?B.LABEL=1];";
constexpr const char* kTriangleLabeled = "?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1];";
constexpr const char* kPath2 = "?A-?B; ?B-?C;";
constexpr const char* kCycle4 = "?A-?B; ?B-?C; ?C-?D; ?D-?A;";
constexpr const char* kClique4 = "?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;";
// Fig. 4(d): a triangle with two of its three nodes label-constrained.
constexpr const char* kTriangleTwoLabels =
    "?A-?B; ?B-?C; ?C-?A; [?A.LABEL=0]; [?B.LABEL=1];";

// Drill-down windows are this many consecutive node ids.
constexpr NodeId kWindow = 50;

constexpr std::uint32_t kLabels = 4;

// Every run generates its graphs from this seed (see inputs.h).
constexpr std::uint64_t kGraphSeed = 1;

// Every graph has 10K nodes, which keeps a whole-graph census's working set
// near a core's 2 MiB L2. A shared host's slow phases hit memory-bound work
// hardest: in runs alternating the two sizes on a 4-vCPU VM, the per-run
// median of each full_census template spread 0.02-0.09 (IQR over median) on
// 10K nodes and 0.10-0.17 on 20K, and update_mix's p99 0.17 against 0.20.
constexpr std::uint32_t kNodes = 10000;
constexpr std::uint32_t kSmokeNodes = 2000;

/// `count` windows of `width` ids per template, the templates interleaved.
std::vector<QuerySpec> WindowPool(
    const std::vector<std::pair<const char*, const char*>>& templates,
    std::size_t count, NodeId width, NodeId n, Rng* rng) {
  std::vector<QuerySpec> pool;
  for (std::size_t w = 0; w < count; ++w) {
    auto lo = static_cast<NodeId>(rng->NextBounded(n - width + 1));
    for (const auto& [name, body] : templates) {
      pool.push_back({name, CountQuery(body, 1, lo, lo + width, n), lo,
                      lo + width});
    }
  }
  return pool;
}

/// The generated graph with its node ids shuffled and its labels dealt
/// round-robin down the degree ranking. Preferential attachment numbers
/// nodes by arrival, so an id window would otherwise be a band of hubs or of
/// leaves; and with uniform random labels, whichever labels the few hubs
/// draw swing labeled match counts (and PT-OPT's clustering cost) by up to
/// 2x from seed to seed.
Graph Relabel(const Graph& generated, Rng* rng) {
  const NodeId n = generated.NumNodes();
  std::vector<NodeId> new_id(n);
  std::iota(new_id.begin(), new_id.end(), NodeId{0});
  rng->Shuffle(&new_id);
  std::vector<NodeId> by_degree(n);
  std::iota(by_degree.begin(), by_degree.end(), NodeId{0});
  std::stable_sort(by_degree.begin(), by_degree.end(), [&](NodeId a, NodeId b) {
    return generated.Degree(a) > generated.Degree(b);
  });
  Graph graph;
  graph.AddNodes(n);
  for (std::size_t rank = 0; rank < n; ++rank) {
    Status labeled = graph.SetLabel(new_id[by_degree[rank]],
                                    static_cast<Label>(rank % kLabels));
    (void)labeled;  // ids are in range and the graph is not finalized
  }
  for (EdgeId e = 0; e < generated.NumEdges(); ++e) {
    auto [u, v] = generated.EdgeEndpoints(e);
    graph.AddEdge(new_id[u], new_id[v]);
  }
  Status finalized = graph.Finalize();
  (void)finalized;  // first Finalize of a well-formed graph
  return graph;
}

std::vector<GraphUpdate> MakeUpdates(const Graph& graph, std::size_t count,
                                     Rng* rng) {
  DynamicGraph replica(graph);
  std::vector<GraphUpdate> updates;
  std::vector<std::pair<NodeId, NodeId>> inserted;
  const NodeId n = graph.NumNodes();
  while (updates.size() < count) {
    GraphUpdate update;
    if (updates.size() % 2 == 0 || inserted.empty()) {
      auto u = static_cast<NodeId>(rng->NextBounded(n));
      auto v = static_cast<NodeId>(rng->NextBounded(n));
      if (u == v || replica.HasUndirectedEdge(u, v)) continue;
      update = GraphUpdate::AddEdge(u, v);
      inserted.emplace_back(u, v);
    } else {
      std::size_t pick = rng->NextBounded(inserted.size());
      auto [u, v] = inserted[pick];
      inserted[pick] = inserted.back();
      inserted.pop_back();
      update = GraphUpdate::RemoveEdge(u, v);
    }
    auto applied = replica.Apply(update);
    if (!applied.ok() || !*applied) continue;
    updates.push_back(update);
  }
  return updates;
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kEgoDrilldown: return "ego_drilldown";
    case Workload::kFullCensus: return "full_census";
    case Workload::kUpdateMix: return "update_mix";
  }
  return "?";
}

std::string CountQuery(const std::string& pattern_body, int k, NodeId lo,
                       NodeId hi, NodeId n, const std::string& suffix) {
  std::string text = "PATTERN p {" + pattern_body +
                     "} SELECT ID, COUNTP(p, SUBGRAPH(ID, " +
                     std::to_string(k) + ")) FROM nodes";
  if (lo > 0) {
    text += " WHERE ID >= " + std::to_string(lo) + " AND ID < " +
            std::to_string(hi);
  } else if (hi < n) {
    text += " WHERE ID < " + std::to_string(hi);
  }
  return text + suffix;
}

std::string UpdateText(const GraphUpdate& update) {
  const char* op = update.kind == GraphUpdate::Kind::kAddEdge ? "ae" : "re";
  return std::string(op) + " " + std::to_string(update.u) + " " +
         std::to_string(update.v) + "\n";
}

Result<Inputs> MakeInputs(Workload workload, std::uint64_t seed, bool smoke,
                          std::size_t num_updates,
                          const std::string& work_dir) {
  // Each workload draws from its own stream of each seed.
  const auto stream = static_cast<std::uint64_t>(workload);
  Rng graph_rng(kGraphSeed * 0x9e3779b97f4a7c15ull + stream);
  Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  GeneratorOptions gen;
  gen.num_nodes = smoke ? kSmokeNodes : kNodes;
  gen.edges_per_node = 5;
  gen.seed = graph_rng.Next();
  Inputs in;
  in.graph = Relabel(GeneratePreferentialAttachment(gen), &graph_rng);
  const NodeId n = in.graph.NumNodes();
  in.graph_path = work_dir + "/" + WorkloadName(workload) + ".graph";
  Status saved = SaveGraph(in.graph, in.graph_path);
  if (!saved.ok()) return saved;

  switch (workload) {
    case Workload::kEgoDrilldown:
      in.pool = WindowPool({{"label_k1", kLabel},
                            {"edge_lab_k1", kEdgeLabeled},
                            {"tri_lab_k1", kTriangleLabeled}},
                           smoke ? 4 : 22, kWindow, n, &rng);
      break;
    case Workload::kFullCensus:
      // In cost order: three k=1 templates of 10-16 ms, the k=2 2-path at
      // ~105 ms, then three of 165-320 ms. The median request is a k=2
      // 2-path, well apart from its neighbours and far above the daemon's
      // 5 ms disconnect-watcher tick, which rounds every latency up to a
      // multiple of it: a k=1 median (~30 ms on 20K nodes) jumped by whole
      // ticks from run to run. All but tri_2lab_k2 (PT-OPT) take the fast
      // path.
      in.threads = 4;
      in.pool = {
          {"tri_k1", CountQuery(kTriangle, 1, 0, n, n), 0, n},
          {"cyc4_k1", CountQuery(kCycle4, 1, 0, n, n), 0, n},
          {"clique4_k1", CountQuery(kClique4, 1, 0, n, n), 0, n},
          {"path2_k2", CountQuery(kPath2, 2, 0, n, n), 0, n},
          {"tri_2lab_k2", CountQuery(kTriangleTwoLabels, 2, 0, n, n), 0, n},
          {"tri_k2", CountQuery(kTriangle, 2, 0, n, n), 0, n},
          {"tri_top10_k2",
           CountQuery(kTriangle, 2, 0, n, n, " ORDER BY 2 DESC LIMIT 10"), 0,
           n},
      };
      break;
    case Workload::kUpdateMix:
      in.pool = WindowPool({{"tri_k1", kTriangle}, {"cyc4_k1", kCycle4}},
                           smoke ? 4 : 16, kWindow, n, &rng);
      break;
  }
  in.updates = MakeUpdates(in.graph, num_updates, &rng);
  return in;
}

}  // namespace ledger
