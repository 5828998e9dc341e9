// Fast-path kernels vs the generic engines (docs/FAST_PATH.md): for every
// connected <= 4-node shape — induced and non-induced — the combinatorial
// counts must be bit-identical to ND-BAS on randomized ER and power-law
// graphs, at k=1 and k=2 over every node and at k=0-3 over partial focal
// sets (whose triangles are listed over their region only), at 1/2/8
// threads, and under governor interrupts (the kComplete prefix of a
// cancelled run stays bit-identical). Also the routing contract itself:
// what kForce rejects, and what kAuto falls back from.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "census/census.h"
#include "exec/failpoints.h"
#include "exec/governor.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "pattern/shape.h"
#include "tests/test_util.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

struct ShapeCase {
  const char* label;
  const char* text;
  ShapeId id;
  bool induced;
};

/// Every connected shape on <= 4 nodes, as parser text. Induced variants
/// carry the exact complement as negated edges; complete skeletons
/// (edge, triangle, clique4) have no distinct induced variant.
const std::vector<ShapeCase>& AllShapes() {
  static const std::vector<ShapeCase> kCases = {
      {"singleton", "PATTERN p {?A;}", ShapeId::kSingleton, false},
      {"edge", "PATTERN p {?A-?B;}", ShapeId::kEdge, false},
      {"wedge", "PATTERN p {?A-?B; ?B-?C;}", ShapeId::kWedge, false},
      {"wedge_i", "PATTERN p {?A-?B; ?B-?C; ?A!-?C;}", ShapeId::kWedge, true},
      {"triangle", "PATTERN p {?A-?B; ?B-?C; ?C-?A;}", ShapeId::kTriangle,
       false},
      {"path4", "PATTERN p {?A-?B; ?B-?C; ?C-?D;}", ShapeId::kPath4, false},
      {"path4_i",
       "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?A!-?C; ?A!-?D; ?B!-?D;}",
       ShapeId::kPath4, true},
      {"claw", "PATTERN p {?A-?B; ?A-?C; ?A-?D;}", ShapeId::kClaw, false},
      {"claw_i", "PATTERN p {?A-?B; ?A-?C; ?A-?D; ?B!-?C; ?B!-?D; ?C!-?D;}",
       ShapeId::kClaw, true},
      {"paw", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?A-?D;}", ShapeId::kPaw,
       false},
      {"paw_i", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?A-?D; ?B!-?D; ?C!-?D;}",
       ShapeId::kPaw, true},
      {"cycle4", "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?A;}", ShapeId::kCycle4,
       false},
      {"cycle4_i", "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?A; ?A!-?C; ?B!-?D;}",
       ShapeId::kCycle4, true},
      {"diamond", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D;}",
       ShapeId::kDiamond, false},
      {"diamond_i", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D; ?A!-?D;}",
       ShapeId::kDiamond, true},
      {"clique4",
       "PATTERN p {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;}",
       ShapeId::kClique4, false},
  };
  return kCases;
}

Pattern Parse(const char* text) {
  auto p = ParsePattern(text);
  CheckOk(p.status(), "shape-case pattern");
  return std::move(*p);
}

std::vector<Graph> TestGraphs() {
  std::vector<Graph> graphs;
  graphs.push_back(GenerateErdosRenyi(90, 400, 1, 1301));
  GeneratorOptions pa;
  pa.num_nodes = 110;
  pa.edges_per_node = 4;
  pa.seed = 1302;
  graphs.push_back(GeneratePreferentialAttachment(pa));
  return graphs;
}

std::vector<std::uint64_t> GenericCounts(const Graph& g, const Pattern& p,
                                         std::span<const NodeId> focal,
                                         std::uint32_t k) {
  CensusOptions opts;
  opts.fast_path = FastPathMode::kOff;
  opts.algorithm = CensusAlgorithm::kNdBas;
  opts.k = k;
  auto r = RunCensus(g, p, focal, opts);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r->stats.fastpath_routed, 0u);
  return r->counts;
}

TEST(FastPathPropertyTest, ShapesClassify) {
  for (const ShapeCase& c : AllShapes()) {
    Pattern p = Parse(c.text);
    PatternShape shape = AnalyzeShape(p);
    EXPECT_TRUE(shape.eligible()) << c.label << ": " << shape.reject_reason;
    EXPECT_EQ(shape.id, c.id) << c.label;
    EXPECT_EQ(shape.induced, c.induced) << c.label;
  }
}

TEST(FastPathPropertyTest, BitIdenticalToGenericAcrossShapesAndThreads) {
  for (const Graph& g : TestGraphs()) {
    auto focal = AllNodes(g);
    for (const ShapeCase& c : AllShapes()) {
      Pattern p = Parse(c.text);
      for (std::uint32_t k : {1u, 2u}) {
        auto reference = GenericCounts(g, p, focal, k);
        for (std::uint32_t threads : {1u, 2u, 8u}) {
          CensusOptions opts;
          opts.fast_path = FastPathMode::kForce;
          opts.k = k;
          opts.num_threads = threads;
          auto r = RunCensus(g, p, focal, opts);
          ASSERT_TRUE(r.ok()) << c.label;
          EXPECT_EQ(r->stats.fastpath_routed, 1u);
          ASSERT_EQ(r->counts, reference)
              << c.label << " k=" << k << " threads=" << threads;
        }
      }
    }
  }
}

/// A hub-heavy PA graph (two edges per new node) with a triangle appended
/// as its own 3-node component.
Graph HubGraphWithTriangleComponent() {
  GeneratorOptions pa;
  pa.num_nodes = 160;
  pa.edges_per_node = 2;
  pa.seed = 1305;
  const Graph base = GeneratePreferentialAttachment(pa);
  const NodeId n = base.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> edges = {
      {n, n + 1}, {n + 1, n + 2}, {n + 2, n}};
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : base.Neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return MakeGraph(n + 3, edges);
}

/// Focal sets that cover only part of the graph, so that a triangle region
/// missing part of some ball would show: a 50-id window, a scattered 5%
/// sample, a single node, nodes whose k-balls are pairwise disjoint, and
/// the first node of the 3-node component (the graph's last three ids).
std::vector<std::pair<std::string, std::vector<NodeId>>> PartialFocalSets(
    const Graph& g, std::uint32_t k) {
  std::vector<std::pair<std::string, std::vector<NodeId>>> sets;
  std::vector<NodeId> window;
  for (NodeId n = 40; n < 90; ++n) window.push_back(n);
  sets.emplace_back("window", window);
  std::vector<NodeId> sample;
  for (NodeId n = 3; n < g.NumNodes(); n += 20) sample.push_back(n);
  sets.emplace_back("sample", sample);
  sets.emplace_back("single", std::vector<NodeId>{7});
  std::vector<NodeId> disjoint;
  std::vector<char> covered(g.NumNodes(), 0);
  BfsWorkspace bfs;
  for (NodeId n = g.NumNodes(); n-- > 0;) {  // leaves first: small balls
    const std::vector<NodeId>& ball = bfs.Run(g, n, k);
    bool free = true;
    for (NodeId m : ball) free = free && covered[m] == 0;
    if (!free) continue;
    for (NodeId m : ball) covered[m] = 1;
    disjoint.push_back(n);
  }
  std::sort(disjoint.begin(), disjoint.end());
  sets.emplace_back("disjoint", disjoint);
  sets.emplace_back("component", std::vector<NodeId>{g.NumNodes() - 3});
  return sets;
}

TEST(FastPathPropertyTest, PartialFocalSetsMatchNdBas) {
  const Graph g = HubGraphWithTriangleComponent();
  BfsWorkspace bfs;
  for (std::uint32_t k : {0u, 1u, 2u, 3u}) {
    for (const auto& [name, focal] : PartialFocalSets(g, k)) {
      std::uint64_t ball_sum = 0;
      for (NodeId n : focal) ball_sum += bfs.Run(g, n, k).size();
      for (const ShapeCase& c : AllShapes()) {
        SCOPED_TRACE(std::string(c.label) + " k=" + std::to_string(k) +
                     " focal=" + name);
        Pattern p = Parse(c.text);
        CensusOptions generic;
        generic.fast_path = FastPathMode::kOff;
        generic.algorithm = CensusAlgorithm::kNdBas;
        generic.k = k;
        auto reference = RunCensus(g, p, focal, generic);
        ASSERT_TRUE(reference.ok());
        for (std::uint32_t threads : {1u, 2u, 8u}) {
          CensusOptions opts;
          opts.fast_path = FastPathMode::kForce;
          opts.k = k;
          opts.num_threads = threads;
          auto r = RunCensus(g, p, focal, opts);
          ASSERT_TRUE(r.ok());
          ASSERT_EQ(r->counts, reference->counts) << "threads=" << threads;
          EXPECT_EQ(r->focal_state, reference->focal_state);
          EXPECT_EQ(r->stats.nodes_expanded, ball_sum);
          EXPECT_EQ(r->stats.containment_checks, 0u);
          EXPECT_EQ(r->stats.num_matches, 0u);
        }
      }
    }
  }
}

/// The triangle listing charges its footprint before any count: under a
/// budget that the counting alone fits (a BFS-only edge census completes
/// under it), the triangle census stops in the listing with every focal
/// node pending.
TEST(FastPathPropertyTest, TriangleListingOverBudgetLeavesEveryFocalPending) {
  GeneratorOptions pa;
  pa.num_nodes = 400;
  pa.edges_per_node = 3;
  pa.seed = 1306;
  const Graph g = GeneratePreferentialAttachment(pa);
  const auto focal = AllNodes(g);
  CensusOptions opts;
  opts.fast_path = FastPathMode::kForce;
  opts.k = 2;
  std::uint64_t counting_bytes = 0;
  {
    Governor unlimited;
    opts.governor = &unlimited;
    auto edges = RunCensus(g, MakeSingleEdge(), focal, opts);
    ASSERT_TRUE(edges.ok());
    ASSERT_TRUE(edges->complete());
    counting_bytes = unlimited.memory_charged_bytes();
  }
  ASSERT_GT(counting_bytes, 0u);
  {
    Governor budget;
    budget.SetMemoryLimitBytes(counting_bytes);
    opts.governor = &budget;
    auto edges = RunCensus(g, MakeSingleEdge(), focal, opts);
    ASSERT_TRUE(edges.ok());
    EXPECT_TRUE(edges->exec_status.ok());
  }
  Governor budget;
  budget.SetMemoryLimitBytes(counting_bytes);
  opts.governor = &budget;
  auto r = RunCensus(g, MakeTriangle(false), focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(r->stats.nodes_expanded, 0u);  // no ball was counted
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->focal_state[n], FocalState::kPending);
    EXPECT_EQ(r->counts[n], 0u);
  }
}

TEST(FastPathPropertyTest, ExpiredDeadlineLeavesEveryFocalPending) {
  Graph g = GenerateErdosRenyi(80, 320, 1, 1303);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  gov.SetDeadline(Deadline::AtMicros(1));  // long past
  CensusOptions opts;
  opts.fast_path = FastPathMode::kForce;
  opts.k = 1;
  opts.governor = &gov;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kDeadlineExceeded);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->focal_state[n], FocalState::kPending);
    EXPECT_EQ(r->counts[n], 0u);
  }
}

/// The governance contract of nd_bas, for the fast path: cancel at every
/// (strided) per-focal checkpoint; completed focals must stay bit-identical
/// to the uninterrupted run, pending ones untouched.
TEST(FastPathPropertyTest, CancelAtEveryCheckpointSweep) {
  Graph g = GenerateErdosRenyi(80, 320, 1, 1304);
  auto focal = AllNodes(g);
  // One shape per kernel: the local CSR, the region's triangles, and ball
  // degrees with the triangles (the induced wedge).
  for (const char* text :
       {"PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D;}",
        "PATTERN p {?A-?B; ?B-?C; ?C-?A;}",
        "PATTERN p {?A-?B; ?B-?C; ?A!-?C;}"}) {
    Pattern pattern = Parse(text);
    for (std::uint32_t threads : {1u, 8u}) {
      CensusOptions opts;
      opts.fast_path = FastPathMode::kForce;
      opts.k = 2;
      opts.num_threads = threads;
      auto baseline = RunCensus(g, pattern, focal, opts);
      ASSERT_TRUE(baseline.ok());
      ASSERT_TRUE(baseline->complete());

      failpoints::Arm("census/focal", 0, nullptr);
      {
        Governor gov;
        CensusOptions governed = opts;
        governed.governor = &gov;
        ASSERT_TRUE(RunCensus(g, pattern, focal, governed).ok());
      }
      const std::uint64_t hits = failpoints::Hits("census/focal");
      failpoints::DisarmAll();
      ASSERT_GT(hits, 0u);

      const std::uint64_t stride = std::max<std::uint64_t>(1, hits / 16);
      for (std::uint64_t i = 1; i <= hits; i += stride) {
        SCOPED_TRACE("threads=" + std::to_string(threads) + " cancel@" +
                     std::to_string(i) + "/" + std::to_string(hits));
        Governor gov;
        failpoints::Arm("census/focal", i, [&gov] { gov.RequestCancel(); });
        CensusOptions governed = opts;
        governed.governor = &gov;
        auto r = RunCensus(g, pattern, focal, governed);
        failpoints::DisarmAll();
        ASSERT_TRUE(r.ok());
        EXPECT_EQ(r->exec_status.code(), StatusCode::kCancelled);
        for (NodeId n = 0; n < g.NumNodes(); ++n) {
          if (r->focal_state[n] == FocalState::kComplete) {
            EXPECT_EQ(r->counts[n], baseline->counts[n]) << n;
          } else {
            EXPECT_EQ(r->focal_state[n], FocalState::kPending) << n;
            EXPECT_EQ(r->counts[n], 0u) << n;
          }
        }
      }
    }
  }
}

TEST(FastPathPropertyTest, ForceRejectsIneligibleCensuses) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}}, {0, 1, 2, 0});
  auto focal = AllNodes(g);
  CensusOptions force;
  force.fast_path = FastPathMode::kForce;

  // Labeled pattern.
  EXPECT_EQ(RunCensus(g, MakeTriangle(true), focal, force).status().code(),
            StatusCode::kInvalidArgument);
  // Five-node pattern.
  EXPECT_EQ(RunCensus(g, MakePath(5, false), focal, force).status().code(),
            StatusCode::kInvalidArgument);
  // Partial negation: not the exact complement of the skeleton.
  Pattern partial = Parse("PATTERN p {?A-?B; ?B-?C; ?C-?D; ?A!-?C;}");
  EXPECT_EQ(RunCensus(g, partial, focal, force).status().code(),
            StatusCode::kInvalidArgument);
  // Explicit GQL matcher.
  CensusOptions gql = force;
  gql.use_gql_matcher = true;
  EXPECT_EQ(RunCensus(g, MakeTriangle(false), focal, gql).status().code(),
            StatusCode::kInvalidArgument);
  // Directed pattern on a directed graph.
  Graph dg = MakeGraph(3, {{0, 1}, {1, 2}}, {}, /*directed=*/true);
  Pattern directed = Parse("PATTERN p {?A->?B;}");
  EXPECT_EQ(
      RunCensus(dg, directed, AllNodes(dg), force).status().code(),
      StatusCode::kInvalidArgument);
  // Parallel edges in the graph.
  Graph multi = MakeGraph(3, {{0, 1}, {0, 1}, {1, 2}});
  EXPECT_EQ(
      RunCensus(multi, MakeTriangle(false), AllNodes(multi), force)
          .status()
          .code(),
      StatusCode::kInvalidArgument);
}

TEST(FastPathPropertyTest, AutoFallsBackOnParallelEdges) {
  // A multigraph breaks the closed-form identities, so kAuto must route to
  // the generic engine — and agree with an explicit kOff run.
  Graph multi = MakeGraph(
      5, {{0, 1}, {0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {4, 2}});
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(multi);
  CensusOptions automatic;
  automatic.k = 1;
  auto routed = RunCensus(multi, tri, focal, automatic);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->stats.fastpath_routed, 0u);
  EXPECT_EQ(routed->counts, GenericCounts(multi, tri, focal, 1));
}

TEST(FastPathPropertyTest, AutoRoutesEligibleCensus) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  auto focal = AllNodes(g);
  CensusOptions automatic;
  automatic.k = 1;
  auto r = RunCensus(g, MakeTriangle(false), focal, automatic);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->stats.fastpath_routed, 1u);
  EXPECT_EQ(r->stats.num_matches, 0u);  // no matcher ran
}

}  // namespace
}  // namespace egocensus
