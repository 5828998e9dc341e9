// Tests for the paper's "future work" extensions (top-K census and
// sampling-based approximate census) and the extra workload generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "census/approx.h"
#include "census/census.h"
#include "census/topk.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

Graph TestPaGraph(std::uint32_t nodes, std::uint32_t labels,
                  std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = 4;
  gen.num_labels = labels;
  gen.seed = seed;
  return GeneratePreferentialAttachment(gen);
}

/// The censuses both extensions are checked on, each for k in {1, 2, 3}:
/// the triangle on the test's own graph (max_v = 1, so only the first
/// distant set is read), and on a small graph the 5-path (max_v = 2) and a
/// COUNTSP census of the 5-path's {A, C}.
struct PivotCase {
  const char* name;
  Graph graph;
  Pattern pattern;
  std::string subpattern;
};

std::vector<PivotCase> PivotCases(Graph triangle_graph) {
  GeneratorOptions gen;
  gen.num_nodes = 120;
  gen.edges_per_node = 2;
  gen.seed = 17;
  Graph small = GeneratePreferentialAttachment(gen);
  auto sub = ParsePattern(
      "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?E; SUBPATTERN s {?A; ?C;}}");
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  std::vector<PivotCase> cases;
  cases.push_back(
      {"triangle", std::move(triangle_graph), MakeTriangle(false), ""});
  cases.push_back({"path5", small, MakePath(5, false), ""});
  cases.push_back({"path5 COUNTSP", std::move(small), *sub, "s"});
  return cases;
}

// ---- Top-K census ----

TEST(TopKCensusTest, MatchesFullCensusRanking) {
  for (const PivotCase& c : PivotCases(TestPaGraph(300, 1, 5))) {
    auto focal = AllNodes(c.graph);
    for (std::uint32_t k : {1u, 2u, 3u}) {
      SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k));
      // The reference is the ND-BAS baseline, which shares no pivot code.
      CensusOptions full_opts;
      full_opts.algorithm = CensusAlgorithm::kNdBas;
      full_opts.k = k;
      full_opts.subpattern = c.subpattern;
      auto full = RunCensus(c.graph, c.pattern, focal, full_opts);
      ASSERT_TRUE(full.ok());

      // Reference ranking from the full census.
      std::vector<std::pair<std::uint64_t, NodeId>> reference;
      for (NodeId n = 0; n < c.graph.NumNodes(); ++n) {
        reference.emplace_back(full->counts[n], n);
      }
      std::sort(reference.begin(), reference.end(),
                [](const auto& a, const auto& b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
                });

      for (bool gql : {false, true}) {
        SCOPED_TRACE(gql ? "gql" : "cn");
        TopKOptions topk_opts;
        topk_opts.k = k;
        topk_opts.top_k = 10;
        topk_opts.subpattern = c.subpattern;
        topk_opts.use_gql_matcher = gql;
        auto topk = RunTopKCensus(c.graph, c.pattern, focal, topk_opts);
        ASSERT_TRUE(topk.ok()) << topk.status().ToString();
        ASSERT_EQ(topk->top.size(), 10u);
        for (std::size_t i = 0; i < 10; ++i) {
          EXPECT_EQ(topk->top[i].first, reference[i].second) << "rank " << i;
          EXPECT_EQ(topk->top[i].second, reference[i].first) << "rank " << i;
        }
      }
    }
  }
}

TEST(TopKCensusTest, PrunesExactEvaluations) {
  Graph g = TestPaGraph(2000, 1, 6);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  TopKOptions opts;
  opts.k = 2;
  opts.top_k = 10;
  auto topk = RunTopKCensus(g, tri, focal, opts);
  ASSERT_TRUE(topk.ok());
  // The bound ordering must prune the vast majority of exact evaluations on
  // a skewed graph.
  EXPECT_LT(topk->exact_evaluations, focal.size() / 2);
}

TEST(TopKCensusTest, TopKLargerThanFocal) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  TopKOptions opts;
  opts.k = 1;
  opts.top_k = 100;
  auto topk = RunTopKCensus(g, tri, focal, opts);
  ASSERT_TRUE(topk.ok());
  EXPECT_EQ(topk->top.size(), 4u);
  // Sorted by count descending.
  for (std::size_t i = 1; i < topk->top.size(); ++i) {
    EXPECT_GE(topk->top[i - 1].second, topk->top[i].second);
  }
}

TEST(TopKCensusTest, SubpatternSupported) {
  Pattern triad = MakeCoordinatorTriad();
  Graph g(true);
  g.AddNodes(5);
  for (NodeId n = 0; n < 5; ++n) CheckOk(g.SetLabel(n, 1), "test fixture setup");
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  CheckOk(g.Finalize(), "test fixture setup");
  auto focal = AllNodes(g);
  TopKOptions opts;
  opts.k = 0;
  opts.top_k = 1;
  opts.subpattern = "coordinator";
  auto topk = RunTopKCensus(g, triad, focal, opts);
  ASSERT_TRUE(topk.ok());
  ASSERT_EQ(topk->top.size(), 1u);
  EXPECT_EQ(topk->top[0].first, 1u);
  EXPECT_EQ(topk->top[0].second, 2u);
}

TEST(TopKCensusTest, FocalSubsetRespected) {
  Graph g = TestPaGraph(200, 1, 7);
  Pattern tri = MakeTriangle(false);
  std::vector<NodeId> focal;
  for (NodeId n = 100; n < 200; ++n) focal.push_back(n);
  TopKOptions opts;
  opts.k = 2;
  opts.top_k = 5;
  auto topk = RunTopKCensus(g, tri, focal, opts);
  ASSERT_TRUE(topk.ok());
  for (const auto& [node, count] : topk->top) {
    EXPECT_GE(node, 100u);
  }
}

TEST(TopKCensusTest, Errors) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Pattern tri = MakeTriangle(false);
  Pattern unprepared;
  unprepared.AddNode("A");
  auto focal = AllNodes(g);
  EXPECT_FALSE(RunTopKCensus(g, unprepared, focal, TopKOptions()).ok());
  TopKOptions bad_sub;
  bad_sub.subpattern = "nope";
  EXPECT_FALSE(RunTopKCensus(g, tri, focal, bad_sub).ok());
}

// ---- Approximate census ----

TEST(ApproximateCensusTest, FullRateIsExact) {
  for (const PivotCase& c : PivotCases(TestPaGraph(300, 1, 8))) {
    auto focal = AllNodes(c.graph);
    for (bool gql : {false, true}) {
      for (std::uint32_t k : {1u, 2u, 3u}) {
        SCOPED_TRACE(std::string(c.name) + " k=" + std::to_string(k) +
                     (gql ? " gql" : " cn"));
        // The ND-PVOT engine itself (not the fast path), for its counters.
        CensusOptions exact_opts;
        exact_opts.algorithm = CensusAlgorithm::kNdPvot;
        exact_opts.fast_path = FastPathMode::kOff;
        exact_opts.k = k;
        exact_opts.subpattern = c.subpattern;
        exact_opts.use_gql_matcher = gql;
        auto exact = RunCensus(c.graph, c.pattern, focal, exact_opts);
        ASSERT_TRUE(exact.ok());

        ApproximateCensusOptions approx_opts;
        approx_opts.k = k;
        approx_opts.subpattern = c.subpattern;
        approx_opts.use_gql_matcher = gql;
        approx_opts.sample_rate = 1.0;
        auto approx = RunApproximateCensus(c.graph, c.pattern, focal,
                                           approx_opts);
        ASSERT_TRUE(approx.ok());
        EXPECT_EQ(approx->sampled_matches, approx->stats.num_matches);
        for (NodeId n = 0; n < c.graph.NumNodes(); ++n) {
          EXPECT_DOUBLE_EQ(approx->estimates[n],
                           static_cast<double>(exact->counts[n]));
        }
        // Same matches and same balls as 1-thread ND-PVOT: the same work.
        EXPECT_EQ(approx->stats.nodes_expanded, exact->stats.nodes_expanded);
        EXPECT_EQ(approx->stats.containment_checks,
                  exact->stats.containment_checks);
      }
    }
  }
}

TEST(ApproximateCensusTest, EstimatesCloseOnLargeCounts) {
  Graph g = TestPaGraph(1500, 1, 9);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  CensusOptions exact_opts;
  exact_opts.algorithm = CensusAlgorithm::kNdPvot;
  exact_opts.k = 2;
  auto exact = RunCensus(g, tri, focal, exact_opts);
  ASSERT_TRUE(exact.ok());

  ApproximateCensusOptions approx_opts;
  approx_opts.k = 2;
  approx_opts.sample_rate = 0.5;
  approx_opts.seed = 3;
  auto approx = RunApproximateCensus(g, tri, focal, approx_opts);
  ASSERT_TRUE(approx.ok());
  EXPECT_GT(approx->sampled_matches, 0u);
  EXPECT_LT(approx->sampled_matches, approx->stats.num_matches);

  // Relative error on large counts should be modest (std err ~ sqrt(1/(p n))).
  double worst = 0;
  int checked = 0;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (exact->counts[n] < 200) continue;
    ++checked;
    double rel = std::abs(approx->estimates[n] -
                          static_cast<double>(exact->counts[n])) /
                 static_cast<double>(exact->counts[n]);
    worst = std::max(worst, rel);
  }
  ASSERT_GT(checked, 0);
  EXPECT_LT(worst, 0.30);
}

TEST(ApproximateCensusTest, UnbiasedAcrossSeeds) {
  Graph g = TestPaGraph(400, 1, 10);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  CensusOptions exact_opts;
  exact_opts.algorithm = CensusAlgorithm::kNdPvot;
  exact_opts.k = 1;
  auto exact = RunCensus(g, tri, focal, exact_opts);
  ASSERT_TRUE(exact.ok());
  NodeId probe = 0;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    if (exact->counts[n] > exact->counts[probe]) probe = n;
  }
  ASSERT_GT(exact->counts[probe], 10u);

  double sum = 0;
  const int trials = 24;
  for (int seed = 0; seed < trials; ++seed) {
    ApproximateCensusOptions opts;
    opts.k = 1;
    opts.sample_rate = 0.3;
    opts.seed = 1000 + seed;
    auto approx = RunApproximateCensus(g, tri, focal, opts);
    ASSERT_TRUE(approx.ok());
    sum += approx->estimates[probe];
  }
  double mean = sum / trials;
  double truth = static_cast<double>(exact->counts[probe]);
  EXPECT_NEAR(mean, truth, truth * 0.25);
}

TEST(ApproximateCensusTest, InvalidRateRejected) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  ApproximateCensusOptions opts;
  opts.sample_rate = 0.0;
  EXPECT_FALSE(RunApproximateCensus(g, tri, focal, opts).ok());
  opts.sample_rate = 1.5;
  EXPECT_FALSE(RunApproximateCensus(g, tri, focal, opts).ok());
}

// ---- Extra generators ----

TEST(WattsStrogatzTest, RingWithoutRewiring) {
  Graph g = GenerateWattsStrogatz(20, 2, 0.0, 1, 1);
  EXPECT_EQ(g.NumNodes(), 20u);
  EXPECT_EQ(g.NumEdges(), 40u);  // n * k_each_side
  // Pure ring lattice: node 0 adjacent to 1, 2, 18, 19.
  EXPECT_TRUE(g.HasUndirectedEdge(0, 1));
  EXPECT_TRUE(g.HasUndirectedEdge(0, 2));
  EXPECT_TRUE(g.HasUndirectedEdge(0, 18));
  EXPECT_TRUE(g.HasUndirectedEdge(0, 19));
  EXPECT_FALSE(g.HasUndirectedEdge(0, 10));
}

TEST(WattsStrogatzTest, RewiringShrinksDiameterKeepsEdges) {
  Graph ring = GenerateWattsStrogatz(500, 3, 0.0, 1, 2);
  Graph small_world = GenerateWattsStrogatz(500, 3, 0.2, 1, 2);
  // Edge counts comparable (rewiring can drop a few on conflicts).
  EXPECT_GT(small_world.NumEdges(), ring.NumEdges() * 9 / 10);
  BfsWorkspace bfs;
  bfs.Run(ring, 0, 100000);
  std::uint32_t ring_ecc = 0;
  for (NodeId n : bfs.visited()) {
    ring_ecc = std::max(ring_ecc, bfs.DistanceTo(n));
  }
  bfs.Run(small_world, 0, 100000);
  std::uint32_t sw_ecc = 0;
  for (NodeId n : bfs.visited()) {
    sw_ecc = std::max(sw_ecc, bfs.DistanceTo(n));
  }
  EXPECT_LT(sw_ecc, ring_ecc / 2);  // the small-world effect
}

TEST(WattsStrogatzTest, Deterministic) {
  Graph a = GenerateWattsStrogatz(100, 2, 0.3, 2, 7);
  Graph b = GenerateWattsStrogatz(100, 2, 0.3, 2, 7);
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (EdgeId e = 0; e < a.NumEdges(); ++e) {
    EXPECT_EQ(a.EdgeEndpoints(e), b.EdgeEndpoints(e));
  }
}

TEST(RmatTest, SizesAndSkew) {
  Graph g = GenerateRmat(12, 20000, 0.45, 0.22, 0.22, 1, 3);
  EXPECT_EQ(g.NumNodes(), 4096u);
  EXPECT_GT(g.NumEdges(), 18000u);  // a few rejections allowed
  std::uint32_t max_degree = 0;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    max_degree = std::max(max_degree, g.Degree(n));
  }
  // Corner-heavy R-MAT produces strong degree skew.
  EXPECT_GT(max_degree, 60u);
}

TEST(RmatTest, NoDuplicatesOrSelfLoops) {
  Graph g = GenerateRmat(8, 800, 0.45, 0.22, 0.22, 2, 4);
  std::set<std::pair<NodeId, NodeId>> seen;
  for (EdgeId e = 0; e < g.NumEdges(); ++e) {
    auto [u, v] = g.EdgeEndpoints(e);
    EXPECT_NE(u, v);
    auto key = std::minmax(u, v);
    EXPECT_TRUE(seen.emplace(key.first, key.second).second);
  }
}

TEST(ExtraGeneratorsTest, CensusEnginesAgreeOnNewWorkloads) {
  // Integration: the cross-engine agreement property must hold on the
  // small-world and R-MAT workloads too.
  std::vector<Graph> graphs;
  graphs.push_back(GenerateWattsStrogatz(150, 3, 0.2, 1, 11));
  graphs.push_back(GenerateRmat(8, 700, 0.45, 0.22, 0.22, 1, 12));
  Pattern tri = MakeTriangle(false);
  for (const Graph& g : graphs) {
    auto focal = AllNodes(g);
    CensusOptions base;
    base.k = 2;
    base.algorithm = CensusAlgorithm::kNdBas;
    auto reference = RunCensus(g, tri, focal, base);
    ASSERT_TRUE(reference.ok());
    for (auto algorithm :
         {CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
          CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt}) {
      CensusOptions opts = base;
      opts.algorithm = algorithm;
      auto counts = RunCensus(g, tri, focal, opts);
      ASSERT_TRUE(counts.ok());
      EXPECT_EQ(counts->counts, reference->counts)
          << CensusAlgorithmName(algorithm);
    }
  }
}

}  // namespace
}  // namespace egocensus
