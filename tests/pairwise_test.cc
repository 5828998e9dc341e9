#include "census/pairwise.h"

#include <gtest/gtest.h>

#include "graph/distance_index.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

TEST(PackPairTest, CanonicalOrder) {
  EXPECT_EQ(PackPair(3, 7), PackPair(7, 3));
  auto [a, b] = UnpackPair(PackPair(7, 3));
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 7u);
}

TEST(PairwiseTest, IntersectionOnPath) {
  // Path 0-1-2; single node pattern, k=1: the intersection of N_1(0) and
  // N_1(2) is {1} -> count 1 for the pair (0,2).
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Pattern node = MakeSingleNode();
  PairwiseCensusOptions opts;
  opts.k = 1;
  opts.neighborhood = PairNeighborhood::kIntersection;
  auto counts = RunPairwisePtOpt(g, node, opts);
  ASSERT_TRUE(counts.ok());
  auto it = counts->find(PackPair(0, 2));
  ASSERT_NE(it, counts->end());
  EXPECT_EQ(it->second, 1u);
  // Pair (0,1): intersection {0,1} -> 2 common nodes.
  EXPECT_EQ(counts->at(PackPair(0, 1)), 2u);
}

TEST(PairwiseTest, PtOptEqualsPtBas) {
  GeneratorOptions gopts;
  gopts.num_nodes = 60;
  gopts.edges_per_node = 2;
  gopts.seed = 41;
  Graph g = GeneratePreferentialAttachment(gopts);
  for (auto neighborhood :
       {PairNeighborhood::kIntersection, PairNeighborhood::kUnion}) {
    for (std::uint32_t k : {1u, 2u}) {
      Pattern edge = MakeSingleEdge();
      PairwiseCensusOptions opts;
      opts.k = k;
      opts.neighborhood = neighborhood;
      auto opt = RunPairwisePtOpt(g, edge, opts);
      auto bas = RunPairwisePtBas(g, edge, opts);
      ASSERT_TRUE(opt.ok());
      ASSERT_TRUE(bas.ok());
      EXPECT_EQ(*opt, *bas) << "k=" << k;
    }
  }
}

TEST(PairwiseTest, NdBasAgreesOnIntersection) {
  GeneratorOptions gopts;
  gopts.num_nodes = 50;
  gopts.edges_per_node = 2;
  gopts.seed = 43;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern tri = MakeTriangle(false);
  PairwiseCensusOptions opts;
  opts.k = 1;
  opts.neighborhood = PairNeighborhood::kIntersection;
  auto pt = RunPairwisePtOpt(g, tri, opts);
  ASSERT_TRUE(pt.ok());

  // Validate every nonzero pair, plus some zero pairs.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (const auto& [key, count] : *pt) pairs.push_back(UnpackPair(key));
  pairs.emplace_back(0, 1);
  pairs.emplace_back(10, 20);
  auto nd = RunPairwiseNdBas(g, tri, pairs, opts);
  ASSERT_TRUE(nd.ok());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::uint64_t key = PackPair(pairs[i].first, pairs[i].second);
    auto it = pt->find(key);
    std::uint64_t pt_count = it == pt->end() ? 0 : it->second;
    EXPECT_EQ((*nd)[i], pt_count)
        << "pair (" << pairs[i].first << "," << pairs[i].second << ")";
  }
}

TEST(PairwiseTest, NdPvotAgreesWithNdBas) {
  GeneratorOptions gopts;
  gopts.num_nodes = 60;
  gopts.edges_per_node = 2;
  gopts.seed = 47;
  Graph g = GeneratePreferentialAttachment(gopts);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId a = 0; a < 20; ++a) {
    pairs.emplace_back(a, (a + 7) % g.NumNodes());
  }
  // The single edge has max_v = 1, so only the first distant set is read;
  // the 5-path and a COUNTSP census of its {A, C} have max_v = 2.
  auto sub = ParsePattern(
      "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?E; SUBPATTERN s {?A; ?C;}}");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  const struct {
    const char* name;
    Pattern pattern;
    std::string subpattern;
  } cases[] = {{"edge", MakeSingleEdge(), ""},
               {"path5", MakePath(5, false), ""},
               {"path5 COUNTSP", *sub, "s"}};
  for (const auto& c : cases) {
    for (auto neighborhood :
         {PairNeighborhood::kIntersection, PairNeighborhood::kUnion}) {
      for (std::uint32_t k : {1u, 2u, 3u}) {
        for (bool gql : {false, true}) {
          PairwiseCensusOptions opts;
          opts.k = k;
          opts.neighborhood = neighborhood;
          opts.subpattern = c.subpattern;
          opts.use_gql_matcher = gql;
          auto bas = RunPairwiseNdBas(g, c.pattern, pairs, opts);
          auto pvot = RunPairwiseNdPvot(g, c.pattern, pairs, opts);
          ASSERT_TRUE(bas.ok());
          ASSERT_TRUE(pvot.ok());
          EXPECT_EQ(*bas, *pvot)
              << c.name << " k=" << k << (gql ? " gql" : " cn");
        }
      }
    }
  }
}

TEST(PairwiseTest, UnionCountsAtLeastIntersection) {
  GeneratorOptions gopts;
  gopts.num_nodes = 40;
  gopts.edges_per_node = 2;
  gopts.seed = 51;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern edge = MakeSingleEdge();
  PairwiseCensusOptions inter_opts;
  inter_opts.k = 1;
  inter_opts.neighborhood = PairNeighborhood::kIntersection;
  PairwiseCensusOptions union_opts = inter_opts;
  union_opts.neighborhood = PairNeighborhood::kUnion;
  auto inter = RunPairwisePtOpt(g, edge, inter_opts);
  auto uni = RunPairwisePtOpt(g, edge, union_opts);
  ASSERT_TRUE(inter.ok());
  ASSERT_TRUE(uni.ok());
  for (const auto& [key, count] : *inter) {
    auto it = uni->find(key);
    ASSERT_NE(it, uni->end());
    EXPECT_GE(it->second, count);
  }
}

TEST(PairwiseTest, UnionSemanticsAgainstBruteForce) {
  // ND-BAS union counts (subgraph materialization) against hand check on a
  // small graph: path 0-1-2-3; edge pattern with k=1 and pair (0, 3):
  // union node set {0,1} U {2,3} = all four nodes, and the union
  // neighborhood is the *induced* subgraph on that set (the semantics the
  // pattern-driven algorithm implements), so all three path edges count.
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  Pattern edge = MakeSingleEdge();
  std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 3}, {0, 2}};
  PairwiseCensusOptions opts;
  opts.k = 1;
  opts.neighborhood = PairNeighborhood::kUnion;
  auto counts = RunPairwiseNdBas(g, edge, pairs, opts);
  ASSERT_TRUE(counts.ok());
  EXPECT_EQ((*counts)[0], 3u);
  // Pair (0,2): N_1(0)={0,1}, N_1(2)={1,2,3}; union {0,1,2,3}: 3 edges.
  EXPECT_EQ((*counts)[1], 3u);
}

TEST(PairwiseTest, SubpatternPairwise) {
  // Wedge with mid subpattern: a pair's intersection neighborhood contains
  // the wedge's center.
  auto wedge =
      ParsePattern("PATTERN wedge {?A-?B; ?B-?C; SUBPATTERN mid {?B;}}");
  ASSERT_TRUE(wedge.ok());
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {1, 3}});  // star centered at 1
  PairwiseCensusOptions opts;
  opts.k = 1;
  opts.subpattern = "mid";
  opts.neighborhood = PairNeighborhood::kIntersection;
  auto pt = RunPairwisePtOpt(g, *wedge, opts);
  ASSERT_TRUE(pt.ok());
  // Wedges centered at 1: pairs {0,2},{0,3},{2,3} -> 3 wedges. Node 1 is in
  // N_1 of every node, so every pair of {0,1,2,3} has count 3.
  EXPECT_EQ(pt->at(PackPair(0, 2)), 3u);
  EXPECT_EQ(pt->at(PackPair(2, 3)), 3u);
  EXPECT_EQ(pt->at(PackPair(0, 1)), 3u);

  std::vector<std::pair<NodeId, NodeId>> pairs = {{0, 2}, {2, 3}};
  auto nd = RunPairwiseNdBas(g, *wedge, pairs, opts);
  ASSERT_TRUE(nd.ok());
  EXPECT_EQ((*nd)[0], 3u);
  EXPECT_EQ((*nd)[1], 3u);
}

TEST(PairwiseTest, EmptyGraphNoPairs) {
  Graph g = MakeGraph(3, {});
  Pattern edge = MakeSingleEdge();
  PairwiseCensusOptions opts;
  auto counts = RunPairwisePtOpt(g, edge, opts);
  ASSERT_TRUE(counts.ok());
  EXPECT_TRUE(counts->empty());
}

TEST(PairwiseTest, PtOptionsChangeTraversalNotCounts) {
  // Pairwise PT-OPT reads the PtOptions slice (and always expands
  // best-first): center seeding and match clustering change how it
  // traverses, never what it counts.
  GeneratorOptions gopts;
  gopts.num_nodes = 50;
  gopts.seed = 53;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern tri = MakeTriangle(false);
  PairwiseCensusOptions base;
  base.k = 2;
  auto expected = RunPairwisePtOpt(g, tri, base);
  ASSERT_TRUE(expected.ok());
  PairwiseCensusOptions no_clusters = base;
  no_clusters.clustering = ClusteringMode::kNone;
  // RND-CNTR: as many random centers as the seeding uses, drawn with the
  // census seed.
  Rng center_rng(base.seed);
  const CenterDistanceIndex random_index = CenterDistanceIndex::Build(
      g, PickRandomCenters(g, base.num_centers, &center_rng));
  PairwiseCensusOptions random_clusters = base;
  random_clusters.clustering = ClusteringMode::kRandom;
  random_clusters.num_clusters = 5;
  random_clusters.center_index = &random_index;
  PairwiseCensusOptions no_centers = base;
  no_centers.num_centers = 0;
  for (const PairwiseCensusOptions& opts :
       {no_clusters, random_clusters, no_centers}) {
    auto counts = RunPairwisePtOpt(g, tri, opts);
    ASSERT_TRUE(counts.ok());
    EXPECT_EQ(*counts, *expected);
  }
}

}  // namespace
}  // namespace egocensus
