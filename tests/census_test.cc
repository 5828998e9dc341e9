#include "census/census.h"

#include <gtest/gtest.h>

#include <functional>

#include "census/approx.h"
#include "census/pairwise.h"
#include "census/topk.h"
#include "exec/governor.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

std::vector<std::uint64_t> Counts(const Graph& g, const Pattern& p,
                                  std::span<const NodeId> focal,
                                  CensusOptions opts) {
  auto r = RunCensus(g, p, focal, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? std::move(r->counts) : std::vector<std::uint64_t>{};
}

constexpr CensusAlgorithm kAllAlgorithms[] = {
    CensusAlgorithm::kNdBas, CensusAlgorithm::kNdPvot,
    CensusAlgorithm::kNdDiff, CensusAlgorithm::kPtBas,
    CensusAlgorithm::kPtOpt, CensusAlgorithm::kPtRnd};

TEST(CensusTest, TriangleCountsOnSmallGraph) {
  // Two triangles sharing edge 1-2: {0,1,2} and {1,2,3}; plus pendant 4.
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}, {3, 4}});
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 1;
    auto counts = Counts(g, tri, focal, opts);
    // k=1 neighborhoods: node 0 sees {0,1,2} -> 1 triangle; node 1 and 2
    // see everything except 4 -> 2; node 3 sees {1,2,3,4} -> 1; node 4
    // sees {3,4} -> 0.
    EXPECT_EQ(counts[0], 1u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[1], 2u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[2], 2u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[3], 1u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[4], 0u) << CensusAlgorithmName(algorithm);
  }
}

TEST(CensusTest, DegreeViaSingleNodePattern) {
  // COUNTP(single_node, SUBGRAPH(ID, 1)) = degree + 1 (the node itself).
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  Pattern node = MakeSingleNode();
  auto focal = AllNodes(g);
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 1;
    auto counts = Counts(g, node, focal, opts);
    EXPECT_EQ(counts[0], 4u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[1], 2u) << CensusAlgorithmName(algorithm);
  }
}

TEST(CensusTest, KZeroCountsOnlySelf) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Pattern node = MakeSingleNode();
  auto focal = AllNodes(g);
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 0;
    auto counts = Counts(g, node, focal, opts);
    for (NodeId n = 0; n < 3; ++n) {
      EXPECT_EQ(counts[n], 1u) << CensusAlgorithmName(algorithm);
    }
  }
}

TEST(CensusTest, FocalSubsetOnlyCounted) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  Pattern tri = MakeTriangle(false);
  std::vector<NodeId> focal = {1, 3};
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 1;
    auto counts = Counts(g, tri, focal, opts);
    EXPECT_EQ(counts[0], 0u) << CensusAlgorithmName(algorithm);  // not focal
    EXPECT_EQ(counts[1], 1u) << CensusAlgorithmName(algorithm);
    // N_1(3) = {2, 3} does not contain the triangle {0, 1, 2}.
    EXPECT_EQ(counts[3], 0u) << CensusAlgorithmName(algorithm);
    // With k = 2 node 3 reaches the whole triangle.
    opts.k = 2;
    auto counts2 = Counts(g, tri, focal, opts);
    EXPECT_EQ(counts2[3], 1u) << CensusAlgorithmName(algorithm);
  }
}

TEST(CensusTest, SubpatternCoordinatorAtKZero) {
  // Table I row 4: count triads in which the focal node is the coordinator.
  Graph g(true);
  g.AddNodes(5);
  for (NodeId n = 0; n < 5; ++n) CheckOk(g.SetLabel(n, 1), "test fixture setup");
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);  // triad 0->1->2, coordinator 1
  g.AddEdge(1, 3);  // triad 0->1->3, coordinator 1
  g.AddEdge(3, 4);  // triad 1->3->4, coordinator 3
  CheckOk(g.Finalize(), "test fixture setup");
  Pattern triad = MakeCoordinatorTriad();
  auto focal = AllNodes(g);
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 0;
    opts.subpattern = "coordinator";
    auto counts = Counts(g, triad, focal, opts);
    EXPECT_EQ(counts[0], 0u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[1], 2u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[3], 1u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[4], 0u) << CensusAlgorithmName(algorithm);
  }
}

TEST(CensusTest, UnknownSubpatternRejected) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Pattern edge = MakeSingleEdge();
  CensusOptions opts;
  opts.subpattern = "missing";
  auto focal = AllNodes(g);
  EXPECT_FALSE(RunCensus(g, edge, focal, opts).ok());
}

TEST(CensusTest, UnpreparedPatternRejected) {
  Graph g = MakeGraph(2, {{0, 1}});
  Pattern p;
  p.AddNode("A");
  auto focal = AllNodes(g);
  EXPECT_FALSE(RunCensus(g, p, focal, CensusOptions()).ok());
}

TEST(CensusTest, FocalOutOfRangeRejected) {
  Graph g = MakeGraph(2, {{0, 1}});
  Pattern node = MakeSingleNode();
  std::vector<NodeId> focal = {7};
  EXPECT_FALSE(RunCensus(g, node, focal, CensusOptions()).ok());
}

// Every census entry point answers a bad input with a Status: INVALID_ARGUMENT
// for an unprepared pattern or an unfinalized graph, OUT_OF_RANGE for a
// focal id or pair endpoint past the last node, and INVALID_ARGUMENT for a
// focal id listed twice (a pair endpoint may repeat). Every one also honours a
// governor: under a memory budget smaller than its match set it stops with
// RESOURCE_EXHAUSTED (RunCensus reports it as the exec_status of its
// partial result).
TEST(CensusInputsTest, EveryEntryPointRejectsBadInputs) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  Graph unfinalized;
  unfinalized.AddNodes(3);
  unfinalized.AddEdge(0, 1);
  Pattern edge = MakeSingleEdge();
  Pattern unprepared;
  unprepared.AddNode("A");
  // The id lists an entry point is given: valid, with an id past the last
  // node, and with an id listed twice.
  enum Ids { kValid, kPastEnd, kRepeated };
  const std::vector<NodeId> focal[] = {{0, 1, 2}, {0, 3}, {1, 0, 1}};
  // The pair's intersection neighborhood {0, 1} holds a match, so the
  // per-pair matcher of pairwise ND-BAS has something to charge.
  const std::vector<std::pair<NodeId, NodeId>> pairs[] = {
      {{0, 1}}, {{0, 1}, {1, 3}}, {{0, 1}, {1, 2}}};

  struct EntryPoint {
    const char* name;
    bool takes_ids;    // focal ids or node pairs
    bool takes_focal;  // the ids are a focal set, so none may repeat
    std::function<Status(const Graph&, const Pattern&, Ids ids,
                         Governor* governor)>
        run;
  };
  const EntryPoint entry_points[] = {
      {"RunCensus", true, true,
       [&](const Graph& graph, const Pattern& p, Ids ids,
           Governor* governor) {
         CensusOptions options;
         options.fast_path = FastPathMode::kOff;  // it runs no matcher
         options.governor = governor;
         auto result = RunCensus(graph, p, focal[ids], options);
         return result.ok() ? result->exec_status : result.status();
       }},
      {"RunTopKCensus", true, true,
       [&](const Graph& graph, const Pattern& p, Ids ids,
           Governor* governor) {
         TopKOptions options;
         options.governor = governor;
         return RunTopKCensus(graph, p, focal[ids], options).status();
       }},
      {"RunApproximateCensus", true, true,
       [&](const Graph& graph, const Pattern& p, Ids ids,
           Governor* governor) {
         ApproximateCensusOptions options;
         options.governor = governor;
         return RunApproximateCensus(graph, p, focal[ids], options).status();
       }},
      {"RunPairwisePtOpt", false, false,
       [&](const Graph& graph, const Pattern& p, Ids, Governor* governor) {
         PairwiseCensusOptions options;
         options.governor = governor;
         return RunPairwisePtOpt(graph, p, options).status();
       }},
      {"RunPairwisePtBas", false, false,
       [&](const Graph& graph, const Pattern& p, Ids, Governor* governor) {
         PairwiseCensusOptions options;
         options.governor = governor;
         return RunPairwisePtBas(graph, p, options).status();
       }},
      {"RunPairwiseNdBas", true, false,
       [&](const Graph& graph, const Pattern& p, Ids ids,
           Governor* governor) {
         PairwiseCensusOptions options;
         options.governor = governor;
         return RunPairwiseNdBas(graph, p, pairs[ids], options).status();
       }},
      {"RunPairwiseNdPvot", true, false,
       [&](const Graph& graph, const Pattern& p, Ids ids,
           Governor* governor) {
         PairwiseCensusOptions options;
         options.governor = governor;
         return RunPairwiseNdPvot(graph, p, pairs[ids], options).status();
       }},
  };
  for (const EntryPoint& entry : entry_points) {
    SCOPED_TRACE(entry.name);
    EXPECT_TRUE(entry.run(g, edge, kValid, nullptr).ok());
    EXPECT_EQ(entry.run(g, unprepared, kValid, nullptr).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(entry.run(unfinalized, edge, kValid, nullptr).code(),
              StatusCode::kInvalidArgument);
    if (entry.takes_ids) {
      EXPECT_EQ(entry.run(g, edge, kPastEnd, nullptr).code(),
                StatusCode::kOutOfRange);
      const Status repeated = entry.run(g, edge, kRepeated, nullptr);
      if (entry.takes_focal) {
        EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument);
        EXPECT_NE(repeated.message().find("focal node 1 "), std::string::npos)
            << repeated.message();
      } else {
        EXPECT_TRUE(repeated.ok()) << repeated.ToString();
      }
    }
    Governor governor;
    governor.SetMemoryLimitBytes(1);  // smaller than the two-edge match set
    EXPECT_EQ(entry.run(g, edge, kValid, &governor).code(),
              StatusCode::kResourceExhausted);
  }
}

// ---- Cross-validation property suite: every algorithm must agree with
// ND-BAS on random graphs, across patterns, radii and label regimes. ----

struct CensusCase {
  const char* name;
  Pattern (*make)();
  bool labeled_graph;
  std::uint32_t k;
};

Pattern TriUnlb() { return MakeTriangle(false); }
Pattern TriLb() { return MakeTriangle(true); }
Pattern SqrUnlb() { return MakeSquare(false); }
Pattern EdgeP() { return MakeSingleEdge(); }
Pattern NodeP() { return MakeSingleNode(); }
Pattern Path3() { return MakePath(3, false); }

class CensusAgreementTest
    : public ::testing::TestWithParam<std::tuple<CensusCase, std::uint64_t>> {
};

TEST_P(CensusAgreementTest, AllAlgorithmsAgree) {
  const auto& [test_case, seed] = GetParam();
  GeneratorOptions gopts;
  gopts.num_nodes = 120;
  gopts.edges_per_node = 3;
  gopts.num_labels = test_case.labeled_graph ? 4 : 1;
  gopts.seed = seed;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern pattern = test_case.make();

  // Focal set: a deterministic subset plus all nodes on alternate seeds.
  std::vector<NodeId> focal;
  if (seed % 2 == 0) {
    focal = AllNodes(g);
  } else {
    for (NodeId n = 0; n < g.NumNodes(); n += 3) focal.push_back(n);
  }

  CensusOptions base;
  base.k = test_case.k;
  base.algorithm = CensusAlgorithm::kNdBas;
  auto reference = Counts(g, pattern, focal, base);

  for (auto algorithm :
       {CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt,
        CensusAlgorithm::kPtRnd}) {
    CensusOptions opts = base;
    opts.algorithm = algorithm;
    auto counts = Counts(g, pattern, focal, opts);
    ASSERT_EQ(counts.size(), reference.size());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(counts[n], reference[n])
          << CensusAlgorithmName(algorithm) << " node " << n << " case "
          << test_case.name << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PatternsRadiiSeeds, CensusAgreementTest,
    ::testing::Combine(
        ::testing::Values(CensusCase{"tri_unlb_k1", &TriUnlb, false, 1},
                          CensusCase{"tri_unlb_k2", &TriUnlb, false, 2},
                          CensusCase{"tri_lb_k2", &TriLb, true, 2},
                          CensusCase{"sqr_k2", &SqrUnlb, false, 2},
                          CensusCase{"edge_k1", &EdgeP, false, 1},
                          CensusCase{"edge_k3", &EdgeP, false, 3},
                          CensusCase{"node_k2", &NodeP, false, 2},
                          CensusCase{"path3_lb_k2", &Path3, true, 2}),
        ::testing::Values(2u, 3u, 5u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CensusAgreementTest, SubpatternAcrossAlgorithms) {
  // Wedge pattern with mid-node subpattern over a random graph, k = 1:
  // counts wedges centered within the focal node's 1-hop neighborhood.
  auto wedge = ParsePattern(
      "PATTERN wedge {?A-?B; ?B-?C; SUBPATTERN mid {?B;}}");
  ASSERT_TRUE(wedge.ok());
  GeneratorOptions gopts;
  gopts.num_nodes = 80;
  gopts.edges_per_node = 2;
  gopts.seed = 77;
  Graph g = GeneratePreferentialAttachment(gopts);
  auto focal = AllNodes(g);

  CensusOptions base;
  base.k = 1;
  base.subpattern = "mid";
  base.algorithm = CensusAlgorithm::kNdBas;
  auto reference = Counts(g, *wedge, focal, base);
  for (auto algorithm :
       {CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt}) {
    CensusOptions opts = base;
    opts.algorithm = algorithm;
    auto counts = Counts(g, *wedge, focal, opts);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(counts[n], reference[n])
          << CensusAlgorithmName(algorithm) << " node " << n;
    }
  }
}

TEST(CensusAgreementTest, PtOptionVariantsAgree) {
  GeneratorOptions gopts;
  gopts.num_nodes = 150;
  gopts.num_labels = 4;
  gopts.seed = 31;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern tri = MakeTriangle(true);
  auto focal = AllNodes(g);

  CensusOptions reference_opts;
  reference_opts.k = 2;
  reference_opts.algorithm = CensusAlgorithm::kNdBas;
  auto reference = Counts(g, tri, focal, reference_opts);

  // RND-CNTR: 12 random centers (the K-means features need 12), drawn
  // with the census seed.
  CensusOptions defaults;
  Rng center_rng(defaults.seed);
  const CenterDistanceIndex random_index =
      CenterDistanceIndex::Build(g, PickRandomCenters(g, 12, &center_rng));
  struct Variant {
    const char* name;
    std::uint32_t centers;
    bool random_centers;
    ClusteringMode clustering;
    std::uint32_t clusters;
  };
  const Variant variants[] = {
      {"no_centers", 0, false, ClusteringMode::kNone, 0},
      {"few_centers", 4, false, ClusteringMode::kKMeans, 0},
      {"random_centers", 8, true, ClusteringMode::kKMeans, 0},
      {"random_clustering", 12, false, ClusteringMode::kRandom, 10},
      {"many_clusters", 12, false, ClusteringMode::kKMeans, 64},
      {"one_cluster", 12, false, ClusteringMode::kKMeans, 1},
  };
  for (const auto& variant : variants) {
    CensusOptions opts;
    opts.k = 2;
    opts.algorithm = CensusAlgorithm::kPtOpt;
    opts.num_centers = variant.centers;
    if (variant.random_centers) opts.center_index = &random_index;
    opts.clustering = variant.clustering;
    opts.num_clusters = variant.clusters;
    auto counts = Counts(g, tri, focal, opts);
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      ASSERT_EQ(counts[n], reference[n]) << variant.name << " node " << n;
    }
  }
}

TEST(CensusAgreementTest, PrebuiltCenterIndexAgrees) {
  GeneratorOptions gopts;
  gopts.num_nodes = 100;
  gopts.num_labels = 4;
  gopts.seed = 33;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern tri = MakeTriangle(true);
  auto focal = AllNodes(g);
  CenterDistanceIndex index =
      CenterDistanceIndex::Build(g, PickHighestDegreeCenters(g, 12));

  CensusOptions with_index;
  with_index.k = 2;
  with_index.algorithm = CensusAlgorithm::kPtOpt;
  with_index.center_index = &index;
  auto a = Counts(g, tri, focal, with_index);

  CensusOptions without = with_index;
  without.center_index = nullptr;
  auto b = Counts(g, tri, focal, without);
  EXPECT_EQ(a, b);
}

TEST(CensusTest, StatsReportMatchesAndTimes) {
  GeneratorOptions gopts;
  gopts.num_nodes = 100;
  gopts.seed = 35;
  Graph g = GeneratePreferentialAttachment(gopts);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  CensusOptions opts;
  opts.k = 1;
  opts.algorithm = CensusAlgorithm::kPtOpt;
  // num_matches comes from the matcher; pin the generic engine so it runs.
  opts.fast_path = FastPathMode::kOff;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.num_matches, 0u);
  EXPECT_GT(r->stats.nodes_expanded, 0u);
  EXPECT_GE(r->stats.TotalSeconds(), 0.0);
}

TEST(CensusTest, DirectedGraphNeighborhoodsIgnoreDirection) {
  // 0 -> 1 -> 2 directed chain; pattern is a directed edge. The 1-hop
  // neighborhood of node 2 includes node 1 via the incoming edge, so the
  // edge 1->2 is counted for node 2.
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, {}, /*directed=*/true);
  auto p = ParsePattern("PATTERN de {?A->?B;}");
  ASSERT_TRUE(p.ok());
  auto focal = AllNodes(g);
  for (auto algorithm : kAllAlgorithms) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 1;
    auto counts = Counts(g, *p, focal, opts);
    EXPECT_EQ(counts[2], 1u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[1], 2u) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(counts[0], 1u) << CensusAlgorithmName(algorithm);
  }
}

}  // namespace
}  // namespace egocensus
