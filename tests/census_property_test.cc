// Wider cross-validation sweeps: directed patterns, negated edges and
// attribute predicates through the census engines, union/intersection
// pairwise sweeps, engine-level equivalence for every forced algorithm,
// and invariance properties (monotonicity in k, permutation of focal set).

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "census/census.h"
#include "census/pairwise.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "lang/engine.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace egocensus {
namespace {

std::vector<std::uint64_t> Reference(const Graph& g, const Pattern& p,
                                     std::span<const NodeId> focal,
                                     std::uint32_t k,
                                     const std::string& subpattern = "") {
  CensusOptions opts;
  opts.algorithm = CensusAlgorithm::kNdBas;
  opts.k = k;
  opts.subpattern = subpattern;
  auto r = RunCensus(g, p, focal, opts);
  EXPECT_TRUE(r.ok());
  return r->counts;
}

void ExpectAllEnginesMatch(const Graph& g, const Pattern& p,
                           std::span<const NodeId> focal, std::uint32_t k,
                           const std::string& subpattern = "") {
  auto reference = Reference(g, p, focal, k, subpattern);
  for (auto algorithm :
       {CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt,
        CensusAlgorithm::kPtRnd}) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = k;
    opts.subpattern = subpattern;
    auto r = RunCensus(g, p, focal, opts);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->counts, reference)
        << CensusAlgorithmName(algorithm) << " pattern " << p.name()
        << " k=" << k;
  }
}

TEST(CensusPropertyTest, DirectedPatternsAcrossEngines) {
  Graph g = GenerateErdosRenyi(80, 320, 2, 91, /*directed=*/true);
  auto focal = AllNodes(g);
  for (const char* text :
       {"PATTERN p {?A->?B; ?B->?C;}",
        "PATTERN p {?A->?B; ?B->?C; ?C->?A;}",
        "PATTERN p {?A->?B; ?A->?C;}"}) {
    auto p = ParsePattern(text);
    ASSERT_TRUE(p.ok());
    for (std::uint32_t k : {0u, 1u, 2u}) {
      ExpectAllEnginesMatch(g, *p, focal, k);
    }
  }
}

TEST(CensusPropertyTest, NegatedEdgePatternAcrossEngines) {
  GeneratorOptions gen;
  gen.num_nodes = 100;
  gen.edges_per_node = 3;
  gen.seed = 92;
  Graph g = GeneratePreferentialAttachment(gen);
  auto p = ParsePattern("PATTERN open {?A-?B; ?B-?C; ?A!-?C;}");
  ASSERT_TRUE(p.ok());
  auto focal = AllNodes(g);
  ExpectAllEnginesMatch(g, *p, focal, 1);
  ExpectAllEnginesMatch(g, *p, focal, 2);
}

TEST(CensusPropertyTest, AttributePredicatePatternAcrossEngines) {
  GeneratorOptions gen;
  gen.num_nodes = 90;
  gen.edges_per_node = 3;
  gen.seed = 93;
  Graph g = GeneratePreferentialAttachment(gen);
  Rng rng(5);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    g.node_attributes().Set(n, "W",
                            static_cast<std::int64_t>(rng.NextBounded(10)));
  }
  auto p = ParsePattern("PATTERN heavy {?A-?B; [?A.W >= 5]; [?B.W < 5];}");
  ASSERT_TRUE(p.ok());
  auto focal = AllNodes(g);
  ExpectAllEnginesMatch(g, *p, focal, 1);
  ExpectAllEnginesMatch(g, *p, focal, 2);
}

TEST(CensusPropertyTest, CountsMonotoneInRadius) {
  GeneratorOptions gen;
  gen.num_nodes = 150;
  gen.edges_per_node = 3;
  gen.seed = 94;
  Graph g = GeneratePreferentialAttachment(gen);
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  std::vector<std::uint64_t> previous(g.NumNodes(), 0);
  for (std::uint32_t k : {0u, 1u, 2u, 3u}) {
    CensusOptions opts;
    opts.algorithm = CensusAlgorithm::kNdPvot;
    opts.k = k;
    auto r = RunCensus(g, tri, focal, opts);
    ASSERT_TRUE(r.ok());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_GE(r->counts[n], previous[n]) << "k=" << k << " node " << n;
    }
    previous = r->counts;
  }
  // At k >= diameter every node in the giant component counts all matches.
  CensusOptions opts;
  opts.algorithm = CensusAlgorithm::kNdPvot;
  opts.k = 30;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  for (NodeId n = 1; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->counts[n], r->counts[0]);
  }
}

TEST(CensusPropertyTest, FocalOrderIrrelevant) {
  GeneratorOptions gen;
  gen.num_nodes = 80;
  gen.seed = 95;
  Graph g = GeneratePreferentialAttachment(gen);
  Pattern tri = MakeTriangle(false);
  std::vector<NodeId> focal = AllNodes(g);
  std::vector<NodeId> shuffled = focal;
  Rng rng(1);
  rng.Shuffle(&shuffled);
  for (auto algorithm : {CensusAlgorithm::kNdDiff, CensusAlgorithm::kPtOpt}) {
    CensusOptions opts;
    opts.algorithm = algorithm;
    opts.k = 2;
    auto a = RunCensus(g, tri, focal, opts);
    auto b = RunCensus(g, tri, shuffled, opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->counts, b->counts) << CensusAlgorithmName(algorithm);
  }
}

TEST(CensusPropertyTest, SumOfNodePatternCountsEqualsNeighborhoodSizes) {
  // COUNTP(single_node, SUBGRAPH(ID, k)) must equal |N_k(n)| for every n —
  // ties the census definition to plain BFS.
  GeneratorOptions gen;
  gen.num_nodes = 120;
  gen.seed = 96;
  Graph g = GeneratePreferentialAttachment(gen);
  Pattern node = MakeSingleNode();
  auto focal = AllNodes(g);
  CensusOptions opts;
  opts.algorithm = CensusAlgorithm::kPtOpt;
  opts.k = 2;
  auto r = RunCensus(g, node, focal, opts);
  ASSERT_TRUE(r.ok());
  BfsWorkspace bfs;
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->counts[n], bfs.Run(g, n, 2).size()) << "node " << n;
  }
}

TEST(CensusPropertyTest, EngineForcedAlgorithmsAllAgree) {
  GeneratorOptions gen;
  gen.num_nodes = 70;
  gen.num_labels = 3;
  gen.seed = 97;
  Graph g = GeneratePreferentialAttachment(gen);
  QueryEngine engine(g);
  const char* query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";
  QueryEngine::Options base;
  base.auto_algorithm = false;
  base.census.algorithm = CensusAlgorithm::kNdBas;
  auto reference = engine.Execute(query, base);
  ASSERT_TRUE(reference.ok());
  for (auto algorithm :
       {CensusAlgorithm::kNdPvot, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kPtBas, CensusAlgorithm::kPtOpt,
        CensusAlgorithm::kPtRnd}) {
    QueryEngine::Options options = base;
    options.census.algorithm = algorithm;
    auto result = engine.Execute(query, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->NumRows(), reference->NumRows());
    for (std::size_t r = 0; r < result->NumRows(); ++r) {
      EXPECT_EQ(std::get<std::int64_t>(result->At(r, 1)),
                std::get<std::int64_t>(reference->At(r, 1)))
          << CensusAlgorithmName(algorithm);
    }
  }
}

TEST(CensusPropertyTest, PlannedEngineAgreesWithEveryPinnedEngine) {
  // The plan's engine answers what every pinned engine answers, at 1 and 4
  // threads, with focal fractions on both sides of the node-driven /
  // pattern-driven crossover; the sweep must see both sides chosen.
  const std::vector<Graph> graphs = [] {
    std::vector<Graph> out;
    GeneratorOptions gen;
    gen.num_nodes = 200;
    gen.edges_per_node = 3;
    gen.num_labels = 3;
    gen.seed = 101;
    out.push_back(GeneratePreferentialAttachment(gen));
    out.push_back(GenerateErdosRenyi(150, 450, 3, 102));
    return out;
  }();
  const char* patterns[] = {"?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1];",
                            "?A-?B; [?A.LABEL=0]; [?B.LABEL=1];",
                            "?A-?B; ?B-?C; ?C-?A;"};
  std::set<CensusAlgorithm> planned;
  for (const Graph& g : graphs) {
    QueryEngine engine(g);
    for (const char* body : patterns) {
      for (std::uint32_t k : {1u, 2u}) {
        for (double fraction : {0.02, 0.2, 1.0}) {
          const std::string query =
              std::string("PATTERN p {") + body +
              "} SELECT ID, COUNTP(p, SUBGRAPH(ID, " + std::to_string(k) +
              ")) FROM nodes WHERE RND() < " + std::to_string(fraction);
          for (std::uint32_t threads : {1u, 4u}) {
            SCOPED_TRACE(query + " threads=" + std::to_string(threads));
            QueryEngine::Options options;
            options.census.num_threads = threads;
            options.census.fast_path = FastPathMode::kOff;
            auto run = engine.RunQuery(query, options);
            ASSERT_TRUE(run.ok()) << run.status().ToString();
            planned.insert(run->aggregates[0].plan.census.algorithm);
            for (auto algorithm :
                 {CensusAlgorithm::kNdBas, CensusAlgorithm::kNdPvot,
                  CensusAlgorithm::kNdDiff, CensusAlgorithm::kPtBas,
                  CensusAlgorithm::kPtOpt, CensusAlgorithm::kPtRnd}) {
              QueryEngine::Options pinned = options;
              pinned.auto_algorithm = false;
              pinned.census.algorithm = algorithm;
              auto table = engine.Execute(query, pinned);
              ASSERT_TRUE(table.ok()) << table.status().ToString();
              std::ostringstream want, got;
              table->WriteCsv(want);
              run->table.WriteCsv(got);
              ASSERT_EQ(got.str(), want.str()) << CensusAlgorithmName(algorithm);
            }
          }
        }
      }
    }
  }
  EXPECT_TRUE(planned.count(CensusAlgorithm::kNdBas));
  EXPECT_TRUE(planned.count(CensusAlgorithm::kNdPvot) ||
              planned.count(CensusAlgorithm::kPtBas));
}

// ---- Pairwise sweeps ----

class PairwiseSweepTest
    : public ::testing::TestWithParam<std::tuple<PairNeighborhood,
                                                 std::uint32_t,
                                                 std::uint64_t>> {};

TEST_P(PairwiseSweepTest, PtEnginesAgreeAndNdValidates) {
  const auto& [neighborhood, k, seed] = GetParam();
  GeneratorOptions gen;
  gen.num_nodes = 50;
  gen.edges_per_node = 2;
  gen.seed = seed;
  Graph g = GeneratePreferentialAttachment(gen);
  Pattern edge = MakeSingleEdge();
  PairwiseCensusOptions opts;
  opts.k = k;
  opts.neighborhood = neighborhood;

  auto opt = RunPairwisePtOpt(g, edge, opts);
  auto bas = RunPairwisePtBas(g, edge, opts);
  ASSERT_TRUE(opt.ok());
  ASSERT_TRUE(bas.ok());
  EXPECT_EQ(*opt, *bas);

  // Validate a slice of pairs with the node-driven engines.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::size_t taken = 0;
  for (const auto& [key, count] : *opt) {
    pairs.push_back(UnpackPair(key));
    if (++taken >= 40) break;
  }
  pairs.emplace_back(0, 25);  // possibly-zero pair
  auto nd_bas = RunPairwiseNdBas(g, edge, pairs, opts);
  auto nd_pvot = RunPairwiseNdPvot(g, edge, pairs, opts);
  ASSERT_TRUE(nd_bas.ok());
  ASSERT_TRUE(nd_pvot.ok());
  EXPECT_EQ(*nd_bas, *nd_pvot);
  if (neighborhood == PairNeighborhood::kIntersection) {
    // Intersection: the sparse PT map is complete, so ND must agree
    // everywhere (union omits one-sided pairs by contract).
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      std::uint64_t key = PackPair(pairs[i].first, pairs[i].second);
      auto it = opt->find(key);
      EXPECT_EQ((*nd_bas)[i], it == opt->end() ? 0 : it->second);
    }
  } else {
    // Union: the PT engines omit, per contract, matches covered entirely by
    // one endpoint when the other endpoint covers no anchor, so the
    // node-driven (exact-semantics) count dominates the PT count.
    for (std::size_t i = 0; i + 1 < pairs.size(); ++i) {
      std::uint64_t key = PackPair(pairs[i].first, pairs[i].second);
      auto it = opt->find(key);
      ASSERT_NE(it, opt->end());
      EXPECT_GE((*nd_bas)[i], it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PairwiseSweepTest,
    ::testing::Combine(::testing::Values(PairNeighborhood::kIntersection,
                                         PairNeighborhood::kUnion),
                       ::testing::Values(1u, 2u),
                       ::testing::Values(101u, 102u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ==
                                 PairNeighborhood::kIntersection
                             ? "inter"
                             : "union") +
             "_k" + std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace egocensus
