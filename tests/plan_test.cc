// The census plan's choices (PlanCensus, lang/plan.cc) on a seeded 10K-node
// preferential-attachment graph with 4 labels: which engine each census
// gets, and the counter-unit estimates behind it. Nothing here times a
// census; the equivalence of planned and pinned answers is in
// census_property_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "census/census.h"
#include "graph/generators.h"
#include "lang/analyzer.h"
#include "lang/engine.h"
#include "lang/query_parser.h"

namespace egocensus {
namespace {

constexpr const char* kLabel = "?A; [?A.LABEL=1];";
constexpr const char* kEdgeLabeled = "?A-?B; [?A.LABEL=1]; [?B.LABEL=1];";
constexpr const char* kTriangleLabeled = "?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1];";
constexpr const char* kTriangleTwoLabels =
    "?A-?B; ?B-?C; ?C-?A; [?A.LABEL=0]; [?B.LABEL=1];";
constexpr const char* kTriangle = "?A-?B; ?B-?C; ?C-?A;";

bool Global(CensusAlgorithm algorithm) {
  return algorithm == CensusAlgorithm::kNdPvot ||
         algorithm == CensusAlgorithm::kPtBas;
}

class PlanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions gen;
    gen.num_nodes = 10000;
    gen.edges_per_node = 5;
    gen.num_labels = 4;
    gen.seed = 11;
    graph_ = new Graph(GeneratePreferentialAttachment(gen));
    labels_ = new LabelTotals(LabelTotals::Build(*graph_));
  }
  static void TearDownTestSuite() {
    delete labels_;
    delete graph_;
  }

  /// The plan of `SELECT ID, COUNTP(p, SUBGRAPH(ID, k))` (or the COUNTSP
  /// of `subpattern`) over `focal`.
  static CensusPlan Plan(const std::string& body, std::uint32_t k,
                         std::span<const NodeId> focal,
                         QueryEngine::Options options = {},
                         const std::string& subpattern = "") {
    const std::string count =
        subpattern.empty() ? "COUNTP(p, " : "COUNTSP(" + subpattern + ", p, ";
    const std::string text = "PATTERN p {" + body + "} SELECT ID, " + count +
                             "SUBGRAPH(ID, " + std::to_string(k) +
                             ")) FROM nodes";
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    auto analyzed = AnalyzeQuery(*query, {});
    EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
    return PlanCensus(analyzed->counts.front(), options, *graph_, focal,
                      *labels_);
  }

  static std::vector<NodeId> Window(NodeId lo, NodeId width) {
    std::vector<NodeId> ids(width);
    std::iota(ids.begin(), ids.end(), lo);
    return ids;
  }

  /// `count` ids at an even stride over the graph.
  static std::vector<NodeId> Spread(NodeId count) {
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < count; ++i) {
      ids.push_back(i * graph_->NumNodes() / count);
    }
    return ids;
  }

  static std::vector<NodeId> All() { return AllNodes(*graph_); }

  static QueryEngine::Options Threads(std::uint32_t threads) {
    QueryEngine::Options options;
    options.census.num_threads = threads;
    return options;
  }

  static const EngineEstimate& Estimate(const CensusPlan& plan,
                                        CensusAlgorithm algorithm) {
    auto it = std::find_if(
        plan.estimates.begin(), plan.estimates.end(),
        [algorithm](const EngineEstimate& e) { return e.algorithm == algorithm; });
    EXPECT_NE(it, plan.estimates.end());
    return *it;
  }

  static Graph* graph_;
  static LabelTotals* labels_;
};

Graph* PlanTest::graph_ = nullptr;
LabelTotals* PlanTest::labels_ = nullptr;

TEST_F(PlanTest, DrillDownsRunNodeDriven) {
  // The ledger's three ego_drilldown templates on 50-id windows at k = 1.
  for (const char* body : {kLabel, kEdgeLabeled, kTriangleLabeled}) {
    for (NodeId lo : {1000u, 4000u, 7000u}) {
      for (std::uint32_t threads : {1u, 4u}) {
        const CensusPlan plan =
            Plan(body, 1, Window(lo, 50), Threads(threads));
        SCOPED_TRACE(std::string(body) + " at " + std::to_string(lo) + ": " +
                     plan.reason);
        EXPECT_FALSE(plan.fast_path);
        EXPECT_EQ(plan.census.algorithm, CensusAlgorithm::kNdBas);
        // The plan passes fast_path off so RunCensus runs what it chose.
        EXPECT_EQ(plan.census.fast_path, FastPathMode::kOff);
        EXPECT_EQ(plan.estimates.front().algorithm, CensusAlgorithm::kNdBas);
      }
    }
  }
}

TEST_F(PlanTest, LabeledTriangleAtRadiusTwoCrossesOver) {
  const CensusPlan few = Plan(kTriangleLabeled, 2, Window(4000, 50));
  EXPECT_EQ(few.census.algorithm, CensusAlgorithm::kNdBas) << few.reason;
  const CensusPlan many = Plan(kTriangleLabeled, 2, Spread(2000));
  EXPECT_TRUE(Global(many.census.algorithm)) << many.reason;
  for (std::uint32_t threads : {1u, 4u}) {
    const CensusPlan all = Plan(kTriangleLabeled, 2, All(), Threads(threads));
    EXPECT_NE(all.census.algorithm, CensusAlgorithm::kNdBas) << all.reason;
    EXPECT_TRUE(Global(all.census.algorithm)) << all.reason;
  }
  // Node-driven work grows with |focal|; the match step does not.
  const EngineEstimate& few_nd = Estimate(few, CensusAlgorithm::kNdBas);
  const EngineEstimate& many_nd = Estimate(many, CensusAlgorithm::kNdBas);
  EXPECT_GT(many_nd.expanded, 20 * few_nd.expanded);
  EXPECT_DOUBLE_EQ(Estimate(few, CensusAlgorithm::kNdPvot).matches,
                   Estimate(many, CensusAlgorithm::kNdPvot).matches);
}

TEST_F(PlanTest, WholeGraphTwoLabelTriangleRunsPatternOrPivot) {
  for (std::uint32_t threads : {1u, 4u}) {
    const CensusPlan plan = Plan(kTriangleTwoLabels, 2, All(), Threads(threads));
    EXPECT_TRUE(Global(plan.census.algorithm)) << plan.reason;
  }
}

TEST_F(PlanTest, EligibleWholeGraphCensusesKeepTheFastPath) {
  const struct {
    const char* body;
    std::uint32_t k;
  } cases[] = {{kTriangle, 1},
               {"?A-?B; ?B-?C; ?C-?D; ?D-?A;", 1},
               {"?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;", 1},
               {"?A-?B; ?B-?C;", 2},
               {kTriangle, 2}};
  for (const auto& c : cases) {
    const CensusPlan plan = Plan(c.body, c.k, All(), Threads(4));
    EXPECT_TRUE(plan.fast_path) << c.body << " k=" << c.k << ": " << plan.reason;
    EXPECT_EQ(plan.EngineName(), "fastpath");
    // Decided before any sampling.
    EXPECT_EQ(plan.sampled_balls, 0u);
    EXPECT_TRUE(plan.estimates.empty());
    EXPECT_EQ(plan.census.fast_path, FastPathMode::kAuto);
  }
}

TEST_F(PlanTest, SubpatternCountsRunAGlobalEngine) {
  // COUNTSP: ND-BAS scans the global match set once per focal node.
  const char* body = "?A-?B; ?B-?C; [?B.LABEL=1]; SUBPATTERN s {?B;}";
  for (const auto& focal : {Window(4000, 50), All()}) {
    const CensusPlan plan = Plan(body, 1, focal, {}, "s");
    EXPECT_TRUE(Global(plan.census.algorithm)) << plan.reason;
    EXPECT_EQ(plan.census.subpattern, "s");
    // Every engine, ND-BAS included, pays the one match step.
    for (const EngineEstimate& e : plan.estimates) {
      EXPECT_DOUBLE_EQ(e.matches, plan.estimates.front().matches);
    }
  }
}

TEST_F(PlanTest, RequestPinsAreHonored) {
  const auto window = Window(4000, 50);
  QueryEngine::Options pinned;
  pinned.auto_algorithm = false;
  pinned.census.algorithm = CensusAlgorithm::kPtOpt;
  pinned.census.fast_path = FastPathMode::kOff;
  for (const char* body : {kTriangleLabeled, kTriangle}) {
    const CensusPlan plan = Plan(body, 1, window, pinned);
    EXPECT_FALSE(plan.fast_path);
    EXPECT_EQ(plan.census.algorithm, CensusAlgorithm::kPtOpt);
    EXPECT_EQ(plan.EngineName(), "pt-opt");
    EXPECT_TRUE(plan.estimates.empty());
  }

  // fast_path=force keeps the fast path; off sends an eligible census to
  // the cost rule.
  QueryEngine::Options forced;
  forced.census.fast_path = FastPathMode::kForce;
  const CensusPlan force = Plan(kTriangle, 1, window, forced);
  EXPECT_TRUE(force.fast_path);
  EXPECT_EQ(force.census.fast_path, FastPathMode::kForce);
  QueryEngine::Options off;
  off.census.fast_path = FastPathMode::kOff;
  const CensusPlan generic = Plan(kTriangle, 1, window, off);
  EXPECT_FALSE(generic.fast_path);
  EXPECT_EQ(generic.census.algorithm, CensusAlgorithm::kNdBas)
      << generic.reason;

  // A GQL request keeps its matcher and prices GQL's match step.
  QueryEngine::Options gql;
  gql.census.use_gql_matcher = true;
  gql.census.fast_path = FastPathMode::kOff;
  const CensusPlan cn_plan = Plan(kTriangleLabeled, 2, All(), off);
  const CensusPlan gql_plan = Plan(kTriangleLabeled, 2, All(), gql);
  EXPECT_TRUE(gql_plan.census.use_gql_matcher);
  EXPECT_GT(Estimate(gql_plan, CensusAlgorithm::kNdPvot).cost,
            20 * Estimate(cn_plan, CensusAlgorithm::kNdPvot).cost);
  EXPECT_EQ(cn_plan.estimates.size(), 3u);
}

TEST_F(PlanTest, SamplesAtMostSixteenBalls) {
  EXPECT_EQ(Plan(kTriangleLabeled, 2, All()).sampled_balls, 16u);
  EXPECT_EQ(Plan(kTriangleLabeled, 1, Window(100, 50)).sampled_balls, 16u);
  EXPECT_EQ(Plan(kTriangleLabeled, 1, Window(100, 5)).sampled_balls, 5u);
  const CensusPlan none = Plan(kTriangleLabeled, 1, {});
  EXPECT_EQ(none.sampled_balls, 0u);
  EXPECT_EQ(none.mean_ball, 0);
}

TEST_F(PlanTest, EstimatesAreInCounterUnits) {
  const auto focal = Spread(500);
  const CensusPlan plan = Plan(kTriangleLabeled, 2, focal);
  // Node-driven engines visit |focal| balls of the sampled mean size.
  EXPECT_DOUBLE_EQ(Estimate(plan, CensusAlgorithm::kNdBas).expanded,
                   500 * plan.mean_ball);
  EXPECT_DOUBLE_EQ(Estimate(plan, CensusAlgorithm::kNdPvot).expanded,
                   500 * plan.mean_ball);
  // The |M| estimate lands within a small factor of the matcher's count.
  CensusOptions census;
  census.algorithm = CensusAlgorithm::kNdPvot;
  census.fast_path = FastPathMode::kOff;
  census.k = 2;
  auto query = ParseQuery("PATTERN p {" + std::string(kTriangleLabeled) +
                          "} SELECT ID, COUNTP(p, SUBGRAPH(ID, 2)) FROM nodes");
  ASSERT_TRUE(query.ok());
  auto analyzed = AnalyzeQuery(*query, {});
  ASSERT_TRUE(analyzed.ok());
  auto result = RunCensus(*graph_, *analyzed->counts.front().pattern,
                          std::vector<NodeId>{0}, census);
  ASSERT_TRUE(result.ok());
  const double actual = static_cast<double>(result->stats.num_matches);
  const double estimated = Estimate(plan, CensusAlgorithm::kPtBas).matches;
  EXPECT_GT(estimated, actual / 3);
  EXPECT_LT(estimated, actual * 3);
  // PT-BAS expands every anchor's ball of every estimated match.
  EXPECT_GT(Estimate(plan, CensusAlgorithm::kPtBas).expanded, 3 * estimated);
}

}  // namespace
}  // namespace egocensus
