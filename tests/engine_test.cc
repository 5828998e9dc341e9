#include "lang/engine.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "exec/governor.h"
#include "graph/generators.h"
#include "lang/query_spec.h"
#include "pattern/catalog.h"
#include "tests/test_util.h"
#include "util/strings.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

std::int64_t IntAt(const ResultTable& t, std::size_t row, std::size_t col) {
  return std::get<std::int64_t>(t.At(row, col));
}

// Finds the row whose first column equals `id` and returns column `col`.
std::int64_t CountFor(const ResultTable& t, std::int64_t id,
                      std::size_t col = 1) {
  for (std::size_t r = 0; r < t.NumRows(); ++r) {
    if (IntAt(t, r, 0) == id) return IntAt(t, r, col);
  }
  ADD_FAILURE() << "row for id " << id << " not found";
  return -1;
}

TEST(EngineTest, SquareCensusEndToEnd) {
  // Two squares sharing edge 2-3: {0,1,2,3}... build a 6-cycle plus chord
  // making exactly one 4-cycle: nodes 0-1-2-3 square, tail 4.
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN square { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }\n"
      "SELECT ID, COUNTP(square, SUBGRAPH(ID, 2)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 5u);
  EXPECT_EQ(CountFor(*result, 0), 1);
  EXPECT_EQ(CountFor(*result, 3), 1);
  // Node 4 reaches {3, 0, 2} within 2 hops but node 1 is 3 hops away.
  EXPECT_EQ(CountFor(*result, 4), 0);
}

TEST(EngineTest, RegisteredPatternUsableByName) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CountFor(*result, 0), 1);
  EXPECT_EQ(CountFor(*result, 3), 0);
}

TEST(EngineTest, InlinePatternShadowsRegistered) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));  // named clq3-unlb
  // Inline pattern with the same name but different shape (single edge).
  auto result = engine.Execute(
      "PATTERN clq3-unlb {?A-?B;}\n"
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountFor(*result, 1), 2);  // edges, not triangles
}

TEST(EngineTest, WhereFiltersFocalNodes) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 1, 0, 1});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN e {?A-?B;}\n"
      "SELECT ID, COUNTP(e, SUBGRAPH(ID, 1)) FROM nodes WHERE LABEL = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 2u);  // nodes 1 and 3 only
  EXPECT_EQ(IntAt(*result, 0, 0), 1);
  EXPECT_EQ(IntAt(*result, 1, 0), 3);
}

TEST(EngineTest, WhereRndIsDeterministicPerSeed) {
  GeneratorOptions opts;
  opts.num_nodes = 200;
  opts.seed = 61;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  QueryEngine::Options options;
  options.rnd_seed = 5;
  auto a = engine.Execute("SELECT ID FROM nodes WHERE RND() < 0.3", options);
  auto b = engine.Execute("SELECT ID FROM nodes WHERE RND() < 0.3", options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumRows(), b->NumRows());
  EXPECT_GT(a->NumRows(), 30u);
  EXPECT_LT(a->NumRows(), 90u);
}

TEST(EngineTest, CoordinatorTriadQueryEndToEnd) {
  Graph g(true);
  g.AddNodes(4);
  for (NodeId n = 0; n < 4; ++n) CheckOk(g.SetLabel(n, 2), "test fixture setup");
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 3);
  CheckOk(g.Finalize(), "test fixture setup");
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN triad {\n"
      "  ?A->?B; ?B->?C; ?A!->?C;\n"
      "  [?A.LABEL=?B.LABEL]; [?B.LABEL=?C.LABEL];\n"
      "  SUBPATTERN coordinator {?B;}\n"
      "}\n"
      "SELECT ID, COUNTSP(coordinator, triad, SUBGRAPH(ID, 0)) FROM nodes");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(CountFor(*result, 1), 2);  // 0->1->2 and 0->1->3
  EXPECT_EQ(CountFor(*result, 0), 0);
}

TEST(EngineTest, PairwiseIntersectionQuery) {
  // Path 0-1-2.
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN single_node {?A;}\n"
      "SELECT n1.ID, n2.ID,\n"
      "  COUNTP(single_node, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1))\n"
      "FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Pairs with nonzero intersection counts and n1 > n2:
  // (1,0) -> |{0,1}| = 2; (2,0) -> |{1}| = 1; (2,1) -> |{1,2}| = 2.
  ASSERT_EQ(result->NumRows(), 3u);
  std::int64_t total = 0;
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    EXPECT_GT(IntAt(*result, r, 0), IntAt(*result, r, 1));  // WHERE holds
    total += IntAt(*result, r, 2);
  }
  EXPECT_EQ(total, 5);
}

TEST(EngineTest, EngineAgreesWithDirectCensus) {
  GeneratorOptions opts;
  opts.num_nodes = 100;
  opts.num_labels = 4;
  opts.seed = 63;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(true));
  auto result = engine.Execute(
      "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes");
  ASSERT_TRUE(result.ok());

  CensusOptions census;
  census.k = 2;
  census.algorithm = CensusAlgorithm::kNdBas;
  Pattern tri = MakeTriangle(true);
  auto focal = AllNodes(g);
  auto direct = RunCensus(g, tri, focal, census);
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(result->NumRows(), g.NumNodes());
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    NodeId n = static_cast<NodeId>(IntAt(*result, r, 0));
    EXPECT_EQ(static_cast<std::uint64_t>(IntAt(*result, r, 1)),
              direct->counts[n]);
  }
}

TEST(EngineTest, ForcedAlgorithmRespected) {
  GeneratorOptions opts;
  opts.num_nodes = 80;
  opts.seed = 65;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  QueryEngine::Options options;
  options.auto_algorithm = false;
  options.census.algorithm = CensusAlgorithm::kPtBas;
  auto forced = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes", options);
  ASSERT_TRUE(forced.ok());
  auto auto_result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(auto_result.ok());
  for (std::size_t r = 0; r < forced->NumRows(); ++r) {
    EXPECT_EQ(IntAt(*forced, r, 1), IntAt(*auto_result, r, 1));
  }
}

TEST(EngineTest, RunReportsEachAggregatesStats) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(false));
  // num_matches is a matcher stat; route to the generic engine to see it.
  QueryEngine::Options options;
  options.census.fast_path = FastPathMode::kOff;
  auto run = engine.RunQuery(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes", options);
  ASSERT_TRUE(run.ok());
  ASSERT_EQ(run->aggregates.size(), 1u);
  EXPECT_EQ(run->aggregates[0].stats.num_matches, 1u);
  EXPECT_EQ(run->aggregates[0].complete, 4u);
  EXPECT_TRUE(run->Total().status.ok());

  // A routed run reports itself in stats instead.
  auto routed = engine.RunQuery(
      "SELECT ID, COUNTP(clq3-unlb, SUBGRAPH(ID, 1)) FROM nodes",
      QueryEngine::Options());
  ASSERT_TRUE(routed.ok());
  ASSERT_EQ(routed->aggregates.size(), 1u);
  EXPECT_EQ(routed->aggregates[0].stats.fastpath_routed, 1u);
  // Each aggregate carries the plan that chose its engine.
  EXPECT_EQ(routed->aggregates[0].plan.EngineName(), "fastpath");
  EXPECT_EQ(run->aggregates[0].plan.EngineName(),
            ToLower(CensusAlgorithmName(
                run->aggregates[0].plan.census.algorithm)));
  EXPECT_EQ(run->aggregates[0].plan.estimates.size(), 3u);
}

TEST(EngineTest, InterruptedRunReportsEachAggregatesStop) {
  GeneratorOptions gen;
  gen.num_nodes = 200;
  gen.num_labels = 2;
  gen.seed = 5;
  Graph g = GeneratePreferentialAttachment(gen);
  // The triangle goes to the fast path, the labeled edge to the engine the
  // plan's cost rule picks.
  const char* query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "PATTERN l {?A-?B; [?A.LABEL=0];}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)), COUNTP(l, SUBGRAPH(ID, 2)) "
      "FROM nodes";
  Governor cancelled;
  cancelled.RequestCancel();
  Governor starved;
  starved.SetMemoryLimitBytes(1);
  const struct {
    Governor* governor;
    StatusCode code;
  } cases[] = {{&cancelled, StatusCode::kCancelled},
               {&starved, StatusCode::kResourceExhausted}};
  for (const auto& c : cases) {
    SCOPED_TRACE(StatusCodeName(c.code));
    QueryEngine engine(g);
    QueryEngine::Options options;
    options.census.governor = c.governor;
    auto run = engine.RunQuery(query, options);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    const ResultTable& table = run->table;
    // Each count column gets a trailing .state column, in SELECT order.
    EXPECT_EQ(table.columns(),
              (std::vector<std::string>{"ID", "COUNTP(t,1)", "COUNTP(l,2)",
                                        "COUNTP(t,1).state",
                                        "COUNTP(l,2).state"}));
    ASSERT_EQ(run->aggregates.size(), 2u);
    for (std::size_t i = 0; i < run->aggregates.size(); ++i) {
      const AggregateExec& aggregate = run->aggregates[i];
      EXPECT_EQ(aggregate.status.code(), c.code) << "aggregate " << i;
      std::map<std::string, std::uint64_t> states;
      for (std::size_t r = 0; r < table.NumRows(); ++r) {
        ++states[std::get<std::string>(table.At(r, 3 + i))];
      }
      EXPECT_EQ(aggregate.complete, states["complete"]) << "aggregate " << i;
      EXPECT_EQ(aggregate.approx, states["approx"]) << "aggregate " << i;
      EXPECT_EQ(aggregate.pending, states["pending"]) << "aggregate " << i;
      EXPECT_EQ(aggregate.complete + aggregate.approx + aggregate.pending,
                table.NumRows());
    }
    // The run's status is the first stop; its tallies cover every row of
    // both aggregates.
    const AggregateExec total = run->Total();
    EXPECT_EQ(total.status.code(), c.code);
    EXPECT_EQ(total.status.message(), run->aggregates[0].status.message());
    EXPECT_EQ(total.complete + total.approx + total.pending,
              2 * table.NumRows());
  }
}

TEST(EngineTest, SemanticErrors) {
  Graph g = MakeGraph(2, {{0, 1}});
  QueryEngine engine(g);
  // Unknown pattern.
  EXPECT_FALSE(
      engine.Execute("SELECT COUNTP(nope, SUBGRAPH(ID, 1)) FROM nodes").ok());
  // Unknown subpattern.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A-?B;} SELECT COUNTSP(s, p, "
                            "SUBGRAPH(ID, 1)) FROM nodes")
                   .ok());
  // Pairwise neighborhood in single-table query.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A;} SELECT COUNTP(p, "
                            "SUBGRAPH-INTERSECTION(ID, ID, 1)) FROM nodes")
                   .ok());
  // Single-node neighborhood in pairwise query.
  EXPECT_FALSE(engine
                   .Execute("PATTERN p {?A;} SELECT COUNTP(p, SUBGRAPH(n1.ID, "
                            "1)) FROM nodes AS n1, nodes AS n2")
                   .ok());
  // Unknown alias in WHERE.
  EXPECT_FALSE(
      engine.Execute("SELECT ID FROM nodes WHERE zz.LABEL = 1").ok());
}

TEST(EngineTest, ResultTableSortAndCsv) {
  Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {0, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes");
  ASSERT_TRUE(result.ok());
  result->SortByColumns({{1, /*descending=*/true}});
  EXPECT_EQ(IntAt(*result, 0, 0), 0);  // hub first
  std::ostringstream os;
  result->WriteCsv(os);
  EXPECT_NE(os.str().find("ID,COUNTP(single_edge,1)"), std::string::npos);
  EXPECT_FALSE(result->ToString().empty());
}

}  // namespace
}  // namespace egocensus

namespace egocensus {
namespace {

TEST(EngineOrderLimitTest, OrderByCountDescWithLimit) {
  Graph g = testing::MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes "
      "ORDER BY 2 DESC LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 3u);
  // Node 0 has the densest ego net.
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 0)), 0);
  // Counts nonincreasing.
  for (std::size_t r = 1; r < result->NumRows(); ++r) {
    EXPECT_GE(std::get<std::int64_t>(result->At(r - 1, 1)),
              std::get<std::int64_t>(result->At(r, 1)));
  }
}

TEST(EngineOrderLimitTest, OrderAscAndMultipleKeys) {
  Graph g = testing::MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  QueryEngine engine(g);
  engine.RegisterPattern(MakeSingleEdge());
  auto result = engine.Execute(
      "SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes "
      "ORDER BY 2 ASC, 1 DESC");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->NumRows(), 4u);
  // Smallest counts first; ties broken by id descending.
  EXPECT_LE(std::get<std::int64_t>(result->At(0, 1)),
            std::get<std::int64_t>(result->At(3, 1)));
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 0)), 3);  // count 1, id desc
  EXPECT_EQ(std::get<std::int64_t>(result->At(1, 0)), 0);
}

TEST(EngineOrderLimitTest, LimitZeroAndOutOfRangeColumn) {
  Graph g = testing::MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto empty = engine.Execute("SELECT ID FROM nodes LIMIT 0");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumRows(), 0u);
  EXPECT_FALSE(engine.Execute("SELECT ID FROM nodes ORDER BY 5").ok());
  EXPECT_FALSE(engine.Execute("SELECT ID FROM nodes ORDER BY 0").ok());
}

TEST(EngineOrderLimitTest, PairwiseOrderLimit) {
  Graph g = testing::MakeGraph(3, {{0, 1}, {1, 2}});
  QueryEngine engine(g);
  auto result = engine.Execute(
      "PATTERN n {?A;}\n"
      "SELECT n1.ID, n2.ID, "
      "COUNTP(n, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) "
      "FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID "
      "ORDER BY 3 DESC LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->NumRows(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(result->At(0, 2)), 2);
}

TEST(EngineCachingTest, RepeatedQueriesConsistent) {
  GeneratorOptions opts;
  opts.num_nodes = 120;
  opts.num_labels = 4;
  opts.seed = 67;
  Graph g = GeneratePreferentialAttachment(opts);
  QueryEngine engine(g);
  engine.RegisterPattern(MakeTriangle(true));
  const char* query = "SELECT ID, COUNTP(clq3, SUBGRAPH(ID, 2)) FROM nodes";
  auto first = engine.Execute(query);
  auto second = engine.Execute(query);  // uses cached indexes
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->NumRows(), second->NumRows());
  for (std::size_t r = 0; r < first->NumRows(); ++r) {
    EXPECT_EQ(std::get<std::int64_t>(first->At(r, 1)),
              std::get<std::int64_t>(second->At(r, 1)));
  }
}

}  // namespace
}  // namespace egocensus

// ---- request options (lang/query_spec.h) --------------------------------

namespace egocensus {
namespace {

/// Sample values per wire header: valid ones, then malformed or
/// out-of-range ones. Every row of the option table needs an entry, so a
/// new option cannot slip past the parity checks.
struct OptionSamples {
  std::vector<std::string> valid;
  std::vector<std::string> bad;
};

const std::map<std::string, OptionSamples>& Samples() {
  static const auto* samples = new std::map<std::string, OptionSamples>{
      {"algorithm", {{"", "nd-bas", "PT-OPT", "pt-rnd"}, {"bogus", "nd_bas"}}},
      {"matcher", {{"", "cn", "gql", "GQL"}, {"vf2", "1"}}},
      {"fast_path", {{"", "auto", "force", "off"}, {"on", "1"}}},
      {"threads",
       {{"", "0", "1", "4", "256"},
        {"257", "4000000000", "99999999999999999999999", "-1", "abc", "2x"}}},
      {"seed",
       {{"", "0", "7", "18446744073709551615"},
        {"18446744073709551616", "x", "+7"}}},
      {"deadline_ms",
       {{"", "0", "10", "4294967295"}, {"10x", "4294967296", "-5"}}},
      {"memory_budget_mb",
       {{"", "64", "4294967295"}, {"64mb", "4294967296", " 64"}}},
      {"degrade_approx",
       {{"", "0.5", "1", "1e-3"}, {"0", "5", "1.5", "-0.1", "nan", "x"}}},
      {"top", {{"", "0", "5", "20"}, {"x", "-1", "5 "}}},
      {"format", {{"", "csv", "text"}, {"xml", "1"}}},
  };
  return *samples;
}

/// Every QuerySpec field an option can set.
auto Fields(const QuerySpec& spec) {
  const CensusOptions& census = spec.options.census;
  return std::make_tuple(spec.options.auto_algorithm, census.algorithm,
                         census.use_gql_matcher, census.fast_path,
                         census.num_threads, census.degrade_to_approx,
                         census.degrade_sample_rate, spec.options.rnd_seed,
                         spec.deadline_ms, spec.memory_budget_mb, spec.top,
                         spec.format);
}

QuerySpec MustParse(const std::map<std::string, std::string>& values,
                    OptionSurface surface) {
  auto spec = ParseQuerySpec(values, surface);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return spec.ok() ? *spec : QuerySpec{};
}

/// The spelling of the option with wire name `header` on `surface`.
std::string Key(const std::string& header, OptionSurface surface) {
  for (const QueryOption& option : QueryOptions()) {
    if (header == option.header) {
      return surface == OptionSurface::kCli ? option.flag : option.header;
    }
  }
  ADD_FAILURE() << "no option " << header;
  return header;
}

TEST(QuerySpecTest, CliAndWireFormsOfEveryValueAgree) {
  for (const QueryOption& option : QueryOptions()) {
    auto samples = Samples().find(option.header);
    ASSERT_NE(samples, Samples().end()) << option.header << " has no samples";
    for (const std::string& value : samples->second.valid) {
      SCOPED_TRACE(std::string(option.flag) + " '" + value + "'");
      std::map<std::string, std::string> flags = {{option.flag, value}};
      std::map<std::string, std::string> headers;
      ForwardQueryOptions(flags, &headers);
      EXPECT_EQ(headers.at(option.header), value);
      EXPECT_TRUE(Fields(MustParse(flags, OptionSurface::kCli)) ==
                  Fields(MustParse(headers, OptionSurface::kWire)));
    }
  }
  // With no flags the CLI prints text, and forwards that choice.
  std::map<std::string, std::string> headers;
  ForwardQueryOptions({}, &headers);
  EXPECT_EQ(headers, (std::map<std::string, std::string>{{"format", "text"}}));
  EXPECT_EQ(MustParse({}, OptionSurface::kCli).format, ResultFormat::kText);
  EXPECT_EQ(MustParse({}, OptionSurface::kWire).format, ResultFormat::kCsv);
}

TEST(QuerySpecTest, BadValuesAreInvalidArgumentNamingTheOption) {
  const OptionSurface kSurfaces[] = {OptionSurface::kCli, OptionSurface::kWire};
  for (const QueryOption& option : QueryOptions()) {
    for (const std::string& value : Samples().at(option.header).bad) {
      for (OptionSurface surface : kSurfaces) {
        std::string key = Key(option.header, surface);
        std::string name = surface == OptionSurface::kCli ? "--" + key : key;
        auto spec = ParseQuerySpec({{key, value}}, surface);
        ASSERT_FALSE(spec.ok()) << name << " '" << value << "'";
        EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(spec.status().message().rfind(name + ": ", 0), 0u)
            << spec.status().message();
      }
    }
  }
}

TEST(QuerySpecTest, EmptyValueMeansTheDocumentedDefault) {
  for (OptionSurface surface : {OptionSurface::kCli, OptionSurface::kWire}) {
    QuerySpec spec = MustParse({{Key("top", surface), ""},
                                {Key("degrade_approx", surface), ""},
                                {Key("format", surface), ""},
                                {Key("threads", surface), ""}},
                               surface);
    EXPECT_EQ(spec.top, std::optional<std::uint64_t>(20));
    EXPECT_TRUE(spec.options.census.degrade_to_approx);
    EXPECT_EQ(spec.options.census.degrade_sample_rate, 0.1);
    EXPECT_EQ(spec.format, ResultFormat::kCsv);
    EXPECT_EQ(spec.options.census.num_threads, 1u);
  }
}

TEST(QuerySpecTest, ExplicitEngineTurnsTheFastPathOffUnlessChosen) {
  EXPECT_EQ(MustParse({}, OptionSurface::kWire).options.census.fast_path,
            FastPathMode::kAuto);
  EXPECT_EQ(MustParse({{"matcher", "cn"}}, OptionSurface::kWire)
                .options.census.fast_path,
            FastPathMode::kOff);
  QuerySpec picked = MustParse({{"algorithm", "pt-opt"}}, OptionSurface::kWire);
  EXPECT_FALSE(picked.options.auto_algorithm);
  EXPECT_EQ(picked.options.census.algorithm, CensusAlgorithm::kPtOpt);
  EXPECT_EQ(picked.options.census.fast_path, FastPathMode::kOff);
  EXPECT_EQ(MustParse({{"algorithm", "pt-opt"}, {"fast_path", "force"}},
                      OptionSurface::kWire)
                .options.census.fast_path,
            FastPathMode::kForce);
}

TEST(QuerySpecTest, WriteQueryResultSortsOnTheLastCountColumn) {
  ResultTable table({"ID", "COUNTP(t,1)", "COUNTP(t,1).state"});
  table.AddRow({std::int64_t{0}, std::int64_t{1}, std::string("complete")});
  table.AddRow({std::int64_t{1}, std::int64_t{5}, std::string("pending")});
  table.AddRow({std::int64_t{2}, std::int64_t{3}, std::string("complete")});
  QuerySpec spec;
  spec.top = 1;
  std::ostringstream csv;
  WriteQueryResult(table, spec, csv);
  // csv keeps every row, sorted by the count (not by the .state column).
  EXPECT_EQ(csv.str(),
            "ID,COUNTP(t,1),COUNTP(t,1).state\n1,5,pending\n2,3,complete\n"
            "0,1,complete\n");
  spec.format = ResultFormat::kText;
  std::ostringstream text;
  WriteQueryResult(table, spec, text);
  EXPECT_EQ(text.str(), table.ToString(1));

  // Count first: the ID column after it is not a count and never sorts.
  ResultTable count_first({"COUNTSP(s,p,2)", "ID"});
  count_first.AddRow({std::int64_t{2}, std::int64_t{0}});
  count_first.AddRow({std::int64_t{0}, std::int64_t{1}});
  count_first.AddRow({std::int64_t{7}, std::int64_t{2}});
  spec.format = ResultFormat::kCsv;
  std::ostringstream ranked;
  WriteQueryResult(count_first, spec, ranked);
  EXPECT_EQ(ranked.str(), "COUNTSP(s,p,2),ID\n7,2\n2,0\n0,1\n");
}

TEST(QuerySpecTest, ServerDocListsExactlyTheQueryHeaders) {
  std::ifstream in(EGOCENSUS_REPO_DOCS "/SERVER.md");
  ASSERT_TRUE(in) << "cannot open docs/SERVER.md";
  // The header table of the "### QUERY" section: rows "| `name` | ...".
  std::set<std::string> documented;
  bool in_query = false;
  std::string line;
  while (std::getline(in, line)) {
    if (StartsWith(line, "### ")) in_query = line == "### QUERY";
    if (in_query && StartsWith(line, "| `")) {
      documented.insert(line.substr(3, line.find('`', 3) - 3));
    }
  }
  std::set<std::string> expected = {"graph", "tenant", "request_id"};
  for (const QueryOption& option : QueryOptions()) {
    expected.insert(option.header);
  }
  EXPECT_EQ(documented, expected);
}

}  // namespace
}  // namespace egocensus
