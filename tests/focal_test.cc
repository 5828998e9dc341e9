// The focal step (lang/where_eval.h): SelectFocal evaluates the WHERE
// clause only on the id intervals FocalCandidates narrows it to, and must
// return exactly what a scan of every node returns. A seeded generator
// builds WHERE trees over ID, LABEL, user-attribute and RND() terms and
// compares the two on a static graph and on a DynamicGraph with removed
// and added nodes. A counter test checks that a 50-id window evaluates the
// WHERE on 50 nodes whatever the graph's size.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "lang/engine.h"
#include "lang/maintain.h"
#include "lang/query_parser.h"
#include "lang/where_eval.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace egocensus {
namespace {

/// The reference the focal step must equal: EvalWhere on every live node,
/// in ascending order, with one RND() stream.
template <typename GraphT>
std::vector<NodeId> ScanFocal(const GraphT& graph, const Query& query,
                              std::uint64_t rnd_seed) {
  Rng rng(rnd_seed);
  RowBinding binding;
  binding.aliases = &query.from_aliases;
  std::vector<NodeId> focal;
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    if constexpr (requires { graph.NodeRemoved(n); }) {
      if (graph.NodeRemoved(n)) continue;
    }
    binding.n1 = n;
    if (EvalWhere(graph, query.where.get(), binding, &rng)) focal.push_back(n);
  }
  return focal;
}

Query ParseWhere(const std::string& from, const std::string& where) {
  auto query = ParseQuery(
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;} SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) "
      "FROM " +
      from + " WHERE " + where);
  EXPECT_TRUE(query.ok()) << where << ": " << query.status().ToString();
  return std::move(query).value();
}

/// Random WHERE clauses over a graph of `num_nodes` ids, queried as
/// `FROM nodes [AS alias]`.
class WhereGenerator {
 public:
  WhereGenerator(std::uint64_t seed, NodeId num_nodes, std::string alias)
      : rng_(seed), num_nodes_(num_nodes), alias_(std::move(alias)) {}

  std::string Clause(int depth) {
    switch (depth == 0 ? 3 : rng_.NextBounded(6)) {
      case 0:
        return "(" + Clause(depth - 1) + " AND " + Clause(depth - 1) + ")";
      case 1:
        return "(" + Clause(depth - 1) + " OR " + Clause(depth - 1) + ")";
      case 2:
        return "NOT " + Clause(depth - 1);
      default:
        return Term();
    }
  }

 private:
  std::string Pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.NextBounded(options.size()));
  }

  std::string Op() { return Pick({"=", "!=", "<>", "<", "<=", ">", ">="}); }

  std::string Id() {
    if (alias_.empty() || rng_.NextBool(0.5)) return "ID";
    return alias_ + ".ID";
  }

  std::string Constant() {
    const std::int64_t v = num_nodes_;
    switch (rng_.NextBounded(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
        return std::to_string(rng_.NextInRange(0, v - 1));
      case 4:
        return std::to_string(rng_.NextInRange(-3, 0));  // "-0", negatives
      case 5:
        return std::to_string(rng_.NextInRange(v - 2, v + 3));  // at |V|
      case 6:
        return Pick({"4294967295", "4294967296", "9223372036854775807",
                     "-9223372036854775807"});
      case 7:  // a double between ids, or equal to one
        return std::to_string(rng_.NextInRange(-2, v + 1)) +
               Pick({".5", ".0", ".25"});
      case 8:
        return "'" + std::to_string(rng_.NextInRange(0, v - 1)) + "'";
      default:
        return Pick({"0", "1", "2"});
    }
  }

  std::string Compare(const std::string& a, const std::string& b) {
    return rng_.NextBool(0.5) ? a + " " + Op() + " " + b
                              : b + " " + Op() + " " + a;
  }

  std::string Term() {
    switch (rng_.NextBounded(16)) {
      case 10:
        return Compare("LABEL", Pick({"0", "1", "2", "'1'"}));
      case 11:
        return Compare("WEIGHT", Pick({"0", "3", "5.5", "'x'"}));
      case 12:  // attribute against attribute
        return Compare(Id(), Pick({"LABEL", "WEIGHT", "ID"}));
      case 13:  // an alias the FROM clause does not bind
        return Compare("other.ID", Constant());
      case 14:
        return Compare("RND()", Pick({"0.5", "0.1", "0.9"}));
      default:
        return Compare(Id(), Constant());
    }
  }

  Rng rng_;
  NodeId num_nodes_;
  std::string alias_;
};

Graph AttributedGraph() {
  GeneratorOptions gen;
  gen.num_nodes = 300;
  gen.edges_per_node = 3;
  gen.num_labels = 3;
  gen.seed = 23;
  Graph graph = GeneratePreferentialAttachment(gen);
  for (NodeId n = 0; n < graph.NumNodes(); n += 7) {
    graph.node_attributes().Set(n, "WEIGHT",
                                AttributeValue(std::int64_t{n % 11}));
  }
  return graph;
}

/// Checks SelectFocal against the scan on `trials` generated clauses, for
/// both FROM forms, and returns how many clauses narrowed the candidates.
template <typename GraphT>
std::uint64_t ExpectFocalEqualsScan(const GraphT& graph, std::uint64_t seed,
                                    int trials) {
  std::uint64_t narrowed = 0;
  for (const std::string alias : {"", "n"}) {
    WhereGenerator gen(seed, graph.NumNodes(), alias);
    const std::string from = alias.empty() ? "nodes" : "nodes AS " + alias;
    for (int trial = 0; trial < trials; ++trial) {
      const std::string where = gen.Clause(trial % 4);
      const Query query = ParseWhere(from, where);
      const std::uint64_t rnd_seed = 1000 + trial;
      EXPECT_EQ(SelectFocal(graph, query, rnd_seed),
                ScanFocal(graph, query, rnd_seed))
          << "FROM " << from << " WHERE " << where;
      std::uint64_t candidates = 0;
      for (auto [begin, end] : FocalCandidates(
               query.where.get(), query.from_aliases[0], graph.NumNodes())) {
        candidates += end - begin;
      }
      if (candidates < graph.NumNodes()) ++narrowed;
    }
  }
  return narrowed;
}

TEST(FocalStepTest, EqualsTheScanOnAStaticGraph) {
  const Graph graph = AttributedGraph();
  const std::uint64_t narrowed = ExpectFocalEqualsScan(graph, 7, 600);
  // The generator must exercise the narrowing, not only the fallback.
  EXPECT_GT(narrowed, 300u);
  EXPECT_LT(narrowed, 1100u);
}

TEST(FocalStepTest, EqualsTheScanOnADynamicGraph) {
  DynamicGraph graph(AttributedGraph());
  for (NodeId n : {0u, 5u, 42u, 150u, 151u, 299u}) {
    ASSERT_TRUE(graph.RemoveNode(n).ok());
  }
  for (int i = 0; i < 8; ++i) {
    auto added = graph.AddNode(static_cast<Label>(i % 3));
    ASSERT_TRUE(added.ok());
    if (i % 2 == 0) {
      graph.node_attributes().Set(*added, "WEIGHT",
                                  AttributeValue(std::int64_t{i}));
    }
  }
  ASSERT_TRUE(graph.AddEdge(300, 301).ok());
  ASSERT_TRUE(graph.RemoveNode(303).ok());
  ASSERT_EQ(graph.NumNodes(), 308u);
  const std::uint64_t narrowed = ExpectFocalEqualsScan(graph, 8, 600);
  EXPECT_GT(narrowed, 300u);
  // A window over the added ids skips the removed one.
  const Query window = ParseWhere("nodes", "ID >= 299 AND ID < 305");
  EXPECT_EQ(SelectFocal(graph, window, 1),
            (std::vector<NodeId>{300, 301, 302, 304}));
}

TEST(FocalStepTest, CandidatesOfEachForm) {
  constexpr NodeId kNodes = 1000;
  auto candidates = [](const std::string& from, const std::string& where) {
    const Query query = ParseWhere(from, where);
    return FocalCandidates(query.where.get(), query.from_aliases[0], kNodes);
  };
  const IdRanges all = {{0, kNodes}};
  EXPECT_EQ(candidates("nodes", "ID >= 100 AND ID < 150"),
            (IdRanges{{100, 150}}));
  EXPECT_EQ(candidates("nodes AS n", "150 > n.ID AND n.ID >= 100"),
            (IdRanges{{100, 150}}));
  EXPECT_EQ(candidates("nodes", "ID = 5 OR ID = 7 OR ID = 6"),
            (IdRanges{{5, 8}}));
  EXPECT_EQ(candidates("nodes", "ID <> 3"), (IdRanges{{0, 3}, {4, kNodes}}));
  EXPECT_EQ(candidates("nodes", "ID > 2.5 AND ID <= 7.0"),
            (IdRanges{{3, 8}}));
  EXPECT_EQ(candidates("nodes", "ID = 2.5"), IdRanges{});
  EXPECT_EQ(candidates("nodes", "ID < -1 OR ID >= 4294967296"), IdRanges{});
  EXPECT_EQ(candidates("nodes", "ID > -9223372036854775807"), all);
  EXPECT_EQ(candidates("nodes", "(ID < 10 OR ID >= 990) AND ID != 995"),
            (IdRanges{{0, 10}, {990, 995}, {996, kNodes}}));
  // Terms the narrowing does not read admit every id.
  EXPECT_EQ(candidates("nodes", "NOT ID < 5"), all);
  EXPECT_EQ(candidates("nodes", "ID = '5'"), all);
  EXPECT_EQ(candidates("nodes", "LABEL = 1 AND ID = LABEL"), all);
  EXPECT_EQ(candidates("nodes AS n", "m.ID < 5"), all);
  EXPECT_EQ(candidates("nodes", "ID < 5 OR LABEL = 1"), all);
  EXPECT_EQ(candidates("nodes", "ID < 5 AND LABEL = 1"), (IdRanges{{0, 5}}));
  // RND() anywhere keeps the full scan, so its draws keep scan order.
  EXPECT_EQ(candidates("nodes", "ID < 5 AND RND() < 0.5"), all);
  EXPECT_EQ(FocalCandidates(nullptr, "", kNodes), all);
  EXPECT_EQ(FocalCandidates(nullptr, "", 0), IdRanges{});
}

std::uint64_t FocalEvaluated() {
  const obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  auto it = snap.counters.find("lang/focal/evaluated");
  return it == snap.counters.end() ? 0 : it->second;
}

/// A 50-id window evaluates the WHERE on its 50 nodes, through the static
/// engine and through MAINTAIN, at 10K and at 100K nodes.
TEST(FocalStepTest, FiftyIdWindowEvaluatesFiftyNodes) {
  const std::string query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes "
      "WHERE ID >= 4000 AND ID < 4050";
  for (std::uint32_t nodes : {10000u, 100000u}) {
    GeneratorOptions gen;
    gen.num_nodes = nodes;
    gen.edges_per_node = 2;
    gen.seed = 41;
    Graph graph = GeneratePreferentialAttachment(gen);
    obs::SetEnabled(true);
    obs::Registry::Global().Reset();
    QueryEngine engine(graph);
    auto run = engine.RunQuery(query, QueryEngine::Options());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->table.NumRows(), 50u);
    EXPECT_EQ(FocalEvaluated(), 50u) << nodes << " nodes";

    obs::Registry::Global().Reset();
    DynamicGraph dynamic(std::move(graph));
    auto session = MaintainSession::Create(&dynamic, query);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(session->CountsTable().NumRows(), 50u);
    EXPECT_EQ(FocalEvaluated(), 50u) << nodes << " nodes, MAINTAIN";
    obs::SetEnabled(false);
    obs::Registry::Global().Reset();
  }
}

}  // namespace
}  // namespace egocensus
