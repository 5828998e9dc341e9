// Property tests of the dynamic-update subsystem: IncrementalCensus counts
// are checked *exactly* against a from-scratch census on the equivalent
// static graph after every update batch, across random insert/delete
// streams (with no-op duplicates and node add/remove), pattern shapes
// (triangle, square, labeled, negated, COUNTSP), radii, and directedness.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "census/census.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_census.h"
#include "exec/governor.h"
#include "graph/generators.h"
#include "lang/engine.h"
#include "lang/maintain.h"
#include "obs/metrics.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace egocensus {
namespace {

Pattern MustParse(const std::string& text) {
  auto p = ParsePattern(text);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

/// From-scratch reference: ND-BAS census on the materialized static graph.
std::vector<std::uint64_t> Reference(const DynamicGraph& dg, const Pattern& p,
                                     std::uint32_t k,
                                     const std::string& subpattern) {
  Graph snapshot = dg.Materialize();
  std::vector<NodeId> focal;
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    if (!dg.NodeRemoved(n)) focal.push_back(n);
  }
  CensusOptions opts;
  opts.algorithm = CensusAlgorithm::kNdBas;
  opts.k = k;
  opts.subpattern = subpattern;
  auto r = RunCensus(snapshot, p, focal, opts);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r->counts;
}

void ExpectCountsMatchReference(const DynamicGraph& dg,
                                const IncrementalCensus& census,
                                const Pattern& p, std::uint32_t k,
                                const std::string& subpattern,
                                const std::string& context) {
  auto reference = Reference(dg, p, k, subpattern);
  ASSERT_EQ(census.counts().size(), dg.NumNodes()) << context;
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    if (dg.NodeRemoved(n)) {
      EXPECT_EQ(census.counts()[n], 0u) << context << " removed node " << n;
    } else {
      ASSERT_EQ(census.counts()[n], reference[n])
          << context << " node " << n;
    }
  }
}

struct StreamConfig {
  std::uint32_t k = 1;
  std::string subpattern;
  int num_batches = 8;
  int batch_size = 6;
  bool node_ops = false;  // also generate add-node / remove-node updates
  std::uint64_t seed = 1;
  bool use_gql_matcher = false;
};

/// Samples recorded in histogram `name` since the last registry reset.
std::uint64_t HistogramSamples(const char* name) {
  obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0 : it->second.count;
}

/// Observability on for one scope, and off again with a clean registry.
struct ScopedObs {
  ScopedObs() { SetEnabled(true); }
  ~ScopedObs() { SetEnabled(false); }
  static void SetEnabled(bool on) {
    obs::SetEnabled(on);
    obs::Registry::Global().Reset();
  }
};

/// Drives a random update stream against an IncrementalCensus, checking
/// exact agreement with the from-scratch recount after every batch. The
/// stream deliberately includes duplicate inserts and deletes of missing
/// edges (both must be exact no-ops).
void RunRandomStream(Graph base, const Pattern& pattern,
                     const StreamConfig& config) {
  DynamicGraph dg(std::move(base));
  CensusOptions opts;
  opts.k = config.k;
  opts.subpattern = config.subpattern;
  opts.use_gql_matcher = config.use_gql_matcher;
  auto census = IncrementalCensus::Create(&dg, pattern, opts);
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  // The selected matcher reaches maintenance: every batch records the
  // chosen matcher's candidate histogram and never the other's.
  ScopedObs observed;
  const char* used = config.use_gql_matcher ? "match/gql/candidate_set_size"
                                            : "match/cn/candidate_set_size";
  const char* unused = config.use_gql_matcher
                           ? "match/cn/candidate_set_size"
                           : "match/gql/candidate_set_size";
  std::uint64_t used_samples = 0;

  // Shadow state for generating valid updates; the listener-reported
  // deltas must reconstruct the maintained counts exactly.
  std::vector<char> alive(dg.NumNodes(), 1);
  std::unordered_map<NodeId, std::uint64_t> shadow;
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    shadow[n] = census->counts()[n];
  }
  census->AddListener([&shadow](const std::vector<CountDelta>& deltas) {
    for (const CountDelta& d : deltas) {
      shadow[d.node] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(shadow[d.node]) + d.delta);
      EXPECT_EQ(shadow[d.node], d.new_count);
    }
  });

  Rng rng(config.seed);
  auto random_alive = [&]() -> NodeId {
    while (true) {
      NodeId n = static_cast<NodeId>(rng.NextBounded(alive.size()));
      if (alive[n]) return n;
    }
  };

  for (int batch = 0; batch < config.num_batches; ++batch) {
    std::vector<GraphUpdate> updates;
    for (int i = 0; i < config.batch_size; ++i) {
      double roll = rng.NextDouble();
      if (!updates.empty() && roll < 0.15) {
        // Exact duplicate of the previous update: duplicate inserts and
        // re-deletes must be reported no-ops.
        GraphUpdate prev = updates.back();
        if (prev.kind == GraphUpdate::Kind::kAddEdge ||
            prev.kind == GraphUpdate::Kind::kRemoveEdge) {
          updates.push_back(prev);
          continue;
        }
      }
      if (config.node_ops && roll < 0.25) {
        updates.push_back(GraphUpdate::AddNode(0));
        alive.push_back(1);
        continue;
      }
      if (config.node_ops && roll < 0.35) {
        NodeId victim = random_alive();
        updates.push_back(GraphUpdate::RemoveNode(victim));
        alive[victim] = 0;
        continue;
      }
      NodeId u = random_alive();
      NodeId v = random_alive();
      if (u == v) {
        --i;
        continue;
      }
      if (rng.NextDouble() < 0.5) {
        updates.push_back(GraphUpdate::AddEdge(u, v));
      } else {
        updates.push_back(GraphUpdate::RemoveEdge(u, v));
      }
    }
    ScopedObs::SetEnabled(true);
    auto stats = census->ApplyBatch(updates);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->updates_applied + stats->noop_updates, updates.size());
    used_samples += HistogramSamples(used);
    EXPECT_EQ(HistogramSamples(unused), 0u) << "batch " << batch;
    ExpectCountsMatchReference(dg, *census, pattern, config.k,
                               config.subpattern,
                               "batch " + std::to_string(batch));
    // Exercise compaction mid-stream: it leaves version() alone, so the
    // maintainer keeps accepting batches.
    if (batch % 3 == 1) {
      dg.Compact();
      ASSERT_EQ(dg.DeltaSize(), 0u);
    }
  }

  EXPECT_GT(used_samples, 0u) << used;

  // The accumulated listener deltas reproduce the final counts.
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    std::uint64_t expected = n < census->counts().size()
                                 ? census->counts()[n]
                                 : 0;
    auto it = shadow.find(n);
    EXPECT_EQ(it == shadow.end() ? 0 : it->second, expected)
        << "listener-reconstructed count for node " << n;
  }
}

Graph SmallPa(std::uint32_t nodes, std::uint32_t labels, std::uint64_t seed,
              bool directed = false) {
  GeneratorOptions g;
  g.num_nodes = nodes;
  g.edges_per_node = 3;
  g.num_labels = labels;
  g.seed = seed;
  g.directed = directed;
  return GeneratePreferentialAttachment(g);
}

TEST(DynamicCensusTest, TriangleK1RandomStream) {
  StreamConfig config;
  config.k = 1;
  config.seed = 11;
  RunRandomStream(SmallPa(60, 1, 5),
                  MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}"), config);
}

TEST(DynamicCensusTest, TriangleK2RandomStream) {
  StreamConfig config;
  config.k = 2;
  config.num_batches = 6;
  config.seed = 12;
  RunRandomStream(SmallPa(50, 1, 6),
                  MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}"), config);
}

TEST(DynamicCensusTest, LabeledSquareK1) {
  StreamConfig config;
  config.k = 1;
  config.seed = 13;
  RunRandomStream(
      SmallPa(60, 3, 7),
      MustParse("PATTERN sq {?A-?B; ?B-?C; ?C-?D; ?D-?A; "
                "[?A.LABEL=0]; [?C.LABEL=1];}"),
      config);
}

TEST(DynamicCensusTest, PathSubpatternCountSp) {
  StreamConfig config;
  config.k = 1;
  config.subpattern = "mid";
  config.seed = 14;
  RunRandomStream(
      SmallPa(60, 1, 8),
      MustParse("PATTERN wedge {?A-?B; ?B-?C; SUBPATTERN mid {?B;}}"),
      config);
}

TEST(DynamicCensusTest, DirectedNegatedCoordinatorSubpattern) {
  StreamConfig config;
  config.k = 1;
  config.subpattern = "ends";
  config.num_batches = 6;
  config.seed = 15;
  for (bool use_gql : {false, true}) {
    SCOPED_TRACE(use_gql ? "gql" : "cn");
    config.use_gql_matcher = use_gql;
    RunRandomStream(
        GenerateErdosRenyi(50, 200, 2, 31, /*directed=*/true),
        MustParse("PATTERN coord {?A->?B; ?A->?C; ?B!-?C; "
                  "SUBPATTERN ends {?B; ?C;}}"),
        config);
  }
}

TEST(DynamicCensusTest, NegatedEdgeUndirectedK2) {
  StreamConfig config;
  config.k = 2;
  config.num_batches = 5;
  config.seed = 16;
  RunRandomStream(SmallPa(40, 1, 9),
                  MustParse("PATTERN open {?A-?B; ?B-?C; ?A!-?C;}"), config);
}

TEST(DynamicCensusTest, NodeAddRemoveStream) {
  StreamConfig config;
  config.k = 1;
  config.node_ops = true;
  config.num_batches = 8;
  config.seed = 17;
  for (bool use_gql : {false, true}) {
    SCOPED_TRACE(use_gql ? "gql" : "cn");
    config.use_gql_matcher = use_gql;
    RunRandomStream(SmallPa(40, 1, 10),
                    MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}"), config);
  }
}

TEST(DynamicCensusTest, DirectedTriadK1) {
  StreamConfig config;
  config.k = 1;
  config.seed = 18;
  RunRandomStream(GenerateErdosRenyi(60, 240, 1, 33, /*directed=*/true),
                  MustParse("PATTERN c {?A->?B; ?B->?C; ?C->?A;}"), config);
}

TEST(DynamicCensusTest, ExplicitNoopsAndStats) {
  Graph g = testing::MakeGraph(4, {{0, 1}, {1, 2}});
  DynamicGraph dg(std::move(g));
  CensusOptions opts;
  opts.k = 1;
  auto census = IncrementalCensus::Create(
      &dg, MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}"), opts);
  ASSERT_TRUE(census.ok());

  // Close the triangle, then re-insert the same edge (no-op) and delete a
  // missing edge (no-op).
  std::vector<GraphUpdate> updates = {
      GraphUpdate::AddEdge(0, 2),
      GraphUpdate::AddEdge(2, 0),
      GraphUpdate::RemoveEdge(1, 3),
  };
  std::vector<CountDelta> deltas;
  auto stats = census->ApplyBatch(updates, &deltas);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->updates_applied, 1u);
  EXPECT_EQ(stats->noop_updates, 2u);
  // Nodes 0,1,2 all see the new triangle in S(n,1).
  ASSERT_EQ(deltas.size(), 3u);
  for (const CountDelta& d : deltas) {
    EXPECT_EQ(d.delta, 1);
    EXPECT_EQ(d.new_count, 1u);
  }
  EXPECT_EQ(census->counts()[3], 0u);

  // Deleting an edge of the triangle reverts all three counts.
  updates = {GraphUpdate::RemoveEdge(1, 2)};
  stats = census->ApplyBatch(updates, &deltas);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(deltas.size(), 3u);
  for (const CountDelta& d : deltas) {
    EXPECT_EQ(d.delta, -1);
    EXPECT_EQ(d.new_count, 0u);
  }
}

TEST(DynamicCensusTest, AbortedBatchEndsOnItsAppliedPrefix) {
  // An invalid update aborts its batch after the valid one before it
  // applied: that prefix still reaches the listeners, and the session
  // accepts the next batch.
  DynamicGraph dg(testing::MakeGraph(5, {{0, 1}, {1, 2}}));
  const Pattern triangle = MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}");
  CensusOptions opts;
  opts.k = 1;
  auto census = IncrementalCensus::Create(&dg, triangle, opts);
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  std::vector<std::uint64_t> replayed = census->counts();
  census->AddListener([&replayed](const std::vector<CountDelta>& deltas) {
    for (const CountDelta& d : deltas) {
      replayed[d.node] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(replayed[d.node]) + d.delta);
    }
  });

  const std::vector<GraphUpdate> aborted = {GraphUpdate::AddEdge(0, 2),
                                            GraphUpdate::AddEdge(3, 3)};
  auto stats = census->ApplyBatch(aborted);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kInvalidArgument);
  ExpectCountsMatchReference(dg, *census, triangle, 1, "", "aborted batch");
  EXPECT_EQ(census->counts()[0], 1u);
  EXPECT_EQ(replayed, census->counts());
  EXPECT_EQ(census->lifetime_stats().updates_applied, 1u);

  const std::vector<GraphUpdate> next = {GraphUpdate::AddEdge(3, 4)};
  stats = census->ApplyBatch(next);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectCountsMatchReference(dg, *census, triangle, 1, "", "next batch");
  EXPECT_EQ(replayed, census->counts());
}

TEST(DynamicCensusTest, ExplicitFocalSetIsChecked) {
  DynamicGraph dg(testing::MakeGraph(5, {{0, 1}, {1, 2}, {2, 0}, {3, 4}}));
  ASSERT_TRUE(dg.RemoveNode(4).ok());
  const Pattern triangle = MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}");
  const struct {
    std::vector<NodeId> focal;
    StatusCode code;
  } cases[] = {{{0, 1, 2}, StatusCode::kOk},
               {{0, 5}, StatusCode::kOutOfRange},
               {{1, 2, 1}, StatusCode::kInvalidArgument},
               {{0, 4}, StatusCode::kInvalidArgument}};
  for (const auto& c : cases) {
    auto census =
        IncrementalCensus::Create(&dg, triangle, CensusOptions(), c.focal);
    EXPECT_EQ(census.status().code(), c.code) << census.status().ToString();
  }
}

TEST(DynamicCensusTest, RejectsEdgeAttributePatterns) {
  DynamicGraph dg(testing::MakeGraph(3, {{0, 1}}));
  Pattern p = MustParse("PATTERN s {?A-?B; [EDGE(?A,?B).SIGN = 1];}");
  auto census = IncrementalCensus::Create(&dg, p, CensusOptions());
  EXPECT_FALSE(census.ok());
  EXPECT_EQ(census.status().code(), StatusCode::kUnimplemented);
}

TEST(DynamicCensusTest, RejectsOutsideMutation) {
  DynamicGraph dg(testing::MakeGraph(4, {{0, 1}, {1, 2}}));
  auto census = IncrementalCensus::Create(
      &dg, MustParse("PATTERN e {?A-?B;}"), CensusOptions());
  ASSERT_TRUE(census.ok());
  ASSERT_TRUE(dg.AddEdge(2, 3).ok());
  std::vector<GraphUpdate> updates = {GraphUpdate::AddEdge(0, 2)};
  auto stats = census->ApplyBatch(updates);
  EXPECT_FALSE(stats.ok());
}

TEST(DynamicCensusTest, MaintainSessionEndToEnd) {
  DynamicGraph dg(SmallPa(50, 2, 21));
  QueryEngine::Options opts;
  auto session = MaintainSession::Create(
      &dg,
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes\n"
      "WHERE LABEL = 0",
      opts);
  ASSERT_TRUE(session.ok()) << session.status().ToString();

  // Focal = label-0 nodes only.
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    EXPECT_EQ(session->census().IsFocal(n), dg.label(n) == 0) << n;
  }

  // A second session, on its own copy of the graph, whose counts table
  // must take the static engine's shape: SELECT order, ORDER BY and LIMIT.
  const std::string ranked_query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "SELECT COUNTP(t, SUBGRAPH(ID, 1)), ID FROM nodes\n"
      "WHERE LABEL = 0 ORDER BY 1 DESC LIMIT 5";
  DynamicGraph ranked_dg(SmallPa(50, 2, 21));
  auto ranked = MaintainSession::Create(&ranked_dg, ranked_query, opts);
  ASSERT_TRUE(ranked.ok()) << ranked.status().ToString();
  auto csv = [](const ResultTable& table) {
    std::ostringstream os;
    table.WriteCsv(os);
    return os.str();
  };

  Rng rng(77);
  for (int round = 0; round < 5; ++round) {
    std::vector<GraphUpdate> updates;
    for (int i = 0; i < 5; ++i) {
      NodeId u = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
      NodeId v = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
      if (u == v) continue;
      updates.push_back(rng.NextDouble() < 0.6
                            ? GraphUpdate::AddEdge(u, v)
                            : GraphUpdate::RemoveEdge(u, v));
    }
    MaintainBatch batch = session->ApplyBatch(updates);
    ASSERT_TRUE(batch.ok()) << batch.status.ToString();
    ASSERT_EQ(batch.deltas.NumColumns(), 4u);

    ASSERT_TRUE(ranked->ApplyBatch(updates).ok()) << "round " << round;
    Graph ranked_snapshot = ranked_dg.Materialize();
    auto static_table = QueryEngine(ranked_snapshot).Execute(ranked_query);
    ASSERT_TRUE(static_table.ok()) << static_table.status().ToString();
    EXPECT_EQ(csv(ranked->CountsTable()), csv(*static_table))
        << "round " << round;

    // Cross-check the maintained counts against a fresh static engine run.
    Graph snapshot = dg.Materialize();
    std::vector<NodeId> focal;
    for (NodeId n = 0; n < snapshot.NumNodes(); ++n) {
      if (snapshot.label(n) == 0) focal.push_back(n);
    }
    CensusOptions ref;
    ref.algorithm = CensusAlgorithm::kNdBas;
    ref.k = 1;
    Pattern p = MustParse("PATTERN t {?A-?B; ?B-?C; ?C-?A;}");
    auto expected = RunCensus(snapshot, p, focal, ref);
    ASSERT_TRUE(expected.ok());
    for (NodeId n : focal) {
      ASSERT_EQ(session->census().counts()[n], expected->counts[n])
          << "round " << round << " node " << n;
    }
  }
}

TEST(DynamicCensusTest, MaintainSessionHonorsTheQueryOptions) {
  auto csv = [](const ResultTable& table) {
    std::ostringstream os;
    table.WriteCsv(os);
    return os.str();
  };
  // A pinned engine and thread count give the defaults' counts, before and
  // after a batch.
  const std::string query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";
  DynamicGraph defaults_dg(SmallPa(80, 1, 31));
  auto defaults = MaintainSession::Create(&defaults_dg, query);
  ASSERT_TRUE(defaults.ok()) << defaults.status().ToString();
  QueryEngine::Options pinned;
  pinned.auto_algorithm = false;
  pinned.census.algorithm = CensusAlgorithm::kNdBas;
  pinned.census.num_threads = 4;
  DynamicGraph pinned_dg(SmallPa(80, 1, 31));
  auto session = MaintainSession::Create(&pinned_dg, query, pinned);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(csv(session->CountsTable()), csv(defaults->CountsTable()));
  const std::vector<GraphUpdate> updates = {GraphUpdate::AddEdge(70, 79),
                                            GraphUpdate::AddEdge(75, 79),
                                            GraphUpdate::RemoveEdge(0, 1)};
  ASSERT_TRUE(defaults->ApplyBatch(updates).ok());
  ASSERT_TRUE(session->ApplyBatch(updates).ok());
  EXPECT_EQ(csv(session->CountsTable()), csv(defaults->CountsTable()));

  // A forced fast path on a labeled pattern fails Create as it fails the
  // static engine.
  const std::string labeled =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A; [?A.LABEL=0];}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes";
  QueryEngine::Options forced;
  forced.census.fast_path = FastPathMode::kForce;
  DynamicGraph dg(SmallPa(80, 2, 31));
  auto static_table = QueryEngine(dg.base()).Execute(labeled, forced);
  ASSERT_FALSE(static_table.ok());
  EXPECT_EQ(static_table.status().code(), StatusCode::kInvalidArgument);
  auto maintained = MaintainSession::Create(&dg, labeled, forced);
  ASSERT_FALSE(maintained.ok());
  EXPECT_EQ(maintained.status().code(), StatusCode::kInvalidArgument)
      << maintained.status().ToString();
}

TEST(DynamicCensusTest, MaintainSessionReturnsAnAbortedBatchsPrefix) {
  // `ecensus update --batch-size 4` over these updates on the CLI's
  // 200-node PA graph: the self-loop stops the batch after two updates
  // applied, and their count changes reach the caller next to the error.
  GeneratorOptions gen;
  gen.num_nodes = 200;
  gen.num_labels = 3;
  gen.seed = 7;
  DynamicGraph dg(GeneratePreferentialAttachment(gen));
  // At k = 2 the two applied edges change eight counts.
  const std::string query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";
  auto session = MaintainSession::Create(&dg, query);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  std::vector<CountDelta> heard;
  session->AddListener([&heard](const std::vector<CountDelta>& deltas) {
    heard.insert(heard.end(), deltas.begin(), deltas.end());
  });

  const std::vector<GraphUpdate> batch = {
      GraphUpdate::AddEdge(150, 199), GraphUpdate::AddEdge(160, 190),
      GraphUpdate::AddEdge(3, 3), GraphUpdate::AddEdge(170, 180)};
  const MaintainBatch result = session->ApplyBatch(batch);
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument)
      << result.status.ToString();
  EXPECT_EQ(session->census().lifetime_stats().updates_applied, 2u);
  EXPECT_EQ(result.deltas.NumRows(), 8u);
  ASSERT_EQ(result.deltas.NumRows(), heard.size());
  for (std::size_t r = 0; r < heard.size(); ++r) {
    const CountDelta& d = heard[r];
    EXPECT_EQ(std::get<std::int64_t>(result.deltas.At(r, 0)),
              static_cast<std::int64_t>(d.node));
    EXPECT_EQ(std::get<std::int64_t>(result.deltas.At(r, 1)),
              static_cast<std::int64_t>(d.new_count) - d.delta);
    EXPECT_EQ(std::get<std::int64_t>(result.deltas.At(r, 2)),
              static_cast<std::int64_t>(d.new_count));
    EXPECT_EQ(std::get<std::int64_t>(result.deltas.At(r, 3)), d.delta);
  }
  Graph snapshot = dg.Materialize();
  auto expected = QueryEngine(snapshot).Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::ostringstream maintained, reference;
  session->CountsTable().WriteCsv(maintained);
  expected->WriteCsv(reference);
  EXPECT_EQ(maintained.str(), reference.str());
}

TEST(DynamicCensusTest, MaintainSessionPlansOverNodesTheOverlayAdded) {
  // The plan samples the focal balls over a graph that holds every focal
  // id, the overlay's added nodes included.
  DynamicGraph dg(SmallPa(60, 2, 41));
  auto added = dg.AddNode(1);
  ASSERT_TRUE(added.ok());
  for (NodeId n : {0u, 1u, 2u, 3u}) ASSERT_TRUE(dg.AddEdge(*added, n).ok());
  const std::string query =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A; [?A.LABEL=1];}\n"
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes WHERE ID >= 50";
  auto session = MaintainSession::Create(&dg, query);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_TRUE(session->census().IsFocal(*added));
  Graph snapshot = dg.Materialize();
  auto expected = QueryEngine(snapshot).Execute(query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::ostringstream maintained, reference;
  session->CountsTable().WriteCsv(maintained);
  expected->WriteCsv(reference);
  EXPECT_EQ(maintained.str(), reference.str());
}

TEST(DynamicCensusTest, MaintainSessionCreateStopsWithItsGovernor) {
  // The initial census runs under the session's governor: a stop there
  // fails creation with the governor's code instead of seeding the
  // maintainer with lower-bound counts.
  const std::string query =
      "PATTERN c {?A-?B; ?B-?C; ?C-?D; ?D-?A; [?A.LABEL=0];}\n"
      "SELECT ID, COUNTP(c, SUBGRAPH(ID, 1)) FROM nodes";
  Governor expired;
  expired.SetDeadline(Deadline::AtMicros(1));
  Governor cancelled;
  cancelled.RequestCancel();
  const struct {
    Governor* governor;
    StatusCode code;
  } cases[] = {{&expired, StatusCode::kDeadlineExceeded},
               {&cancelled, StatusCode::kCancelled}};
  for (const auto& c : cases) {
    DynamicGraph dg(SmallPa(200, 3, 23));
    QueryEngine::Options opts;
    opts.census.governor = c.governor;
    auto session = MaintainSession::Create(&dg, query, opts);
    ASSERT_FALSE(session.ok());
    EXPECT_EQ(session.status().code(), c.code)
        << session.status().ToString();
  }
}

}  // namespace
}  // namespace egocensus
