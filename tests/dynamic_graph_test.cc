// Unit tests of the DynamicGraph overlay: accessor agreement with the
// materialized static graph under random mutation, no-op and error
// semantics, tombstoned node removal, compaction, and the dynamic subgraph
// extractor.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace egocensus {
namespace {

std::vector<NodeId> ToVec(std::span<const NodeId> s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

/// Checks every topology accessor of `dg` against the equivalent fully
/// static graph.
void ExpectMatchesMaterialized(const DynamicGraph& dg) {
  Graph snap = dg.Materialize();
  ASSERT_EQ(snap.NumNodes(), dg.NumNodes());
  ASSERT_EQ(snap.NumEdges(), dg.NumEdges());
  ASSERT_EQ(snap.directed(), dg.directed());
  for (NodeId n = 0; n < dg.NumNodes(); ++n) {
    EXPECT_EQ(snap.label(n), dg.label(n)) << n;
    EXPECT_EQ(ToVec(snap.OutNeighbors(n)), ToVec(dg.OutNeighbors(n))) << n;
    EXPECT_EQ(ToVec(snap.InNeighbors(n)), ToVec(dg.InNeighbors(n))) << n;
    EXPECT_EQ(ToVec(snap.Neighbors(n)), ToVec(dg.Neighbors(n))) << n;
    EXPECT_EQ(snap.Degree(n), dg.Degree(n)) << n;
  }
  for (NodeId u = 0; u < dg.NumNodes(); ++u) {
    for (NodeId v = 0; v < dg.NumNodes(); ++v) {
      EXPECT_EQ(snap.HasEdge(u, v), dg.HasEdge(u, v)) << u << "->" << v;
      EXPECT_EQ(snap.HasUndirectedEdge(u, v), dg.HasUndirectedEdge(u, v))
          << u << "-" << v;
    }
  }
}

void RandomMutationAgreement(bool directed, std::uint64_t seed) {
  Graph base = GenerateErdosRenyi(25, 60, 2, seed, directed);
  DynamicGraph dg(std::move(base));
  Rng rng(seed * 31 + 7);
  for (int step = 0; step < 120; ++step) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
    double roll = rng.NextDouble();
    if (u == v) continue;
    if (roll < 0.45) {
      auto r = dg.AddEdge(u, v);
      if (!dg.NodeRemoved(u) && !dg.NodeRemoved(v)) {
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      }
    } else if (roll < 0.85) {
      auto r = dg.RemoveEdge(u, v);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    } else if (roll < 0.93) {
      auto id = dg.AddNode(static_cast<Label>(rng.NextBounded(2)));
      ASSERT_TRUE(id.ok());
    } else {
      auto r = dg.RemoveNode(u);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    if (step % 40 == 17) dg.Compact();
    if (step % 10 == 0) ExpectMatchesMaterialized(dg);
  }
  ExpectMatchesMaterialized(dg);
}

TEST(DynamicGraphTest, UndirectedRandomMutationAgreement) {
  RandomMutationAgreement(false, 3);
}

TEST(DynamicGraphTest, DirectedRandomMutationAgreement) {
  RandomMutationAgreement(true, 4);
}

TEST(DynamicGraphTest, NoopAndErrorSemantics) {
  DynamicGraph dg(testing::MakeGraph(4, {{0, 1}, {1, 2}}));

  auto dup = dg.AddEdge(0, 1);
  ASSERT_TRUE(dup.ok());
  EXPECT_FALSE(dup.value());  // duplicate insert: reported no-op

  auto missing = dg.RemoveEdge(0, 3);
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(missing.value());  // missing delete: reported no-op

  EXPECT_FALSE(dg.AddEdge(2, 2).ok());   // self-loop
  EXPECT_FALSE(dg.AddEdge(0, 99).ok());  // out of range
  EXPECT_FALSE(dg.RemoveEdge(99, 0).ok());

  EXPECT_EQ(dg.NumEdges(), 2u);
  EXPECT_EQ(dg.version(), 0u);  // nothing above mutated the graph
}

TEST(DynamicGraphTest, RemoveNodeTombstones) {
  DynamicGraph dg(testing::MakeGraph(4, {{0, 1}, {1, 2}, {1, 3}}));
  auto removed = dg.RemoveNode(1);
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(removed.value());

  EXPECT_TRUE(dg.NodeRemoved(1));
  EXPECT_EQ(dg.NumNodes(), 4u);  // id stays allocated
  EXPECT_EQ(dg.NumEdges(), 0u);
  EXPECT_EQ(dg.Degree(1), 0u);
  EXPECT_TRUE(dg.Neighbors(0).empty());

  // Mutating through a tombstoned node is an error; re-removal is a no-op.
  EXPECT_FALSE(dg.AddEdge(0, 1).ok());
  auto again = dg.RemoveNode(1);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());

  // Materialize keeps the id as an isolated node.
  Graph snap = dg.Materialize();
  EXPECT_EQ(snap.NumNodes(), 4u);
  EXPECT_EQ(snap.Degree(1), 0u);
}

TEST(DynamicGraphTest, CompactClearsDeltaAndPreservesTopology) {
  DynamicGraph dg(testing::MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}}));
  ASSERT_TRUE(dg.AddEdge(3, 4).ok());
  ASSERT_TRUE(dg.RemoveEdge(0, 1).ok());
  ASSERT_TRUE(dg.AddNode(7).ok());
  EXPECT_GT(dg.DeltaSize(), 0u);
  std::uint64_t version = dg.version();

  Graph before = dg.Materialize();
  dg.Compact();
  EXPECT_EQ(dg.DeltaSize(), 0u);
  EXPECT_EQ(dg.version(), version);  // compaction is not a mutation
  Graph after = dg.Materialize();

  ASSERT_EQ(before.NumNodes(), after.NumNodes());
  ASSERT_EQ(before.NumEdges(), after.NumEdges());
  for (NodeId n = 0; n < before.NumNodes(); ++n) {
    EXPECT_EQ(before.label(n), after.label(n));
    EXPECT_EQ(ToVec(before.Neighbors(n)), ToVec(after.Neighbors(n)));
  }
  EXPECT_EQ(dg.NumLabels(), 8u);  // label 7 via the added node
}

TEST(DynamicGraphTest, ApplyDispatchesUpdates) {
  DynamicGraph dg(testing::MakeGraph(3, {{0, 1}}));
  NodeId added = kInvalidNode;
  ASSERT_TRUE(dg.Apply(GraphUpdate::AddNode(2), &added).ok());
  EXPECT_EQ(added, 3u);
  ASSERT_TRUE(dg.Apply(GraphUpdate::AddEdge(2, 3)).ok());
  ASSERT_TRUE(dg.Apply(GraphUpdate::RemoveEdge(0, 1)).ok());
  ASSERT_TRUE(dg.Apply(GraphUpdate::RemoveNode(0)).ok());
  EXPECT_TRUE(dg.NodeRemoved(0));
  EXPECT_TRUE(dg.HasEdge(2, 3));
  EXPECT_EQ(dg.NumEdges(), 1u);
}

TEST(DynamicGraphTest, DirectedViewsTrackReverseArcs) {
  Graph base(true);
  base.AddNodes(3);
  base.AddEdge(0, 1);
  CheckOk(base.Finalize(), "test fixture setup");
  DynamicGraph dg(std::move(base));

  // Adding the reverse arc must not duplicate the undirected view entry.
  ASSERT_TRUE(dg.AddEdge(1, 0).ok());
  EXPECT_EQ(ToVec(dg.Neighbors(0)), std::vector<NodeId>({1}));
  EXPECT_EQ(ToVec(dg.OutNeighbors(0)), std::vector<NodeId>({1}));
  EXPECT_EQ(ToVec(dg.InNeighbors(0)), std::vector<NodeId>({1}));

  // Removing one arc keeps the undirected adjacency (other arc remains).
  ASSERT_TRUE(dg.RemoveEdge(0, 1).ok());
  EXPECT_FALSE(dg.HasEdge(0, 1));
  EXPECT_TRUE(dg.HasEdge(1, 0));
  EXPECT_TRUE(dg.HasUndirectedEdge(0, 1));
  EXPECT_EQ(ToVec(dg.Neighbors(0)), std::vector<NodeId>({1}));

  ASSERT_TRUE(dg.RemoveEdge(1, 0).ok());
  EXPECT_FALSE(dg.HasUndirectedEdge(0, 1));
  EXPECT_TRUE(dg.Neighbors(0).empty());
}

TEST(DynamicGraphTest, DynamicExtractorMatchesStaticExtractor) {
  Graph base = GenerateErdosRenyi(40, 120, 3, 77);
  DynamicGraph dg(std::move(base));
  Rng rng(5);
  for (int step = 0; step < 40; ++step) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.NextBounded(dg.NumNodes()));
    if (u == v) continue;
    if (rng.NextDouble() < 0.5) {
      ASSERT_TRUE(dg.AddEdge(u, v).ok());
    } else {
      ASSERT_TRUE(dg.RemoveEdge(u, v).ok());
    }
  }

  // The two instantiations of the one extractor: over the overlay and over
  // its materialized CSR snapshot.
  Graph snap = dg.Materialize();
  SubgraphExtractor dynamic_extractor(dg);
  SubgraphExtractor static_extractor(snap);
  for (NodeId n = 0; n < dg.NumNodes(); n += 7) {
    for (std::uint32_t k : {1u, 2u}) {
      EgoSubgraph a = dynamic_extractor.ExtractKHop(n, k, false);
      EgoSubgraph b = static_extractor.ExtractKHop(n, k, false);
      ASSERT_EQ(a.to_global.size(), b.to_global.size()) << n << " k=" << k;
      // Same node set (order may differ only if BFS tie-breaking differed;
      // both expand sorted adjacency, so order matches too).
      EXPECT_EQ(a.to_global, b.to_global);
      ASSERT_EQ(a.graph.NumEdges(), b.graph.NumEdges());
      for (NodeId l = 0; l < a.graph.NumNodes(); ++l) {
        EXPECT_EQ(a.graph.label(l), b.graph.label(l));
        EXPECT_EQ(ToVec(a.graph.Neighbors(l)), ToVec(b.graph.Neighbors(l)));
      }
    }
  }
}

}  // namespace
}  // namespace egocensus
