#include "graph/graph.h"

#include <gtest/gtest.h>

#include "dynamic/dynamic_graph.h"
#include "tests/test_util.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

TEST(GraphTest, EmptyGraph) {
  Graph g;
  CheckOk(g.Finalize(), "test fixture setup");
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.NumLabels(), 1u);
}

TEST(GraphTest, UndirectedBasics) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.NumNodes(), 4u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));  // undirected symmetry
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(0), 2u);
  auto nbrs = g.Neighbors(1);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 0u);  // sorted
  EXPECT_EQ(nbrs[1], 2u);
}

TEST(GraphTest, DirectedAdjacency) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}}, {}, /*directed=*/true);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasUndirectedEdge(1, 0));
  EXPECT_EQ(g.OutNeighbors(1).size(), 1u);
  EXPECT_EQ(g.InNeighbors(1).size(), 1u);
  EXPECT_EQ(g.Neighbors(1).size(), 2u);  // combined view
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(GraphTest, DirectedCombinedViewDeduplicates) {
  // Both directions present: combined view must list the neighbor once.
  Graph g = MakeGraph(2, {{0, 1}, {1, 0}}, {}, /*directed=*/true);
  EXPECT_EQ(g.Neighbors(0).size(), 1u);
  EXPECT_EQ(g.OutNeighbors(0).size(), 1u);
  EXPECT_EQ(g.InNeighbors(0).size(), 1u);
}

TEST(GraphTest, SelfLoopRejected) {
  Graph g;
  g.AddNodes(2);
  EXPECT_EQ(g.AddEdge(0, 0), kInvalidEdge);
  EXPECT_EQ(g.AddEdge(0, 5), kInvalidEdge);
  EXPECT_NE(g.AddEdge(0, 1), kInvalidEdge);
  CheckOk(g.Finalize(), "test fixture setup");
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, EdgeEndpointsPreserved) {
  Graph g = MakeGraph(3, {{2, 0}, {1, 2}});
  auto [u, v] = g.EdgeEndpoints(0);
  EXPECT_EQ(u, 2u);
  EXPECT_EQ(v, 0u);
}

TEST(GraphTest, FindEdgeReturnsId) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  auto e = g.FindEdge(1, 2);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 1u);
  EXPECT_FALSE(g.FindEdge(0, 2).has_value());
  // Undirected: reverse direction resolves too.
  EXPECT_TRUE(g.FindEdge(2, 1).has_value());
}

TEST(GraphTest, LabelsAndNumLabels) {
  Graph g = MakeGraph(3, {{0, 1}}, {0, 2, 1});
  EXPECT_EQ(g.label(1), 2u);
  EXPECT_EQ(g.NumLabels(), 3u);
}

TEST(GraphTest, LabelAttributeFastPath) {
  Graph g = MakeGraph(2, {{0, 1}}, {3, 1});
  auto v = g.GetNodeAttribute(0, "label");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*v), 3);
  auto id = g.GetNodeAttribute(1, "ID");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*id), 1);
}

TEST(GraphTest, DynamicNodeAttributes) {
  Graph g = MakeGraph(2, {{0, 1}});
  g.node_attributes().Set(0, "age", std::int64_t{30});
  g.node_attributes().Set(1, "name", std::string("bob"));
  auto age = g.GetNodeAttribute(0, "AGE");  // case-insensitive
  ASSERT_TRUE(age.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*age), 30);
  EXPECT_FALSE(g.GetNodeAttribute(1, "AGE").has_value());
  auto name = g.GetNodeAttribute(1, "NAME");
  ASSERT_TRUE(name.has_value());
  EXPECT_EQ(std::get<std::string>(*name), "bob");
}

TEST(GraphTest, EdgeAttributes) {
  Graph g;
  g.AddNodes(3);
  EdgeId e0 = g.AddEdge(0, 1);
  EdgeId e1 = g.AddEdge(1, 2);
  g.edge_attributes().Set(e0, "sign", std::int64_t{1});
  g.edge_attributes().Set(e1, "sign", std::int64_t{-1});
  CheckOk(g.Finalize(), "test fixture setup");
  auto found = g.FindEdge(1, 2);
  ASSERT_TRUE(found.has_value());
  auto sign = g.edge_attributes().Get(*found, "SIGN");
  ASSERT_TRUE(sign.has_value());
  EXPECT_EQ(std::get<std::int64_t>(*sign), -1);
}

TEST(GraphTest, OutEdgeIdsParallelToNeighbors) {
  Graph g = MakeGraph(4, {{0, 3}, {0, 1}, {0, 2}});
  auto nbrs = g.OutNeighbors(0);
  auto eids = g.OutEdgeIds(0);
  ASSERT_EQ(nbrs.size(), eids.size());
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    auto [u, v] = g.EdgeEndpoints(eids[i]);
    EXPECT_TRUE((u == 0 && v == nbrs[i]) || (v == 0 && u == nbrs[i]));
  }
}

TEST(GraphTest, CopyIsIndependent) {
  Graph g = MakeGraph(3, {{0, 1}});
  Graph copy = g;
  EXPECT_EQ(copy.NumEdges(), 1u);
  EXPECT_TRUE(copy.HasEdge(0, 1));
}

TEST(GraphTest, FinalizeRecordsParallelEdges) {
  Graph simple = MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_FALSE(simple.has_parallel_edges());

  Graph multi = MakeGraph(3, {{0, 1}, {1, 2}, {1, 0}});
  EXPECT_TRUE(multi.has_parallel_edges());
  Graph copy = multi;
  EXPECT_TRUE(copy.has_parallel_edges());
  EXPECT_TRUE(DynamicGraph(multi).Materialize().has_parallel_edges());
  EXPECT_FALSE(DynamicGraph(simple).Materialize().has_parallel_edges());

  // Reset clears the flag; the next Finalize records the new topology.
  multi.Reset(/*directed=*/false);
  EXPECT_FALSE(multi.has_parallel_edges());
  multi.AddNodes(2);
  multi.AddEdge(0, 1);
  ASSERT_TRUE(multi.Finalize().ok());
  EXPECT_FALSE(multi.has_parallel_edges());
}

TEST(GraphTest, DoubleFinalizeIsStatusError) {
  Graph g;
  g.AddNodes(2);
  EXPECT_TRUE(g.Finalize().ok());
  Status again = g.Finalize();
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, MutationAfterFinalizeIsGuarded) {
  Graph g;
  g.AddNodes(3);
  g.AddEdge(0, 1);
  ASSERT_TRUE(g.Finalize().ok());

  // Build-phase mutations after finalize fail without corrupting state.
  EXPECT_EQ(g.AddNode(1), kInvalidNode);
  EXPECT_EQ(g.AddNodes(4), kInvalidNode);
  EXPECT_EQ(g.AddEdge(1, 2), kInvalidEdge);
  Status set = g.SetLabel(0, 2);
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.code(), StatusCode::kInvalidArgument);

  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_EQ(g.label(0), 0u);
}

TEST(GraphTest, SetLabelOutOfRangeIsStatusError) {
  Graph g;
  g.AddNodes(2);
  Status set = g.SetLabel(5, 1);
  EXPECT_FALSE(set.ok());
  EXPECT_EQ(set.code(), StatusCode::kOutOfRange);
}

TEST(AttributeValueTest, NumericCoercion) {
  EXPECT_TRUE(AttributeValuesEqual(AttributeValue(std::int64_t{3}),
                                   AttributeValue(3.0)));
  EXPECT_FALSE(AttributeValuesEqual(AttributeValue(std::int64_t{3}),
                                    AttributeValue(3.5)));
  EXPECT_TRUE(AttributeValuesEqual(AttributeValue(std::string("a")),
                                   AttributeValue(std::string("a"))));
  EXPECT_FALSE(AttributeValuesEqual(AttributeValue(std::string("3")),
                                    AttributeValue(std::int64_t{3})));
}

TEST(AttributeValueTest, Compare) {
  auto cmp = CompareAttributeValues(AttributeValue(std::int64_t{2}),
                                    AttributeValue(5.0));
  ASSERT_TRUE(cmp.has_value());
  EXPECT_LT(*cmp, 0);
  auto strcmp_result = CompareAttributeValues(AttributeValue(std::string("b")),
                                              AttributeValue(std::string("a")));
  ASSERT_TRUE(strcmp_result.has_value());
  EXPECT_GT(*strcmp_result, 0);
  EXPECT_FALSE(CompareAttributeValues(AttributeValue(std::string("a")),
                                      AttributeValue(1.0))
                   .has_value());
}

TEST(AttributeTableTest, CopyFrom) {
  AttributeTable src, dst;
  src.Set(5, "X", std::int64_t{7});
  src.Set(5, "Y", std::string("s"));
  src.Set(6, "X", std::int64_t{8});
  dst.CopyFrom(src, 5, 0);
  EXPECT_EQ(std::get<std::int64_t>(*dst.Get(0, "X")), 7);
  EXPECT_EQ(std::get<std::string>(*dst.Get(0, "Y")), "s");
  EXPECT_FALSE(dst.Get(1, "X").has_value());
}

TEST(AttributeTableTest, AttributeNames) {
  AttributeTable t;
  t.Set(0, "alpha", std::int64_t{1});
  t.Set(1, "Beta", 2.0);
  auto names = t.AttributeNames();
  EXPECT_EQ(names.size(), 2u);
  EXPECT_TRUE(t.Has(0, "ALPHA"));
  EXPECT_TRUE(t.Has(1, "beta"));
}

}  // namespace
}  // namespace egocensus
