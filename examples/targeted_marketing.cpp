// Targeted marketing (Fig. 1(a)): a travel agency looks for the people with
// the most "couple pairs" — two married couples that are friends with each
// other — in their 2-hop network. Relationship types live on edge
// attributes (REL = 'sp' for spouse, 'fr' for friendship).

#include <iostream>

#include "graph/graph.h"
#include "lang/engine.h"
#include "util/rng.h"

int main() {
  using namespace egocensus;

  // Build a population of couples plus singles, with a friendship network
  // on top.
  Rng rng(2024);
  const std::uint32_t num_people = 1200;
  Graph graph;
  graph.AddNodes(num_people);
  // Marry consecutive pairs among the first 800 people.
  for (NodeId a = 0; a + 1 < 800; a += 2) {
    EdgeId e = graph.AddEdge(a, a + 1);
    graph.edge_attributes().Set(e, "REL", std::string("sp"));
  }
  // Random friendships.
  for (int i = 0; i < 6000; ++i) {
    NodeId a = static_cast<NodeId>(rng.NextBounded(num_people));
    NodeId b = static_cast<NodeId>(rng.NextBounded(num_people));
    if (a == b || a / 2 == b / 2) continue;  // skip self and spouse
    EdgeId e = graph.AddEdge(a, b);
    if (e != kInvalidEdge) {
      graph.edge_attributes().Set(e, "REL", std::string("fr"));
    }
  }
  CheckOk(graph.Finalize(), "example graph setup");
  std::cout << "population: " << num_people << " people, " << graph.NumEdges()
            << " relationships\n\n";

  // Fig. 1(a): couple (A,B) and couple (C,D), with friendships tying the
  // two couples together.
  QueryEngine engine(graph);
  auto result = engine.Execute(
      "PATTERN couple_pair {\n"
      "  ?A-?B; ?C-?D;\n"
      "  ?A-?C; ?B-?D;\n"
      "  [EDGE(?A,?B).REL = 'sp'];\n"
      "  [EDGE(?C,?D).REL = 'sp'];\n"
      "  [EDGE(?A,?C).REL = 'fr'];\n"
      "  [EDGE(?B,?D).REL = 'fr'];\n"
      "}\n"
      "SELECT ID, COUNTP(couple_pair, SUBGRAPH(ID, 2)) FROM nodes");
  if (!result.ok()) {
    std::cerr << "query failed: " << result.status().ToString() << "\n";
    return 1;
  }
  result->SortByColumns({{1, /*descending=*/true}});
  std::cout << "Best targets (most couple-pairs within 2 hops):\n"
            << result->ToString(10);

  std::int64_t nonzero = 0;
  for (std::size_t r = 0; r < result->NumRows(); ++r) {
    if (std::get<std::int64_t>(result->At(r, 1)) > 0) ++nonzero;
  }
  std::cout << "\n" << nonzero << " of " << num_people
            << " people have at least one couple-pair in reach\n";
  return 0;
}
