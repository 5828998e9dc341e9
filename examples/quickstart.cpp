// Quickstart: build a graph, declare a pattern, run an ego-centric pattern
// census, and inspect the result — the minimal end-to-end tour of the API.

#include <iostream>

#include "census/census.h"
#include "graph/generators.h"
#include "lang/engine.h"
#include "pattern/catalog.h"

int main() {
  using namespace egocensus;

  // 1. A synthetic social network: preferential attachment, 2000 people,
  //    ~10000 friendships, 4 community labels.
  GeneratorOptions gen;
  gen.num_nodes = 2000;
  gen.edges_per_node = 5;
  gen.num_labels = 4;
  gen.seed = 42;
  Graph graph = GeneratePreferentialAttachment(gen);
  std::cout << "graph: " << graph.NumNodes() << " nodes, " << graph.NumEdges()
            << " edges, " << graph.NumLabels() << " labels\n\n";

  // 2. Declarative route: Table I row 3 — how many squares (4-cycles) exist
  //    in each node's 2-hop neighborhood?
  QueryEngine engine(graph);
  auto result = engine.Execute(
      "PATTERN square {\n"
      "  ?A-?B; ?B-?C;\n"
      "  ?C-?D; ?D-?A;\n"
      "}\n"
      "SELECT ID, COUNTP(square, SUBGRAPH(ID, 2)) FROM nodes");
  if (!result.ok()) {
    std::cerr << "query failed: " << result.status().ToString() << "\n";
    return 1;
  }
  result->SortByColumns({{1, /*descending=*/true}});
  std::cout << "Top nodes by squares in their 2-hop ego network:\n"
            << result->ToString(10) << "\n";

  // 3. Programmatic route: the same census through the library API, with an
  //    explicit algorithm choice and execution statistics.
  Pattern triangle = MakeTriangle(/*labeled=*/false);
  CensusOptions options;
  options.algorithm = CensusAlgorithm::kNdPvot;
  options.k = 1;
  auto focal = AllNodes(graph);
  auto census = RunCensus(graph, triangle, focal, options);
  if (!census.ok()) {
    std::cerr << "census failed: " << census.status().ToString() << "\n";
    return 1;
  }
  std::uint64_t best_node = 0;
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    if (census->counts[n] > census->counts[best_node]) best_node = n;
  }
  std::cout << "ND-PVOT: " << census->stats.num_matches
            << " triangles in the graph; node " << best_node << " has "
            << census->counts[best_node]
            << " of them in its 1-hop ego network\n";
  std::cout << "timing: match " << census->stats.match_seconds << "s, census "
            << census->stats.census_seconds << "s\n";
  return 0;
}
