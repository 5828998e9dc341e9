// Fast-path ablation (docs/FAST_PATH.md): for every connected <= 4-node
// shape, the same whole-graph census at radius --k (default 1) through the
// combinatorial kernels, the generic engine (ND-PVOT) with the CN matcher,
// and the generic engine with the GQL matcher. Emits a JSON document
// (stdout) with per-shape wall-clock, speedup-vs-CN / speedup-vs-GQL, and a
// bit_identical flag comparing the fast-path counts against the CN
// reference — CI runs this on a tiny graph at k=1 and k=2 and asserts
// bit_identical for every shape.
//
//   fastpath_ablation [--nodes N] [--edges-per-node M] [--k K] [--reps R]
//
// The defaults (3,000 nodes scaled by ECENSUS_SCALE, 1 rep) are the scale
// of EXPERIMENTS.md's ablation table; the GQL column dominates the run.

#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/generators.h"
#include "pattern/pattern_parser.h"
#include "pattern/shape.h"

int main(int argc, char** argv) {
  using namespace egocensus;
  using namespace egocensus::bench;
  InitObsFromEnv();

  std::uint32_t nodes = Scaled(3000);
  std::uint32_t edges_per_node = 5;
  std::uint32_t k = 1;
  int reps = 1;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--edges-per-node") == 0) {
      edges_per_node = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--k") == 0) {
      k = static_cast<std::uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--reps") == 0) {
      reps = std::atoi(argv[i + 1]);
    } else {
      std::cerr << "unknown flag " << argv[i] << "\n";
      return 2;
    }
  }

  GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = edges_per_node;
  gen.seed = 23;
  Graph graph = GeneratePreferentialAttachment(gen);
  auto focal = AllNodes(graph);

  struct ShapeBench {
    const char* label;
    const char* text;
  };
  const ShapeBench shapes[] = {
      {"edge", "PATTERN p {?A-?B;}"},
      {"wedge", "PATTERN p {?A-?B; ?B-?C;}"},
      {"triangle", "PATTERN p {?A-?B; ?B-?C; ?C-?A;}"},
      {"path4", "PATTERN p {?A-?B; ?B-?C; ?C-?D;}"},
      {"claw", "PATTERN p {?A-?B; ?A-?C; ?A-?D;}"},
      {"paw", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?A-?D;}"},
      {"cycle4", "PATTERN p {?A-?B; ?B-?C; ?C-?D; ?D-?A;}"},
      {"diamond", "PATTERN p {?A-?B; ?B-?C; ?C-?A; ?B-?D; ?C-?D;}"},
      {"clique4", "PATTERN p {?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D;}"},
  };

  std::cout << "{\n  \"bench\": \"fastpath_ablation\",\n"
            << "  \"nodes\": " << graph.NumNodes()
            << ", \"edges\": " << graph.NumEdges() << ", \"k\": " << k
            << ", \"reps\": " << reps << ",\n  \"shapes\": [\n";
  bool all_identical = true;
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    auto pattern = ParsePattern(shapes[i].text);
    if (!pattern.ok()) {
      std::cerr << pattern.status().ToString() << "\n";
      return 1;
    }

    CensusOptions cn;
    cn.fast_path = FastPathMode::kOff;
    cn.algorithm = CensusAlgorithm::kNdPvot;
    cn.k = k;
    CensusOptions gql = cn;
    gql.use_gql_matcher = true;
    CensusOptions fast;
    fast.fast_path = FastPathMode::kForce;
    fast.k = k;

    double cn_s = TimeCensusBestOf(graph, *pattern, focal, cn, reps);
    double gql_s = TimeCensusBestOf(graph, *pattern, focal, gql, reps);
    double fast_s = TimeCensusBestOf(graph, *pattern, focal, fast, reps);

    // Bit-identity check outside the timed loop.
    auto reference = RunCensus(graph, *pattern, focal, cn);
    auto routed = RunCensus(graph, *pattern, focal, fast);
    if (!reference.ok() || !routed.ok()) {
      std::cerr << "census failed for " << shapes[i].label << "\n";
      return 1;
    }
    bool identical = reference->counts == routed->counts;
    all_identical = all_identical && identical;

    std::cout << "    {\"shape\": \"" << shapes[i].label << "\""
              << ", \"fastpath_s\": " << fast_s << ", \"cn_s\": " << cn_s
              << ", \"gql_s\": " << gql_s
              << ", \"speedup_vs_cn\": " << (fast_s > 0 ? cn_s / fast_s : 0)
              << ", \"speedup_vs_gql\": " << (fast_s > 0 ? gql_s / fast_s : 0)
              << ", \"bit_identical\": " << (identical ? "true" : "false")
              << "}" << (i + 1 < std::size(shapes) ? "," : "") << "\n";
  }
  std::cout << "  ],\n  \"all_bit_identical\": "
            << (all_identical ? "true" : "false") << "\n}\n";
  return all_identical ? 0 : 1;
}
