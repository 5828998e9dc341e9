// Parallel scaling: census runtime vs thread count on the Fig. 4(c)
// (unlabeled clq3, non-selective) and Fig. 4(d) (labeled clq3, selective)
// workloads, k=2, all nodes, prebuilt 12-center index. Sweeps 1 -> N
// threads (N = max(8, hardware)) and emits a JSON document of per-algorithm
// speedup curves, verifying along the way that every parallel run produces
// counts bit-identical to the single-threaded baseline.
//
// Speedup saturates at the number of physical cores; on a single-core
// machine the curves are flat (the runs still exercise the parallel code
// paths and the determinism check).

#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "graph/distance_index.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "util/table_printer.h"
#include "util/parallel_for.h"

namespace {

using namespace egocensus;
using namespace egocensus::bench;

struct AlgorithmSpec {
  const char* name;
  CensusAlgorithm algorithm;
};

std::vector<unsigned> ThreadSweep() {
  unsigned max_threads = std::max(8u, HardwareThreads());
  std::vector<unsigned> sweep;
  for (unsigned t = 1; t < max_threads; t *= 2) sweep.push_back(t);
  sweep.push_back(max_threads);
  return sweep;
}

std::string JsonList(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += TablePrinter::FormatDouble(v[i], 4);
  }
  return out + "]";
}

/// Runs every algorithm of `specs` on (graph, pattern) across the thread
/// sweep and prints one JSON workload object.
void RunWorkload(const std::string& figure, const Graph& graph,
                 const Pattern& pattern, const CenterDistanceIndex& index,
                 const std::vector<AlgorithmSpec>& specs, bool last) {
  auto focal = AllNodes(graph);
  const std::vector<unsigned> sweep = ThreadSweep();

  std::cout << "    {\"figure\": \"" << figure
            << "\", \"nodes\": " << graph.NumNodes() << ", \"threads\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::cout << (i > 0 ? ", " : "") << sweep[i];
  }
  std::cout << "],\n     \"series\": [\n";

  for (std::size_t a = 0; a < specs.size(); ++a) {
    const AlgorithmSpec& spec = specs[a];
    std::vector<double> seconds;
    std::vector<double> speedup;
    std::vector<std::uint64_t> baseline_counts;
    bool bit_identical = true;
    std::uint64_t matches = 0;
    for (unsigned t : sweep) {
      CensusOptions opts;
      opts.algorithm = spec.algorithm;
      opts.k = 2;
      opts.center_index = &index;
      opts.num_threads = t;
      Timer timer;
      auto result = RunCensus(graph, pattern, focal, opts);
      double secs = timer.ElapsedSeconds();
      if (!result.ok()) {
        std::cerr << "census failed: " << result.status().ToString() << "\n";
        std::exit(1);
      }
      matches = result->stats.num_matches;
      seconds.push_back(secs);
      speedup.push_back(seconds.front() / secs);
      if (t == sweep.front()) {
        baseline_counts = result->counts;
      } else if (result->counts != baseline_counts) {
        bit_identical = false;
      }
    }
    std::cout << "      {\"algorithm\": \"" << spec.name
              << "\", \"matches\": " << matches
              << ", \"seconds\": " << JsonList(seconds)
              << ",\n       \"speedup\": " << JsonList(speedup)
              << ", \"bit_identical\": " << (bit_identical ? "true" : "false")
              << "}" << (a + 1 < specs.size() ? "," : "") << "\n";
    if (!bit_identical) {
      std::cerr << figure << " " << spec.name
                << ": parallel counts DIVERGED from single-threaded run\n";
    }
  }
  std::cout << "    ]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main() {
  std::cerr << "parallel scaling sweep (hardware threads: "
            << HardwareThreads()
            << "; set ECENSUS_SCALE to resize graphs)\n";

  std::cout << "{\n  \"hardware_threads\": " << HardwareThreads()
            << ",\n  \"workloads\": [\n";

  {
    // Fig. 4(c) workload: unlabeled PA graph, non-selective triangle.
    GeneratorOptions gen;
    gen.num_nodes = Scaled(8000);
    gen.edges_per_node = 5;
    gen.seed = 21;
    Graph graph = GeneratePreferentialAttachment(gen);
    CenterDistanceIndex index =
        CenterDistanceIndex::Build(graph, PickHighestDegreeCenters(graph, 12));
    Pattern pattern = MakeTriangle(false);
    RunWorkload("4c", graph, pattern, index,
                {{"nd-pvot", CensusAlgorithm::kNdPvot},
                 {"nd-diff", CensusAlgorithm::kNdDiff},
                 {"pt-bas", CensusAlgorithm::kPtBas},
                 {"pt-opt", CensusAlgorithm::kPtOpt},
                 {"pt-rnd", CensusAlgorithm::kPtRnd}},
                /*last=*/false);
  }
  {
    // ND-BAS separately at a smaller size (it is ~2 orders of magnitude
    // slower; its per-node extract+match loop parallelizes the best).
    GeneratorOptions gen;
    gen.num_nodes = Scaled(2000);
    gen.edges_per_node = 5;
    gen.seed = 21;
    Graph graph = GeneratePreferentialAttachment(gen);
    CenterDistanceIndex index =
        CenterDistanceIndex::Build(graph, PickHighestDegreeCenters(graph, 12));
    Pattern pattern = MakeTriangle(false);
    RunWorkload("4c-small", graph, pattern, index,
                {{"nd-bas", CensusAlgorithm::kNdBas}},
                /*last=*/false);
  }
  {
    // Fig. 4(d) workload: labeled PA graph, selective triangle.
    GeneratorOptions gen;
    gen.num_nodes = Scaled(20000);
    gen.edges_per_node = 5;
    gen.num_labels = 4;
    gen.seed = 22;
    Graph graph = GeneratePreferentialAttachment(gen);
    CenterDistanceIndex index =
        CenterDistanceIndex::Build(graph, PickHighestDegreeCenters(graph, 12));
    Pattern pattern = MakeTriangle(true);
    RunWorkload("4d", graph, pattern, index,
                {{"nd-pvot", CensusAlgorithm::kNdPvot},
                 {"nd-diff", CensusAlgorithm::kNdDiff},
                 {"pt-bas", CensusAlgorithm::kPtBas},
                 {"pt-opt", CensusAlgorithm::kPtOpt},
                 {"pt-rnd", CensusAlgorithm::kPtRnd}},
                /*last=*/true);
  }

  std::cout << "  ]\n}\n";
  return 0;
}
