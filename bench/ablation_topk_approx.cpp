// Ablation bench for the Section VII future-work extensions implemented in
// this library:
//   * top-K census: exact top-K via bound-ordered early termination vs the
//     full census + sort, on ND-PVOT (the engine both extensions count
//     through) and on the planned census (the fast path, which `ORDER BY 2
//     DESC LIMIT K` runs);
//   * approximate census: match-sampling at various rates vs the exact
//     ND-PVOT census, with measured error on the top nodes.
// Exits 1 when a top-K list differs from the ND-PVOT counts ranked by
// (count desc, id asc).

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "census/approx.h"
#include "census/topk.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace egocensus;
  using namespace egocensus::bench;
  PrintHeader("Extensions",
              "top-K early termination and sampling-based approximation "
              "(paper Section VII future work)");

  GeneratorOptions gen;
  gen.num_nodes = Scaled(30000);
  gen.edges_per_node = 5;
  gen.seed = 29;
  Graph graph = GeneratePreferentialAttachment(gen);
  Pattern pattern = MakeTriangle(false);
  auto focal = AllNodes(graph);
  std::cout << "graph: " << graph.NumNodes()
            << " nodes; unlabeled triangle census, k = 2\n\n";

  // A full census followed by a sort of every focal node by (count desc,
  // id asc): what a top-K list is checked against and timed beside.
  using Ranking = std::vector<std::pair<NodeId, std::uint64_t>>;
  auto census_and_sort = [&](const CensusOptions& options,
                             CensusStats* stats, Ranking* ranking) {
    Timer timer;
    auto result = RunCensus(graph, pattern, focal, options);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      std::exit(1);
    }
    ranking->clear();
    for (NodeId n : focal) ranking->emplace_back(n, result->counts[n]);
    std::sort(ranking->begin(), ranking->end(),
              [](const auto& a, const auto& b) {
                return a.second != b.second ? a.second > b.second
                                            : a.first < b.first;
              });
    if (stats != nullptr) *stats = result->stats;
    return timer.ElapsedSeconds();
  };

  // The reference: the exact census on ND-PVOT, the engine both extensions
  // count through. The planned census of the same query runs on the fast
  // path.
  CensusOptions exact_opts;
  exact_opts.algorithm = CensusAlgorithm::kNdPvot;
  exact_opts.fast_path = FastPathMode::kOff;
  exact_opts.k = 2;
  CensusStats exact_stats;
  Ranking reference;
  const double exact_seconds =
      census_and_sort(exact_opts, &exact_stats, &reference);
  CensusOptions planned_opts;
  planned_opts.k = 2;
  Ranking planned;
  const double planned_seconds =
      census_and_sort(planned_opts, nullptr, &planned);
  if (planned != reference) {
    std::cerr << "the planned census disagrees with ND-PVOT\n";
    return 1;
  }

  // ---- Top-K ----
  TablePrinter topk_table({"top_k", "ND-PVOT census+sort (s)",
                           "planned census+sort (s)", "top-K (s)",
                           "exact evaluations", "of focal"});
  for (std::size_t top_k : {10u, 50u, 200u}) {
    TopKOptions opts;
    opts.k = 2;
    opts.top_k = top_k;
    Timer timer;
    auto result = RunTopKCensus(graph, pattern, focal, opts);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    const Ranking expected(reference.begin(),
                           reference.begin() + std::min(top_k, reference.size()));
    if (result->top != expected) {
      std::cerr << "top-" << top_k << " list differs from the ND-PVOT "
                << "counts ranked by (count desc, id asc)\n";
      return 1;
    }
    topk_table.AddRow({std::to_string(top_k),
                       TablePrinter::FormatDouble(exact_seconds, 2),
                       TablePrinter::FormatDouble(planned_seconds, 2),
                       TablePrinter::FormatDouble(seconds, 2),
                       std::to_string(result->exact_evaluations),
                       std::to_string(focal.size())});
  }
  topk_table.PrintText(std::cout);
  std::cout << "\neach top-K list equals the ND-PVOT ranking; only the "
               "exactly evaluated nodes\npay containment checks (the bound "
               "pass is one check-free BFS per node)\n\n";

  // ---- Approximation ----
  // Error metric: mean relative error over the 100 highest-count nodes.
  const Ranking heavy(reference.begin(),
                      reference.begin() + std::min<std::size_t>(
                                              100, reference.size()));

  TablePrinter approx_table({"sample rate", "exact (s)", "approx (s)",
                             "census speedup", "mean rel. error (top 100)"});
  for (double rate : {0.5, 0.2, 0.1, 0.05}) {
    ApproximateCensusOptions opts;
    opts.k = 2;
    opts.sample_rate = rate;
    opts.seed = 31;
    Timer timer;
    auto result = RunApproximateCensus(graph, pattern, focal, opts);
    if (!result.ok()) {
      std::cerr << result.status().ToString() << "\n";
      return 1;
    }
    double err_sum = 0;
    for (const auto& [n, count] : heavy) {
      double truth = static_cast<double>(count);
      if (truth > 0) {
        err_sum += std::abs(result->estimates[n] - truth) / truth;
      }
    }
    approx_table.AddRow(
        {TablePrinter::FormatDouble(rate, 2),
         TablePrinter::FormatDouble(exact_stats.census_seconds, 2),
         TablePrinter::FormatDouble(result->stats.census_seconds, 2),
         TablePrinter::FormatDouble(
             exact_stats.census_seconds / result->stats.census_seconds, 2),
         TablePrinter::FormatDouble(err_sum / heavy.size(), 3)});
  }
  approx_table.PrintText(std::cout);
  std::cout << "\nestimates stay accurate on high-count nodes (relative "
               "std. error ~ sqrt((1-p)/(p*count)))\nwhile the counting "
               "pass shrinks with the sampling rate\n";
  return 0;
}
