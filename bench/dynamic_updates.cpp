// Dynamic-update benchmark: incremental census maintenance
// (IncrementalCensus::ApplyBatch) vs full recomputation (RunCensus on the
// materialized overlay) for COUNTP(clq3-unlb, SUBGRAPH(ID, k)) over all
// nodes of the default preferential-attachment workload.
//
// For each batch size B the same mixed insert/delete stream is applied in
// batches of B and the per-batch maintenance time is compared with the time
// of one full recompute (what a static engine would have to pay per batch
// to stay fresh). The acceptance bar for the dynamic subsystem is a >= 10x
// speedup at B = 1 (single-edge updates). After each batch size's stream
// the maintained counts are compared with RunCensus over the materialized
// graph; a mismatch exits 1.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "census/census.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_census.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/timer.h"

int main() {
  using namespace egocensus;
  using namespace egocensus::bench;
  PrintHeader("Dynamic updates",
              "incremental maintenance vs full recompute, clq3, PA graph");

  GeneratorOptions gen;
  gen.num_nodes = Scaled(20000);
  gen.edges_per_node = 5;
  gen.seed = 21;
  Graph base = GeneratePreferentialAttachment(gen);
  Pattern pattern = MakeTriangle(/*labeled=*/false);

  // At k=2 the PA hubs make the touched regions a sizable fraction of the
  // graph, so large batches pass the crossover where a full recompute wins;
  // only the small-batch points are interesting there.
  struct Config {
    std::uint32_t k;
    std::vector<std::size_t> batch_sizes;
  };
  const std::vector<Config> configs = {{1, {1, 10, 100, 1000}}, {2, {1, 10}}};

  for (const Config& config : configs) {
    const std::uint32_t k = config.k;
    // Cost of keeping the census fresh without the dynamic layer: one full
    // recompute per batch, measured on the starting graph.
    auto focal = AllNodes(base);
    CensusOptions census_opts;
    census_opts.k = k;
    double full_seconds = TimeCensus(base, pattern, focal, census_opts);

    std::cout << "\nk=" << k << ": full recompute " << base.NumNodes()
              << " nodes / " << base.NumEdges() << " edges: "
              << TablePrinter::FormatDouble(full_seconds, 3) << " s\n";
    TablePrinter table({"batch size", "batches", "inc s/batch",
                        "updates/s", "speedup vs full"});

    for (std::size_t batch : config.batch_sizes) {
      DynamicGraph dynamic(base);
      auto census = IncrementalCensus::Create(&dynamic, pattern, census_opts);
      if (!census.ok()) {
        std::cerr << census.status().ToString() << "\n";
        return 1;
      }

      // Mixed stream: deletions sample existing edges, insertions sample
      // random non-adjacent endpoint pairs; ~1000 updates per batch size,
      // but at least 8 batches so small-batch timings average fairly.
      std::size_t num_batches = std::max<std::size_t>(8, 1000 / batch);
      num_batches = std::min<std::size_t>(num_batches, 64);
      Rng rng(1234 + k);
      double inc_seconds = 0;
      std::uint64_t applied = 0;
      for (std::size_t b = 0; b < num_batches; ++b) {
        std::vector<GraphUpdate> updates;
        updates.reserve(batch);
        while (updates.size() < batch) {
          NodeId u = static_cast<NodeId>(rng.NextBounded(dynamic.NumNodes()));
          NodeId v = static_cast<NodeId>(rng.NextBounded(dynamic.NumNodes()));
          if (u == v) continue;
          if (rng.NextBool(0.45) && dynamic.Degree(u) > 0) {
            auto nbrs = dynamic.Neighbors(u);
            v = nbrs[rng.NextBounded(nbrs.size())];
            updates.push_back(GraphUpdate::RemoveEdge(u, v));
          } else if (!dynamic.HasEdge(u, v)) {
            updates.push_back(GraphUpdate::AddEdge(u, v));
          }
        }
        Timer timer;
        auto stats = census->ApplyBatch(updates);
        inc_seconds += timer.ElapsedSeconds();
        if (!stats.ok()) {
          std::cerr << stats.status().ToString() << "\n";
          return 1;
        }
        applied += stats->updates_applied;
      }

      // The maintained counts must be the census of the graph they track.
      Graph current = dynamic.Materialize();
      auto fresh = RunCensus(current, pattern, AllNodes(current), census_opts);
      if (!fresh.ok() || fresh->counts != census->counts()) {
        std::cerr << "k=" << k << " batch size " << batch
                  << ": maintained counts differ from a full recompute\n";
        return 1;
      }

      double per_batch = inc_seconds / static_cast<double>(num_batches);
      double speedup = per_batch > 0 ? full_seconds / per_batch : 0;
      table.AddRow({std::to_string(batch), std::to_string(num_batches),
                    TablePrinter::FormatDouble(per_batch, 5),
                    TablePrinter::FormatDouble(
                        static_cast<double>(applied) / inc_seconds, 0),
                    TablePrinter::FormatDouble(speedup, 1) + "x"});
    }
    table.PrintText(std::cout);
  }

  std::cout << "\nexpected shape: single-edge updates >= 10x faster than a\n"
               "full recompute; the advantage narrows as batches approach\n"
               "the size where the touched regions cover the whole graph\n";
  return 0;
}
