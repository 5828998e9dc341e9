// Determinism of the parallel census engines: for every algorithm and for
// every thread count, per-node counts and total match counts must be
// bit-identical to the single-threaded run. Exercises plain, negated-edge
// and subpattern (COUNTSP) censuses on seeded preferential-attachment,
// DBLP-like and random directed graphs. Also unit-tests ParallelFor
// itself. The whole binary doubles as the ThreadSanitizer workload in CI.

#include "util/parallel_for.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "apps/dblp_gen.h"
#include "census/census.h"
#include "graph/generators.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "util/rng.h"

namespace egocensus {
namespace {

/// Runs ParallelFor over [begin, end) and returns how often each item ran.
std::vector<int> Coverage(unsigned workers, std::size_t begin,
                          std::size_t end, std::size_t grain) {
  std::vector<std::atomic<int>> touched(end - begin);
  ParallelFor(workers, begin, end, grain, /*governor=*/nullptr,
              [&](std::size_t lo, std::size_t hi, unsigned) {
                for (std::size_t i = lo; i < hi; ++i) {
                  touched[i - begin].fetch_add(1, std::memory_order_relaxed);
                }
              });
  return {touched.begin(), touched.end()};
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::atomic<unsigned> max_rank{0};
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(4, 0, touched.size(), /*grain=*/7, /*governor=*/nullptr,
              [&](std::size_t begin, std::size_t end, unsigned worker) {
                unsigned seen = max_rank.load(std::memory_order_relaxed);
                while (worker > seen &&
                       !max_rank.compare_exchange_weak(seen, worker)) {
                }
                for (std::size_t i = begin; i < end; ++i) {
                  touched[i].fetch_add(1, std::memory_order_relaxed);
                }
              });
  EXPECT_LT(max_rank.load(), 4u);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// Successive calls of odd sizes; each call starts and joins its own
// workers.
TEST(ParallelForTest, OddShapes) {
  for (std::size_t count : {0ul, 1ul, 2ul, 17ul, 256ul}) {
    std::vector<int> out(count, 0);
    ParallelFor(3, 5, 5 + count, /*grain=*/4, /*governor=*/nullptr,
                [&](std::size_t begin, std::size_t end, unsigned) {
                  for (std::size_t i = begin; i < end; ++i) {
                    out[i - 5] = static_cast<int>(i);
                  }
                });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], static_cast<int>(i + 5));
    }
  }
}

// 8 workers over 3 chunks: only ranks 0-2 exist, so no idle thread starts.
TEST(ParallelForTest, StartsNoWorkerWithoutAChunk) {
  std::mutex mu;
  std::set<unsigned> ranks;
  std::set<std::thread::id> threads;
  std::vector<std::atomic<int>> touched(12);
  ParallelFor(8, 0, touched.size(), /*grain=*/4, /*governor=*/nullptr,
              [&](std::size_t begin, std::size_t end, unsigned worker) {
                {
                  std::lock_guard<std::mutex> lock(mu);
                  ranks.insert(worker);
                  threads.insert(std::this_thread::get_id());
                }
                for (std::size_t i = begin; i < end; ++i) {
                  touched[i].fetch_add(1, std::memory_order_relaxed);
                }
              });
  ASSERT_FALSE(ranks.empty());
  EXPECT_LE(*ranks.rbegin(), 2u);
  EXPECT_LE(threads.size(), 3u);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// Calls share no state: two threads may run ParallelFor at once, and each
// call covers its own range exactly once.
TEST(ParallelForTest, ConcurrentCallsEachCoverTheirRange) {
  std::vector<int> first;
  std::vector<int> second;
  std::thread other([&] { second = Coverage(4, 100, 5100, 3); });
  first = Coverage(4, 0, 7000, 5);
  other.join();
  EXPECT_EQ(first, std::vector<int>(7000, 1));
  EXPECT_EQ(second, std::vector<int>(5000, 1));
}

TEST(ParallelForTest, ResolveNumThreads) {
  EXPECT_GE(ResolveNumThreads(0), 1u);
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(6), 6u);
}

constexpr CensusAlgorithm kAllAlgorithms[] = {
    CensusAlgorithm::kNdBas, CensusAlgorithm::kNdPvot,
    CensusAlgorithm::kNdDiff, CensusAlgorithm::kPtBas,
    CensusAlgorithm::kPtOpt, CensusAlgorithm::kPtRnd};

/// Runs the census with 1, 2, 4 and 8 threads for every algorithm and
/// expects counts and num_matches to be identical across thread counts.
/// Whole-pattern ND-BAS matches inside each focal node's ball, so its
/// num_matches must also equal the sum of the count column.
void ExpectDeterministic(const Graph& graph, const Pattern& pattern,
                         std::span<const NodeId> focal, CensusOptions opts) {
  for (auto algorithm : kAllAlgorithms) {
    opts.algorithm = algorithm;
    opts.num_threads = 1;
    auto serial = RunCensus(graph, pattern, focal, opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->stats.threads_used, 1u);
    if (algorithm == CensusAlgorithm::kNdBas && opts.subpattern.empty() &&
        serial->stats.fastpath_routed == 0) {
      std::uint64_t column = 0;
      for (NodeId n : focal) column += serial->counts[n];
      EXPECT_EQ(serial->stats.num_matches, column);
    }
    for (std::uint32_t threads : {2u, 4u, 8u}) {
      opts.num_threads = threads;
      auto parallel = RunCensus(graph, pattern, focal, opts);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->counts, serial->counts)
          << CensusAlgorithmName(algorithm) << " diverged at " << threads
          << " threads";
      EXPECT_EQ(parallel->stats.num_matches, serial->stats.num_matches)
          << CensusAlgorithmName(algorithm);
      EXPECT_EQ(parallel->stats.threads_used, threads);
    }
  }
}

TEST(ParallelCensusTest, LabeledTriangleOnPaGraph) {
  GeneratorOptions gen;
  gen.num_nodes = 600;
  gen.edges_per_node = 4;
  gen.num_labels = 4;
  gen.seed = 31;
  Graph graph = GeneratePreferentialAttachment(gen);
  CensusOptions opts;
  opts.k = 2;
  ExpectDeterministic(graph, MakeTriangle(true), AllNodes(graph), opts);
}

TEST(ParallelCensusTest, FocalSubsetOnPaGraph) {
  GeneratorOptions gen;
  gen.num_nodes = 500;
  gen.edges_per_node = 5;
  gen.seed = 32;
  Graph graph = GeneratePreferentialAttachment(gen);
  // Every third node only: exercises non-contiguous focal shards.
  std::vector<NodeId> focal;
  for (NodeId n = 0; n < graph.NumNodes(); n += 3) focal.push_back(n);
  CensusOptions opts;
  opts.k = 1;
  ExpectDeterministic(graph, MakeTriangle(false), focal, opts);
}

TEST(ParallelCensusTest, LabeledTriangleDrillDownOnPaGraph) {
  // The drill-down the census plan sends to ND-BAS: 50 consecutive ids,
  // k = 1, a labeled triangle.
  GeneratorOptions gen;
  gen.num_nodes = 5000;
  gen.edges_per_node = 5;
  gen.num_labels = 3;
  gen.seed = 35;
  Graph graph = GeneratePreferentialAttachment(gen);
  std::vector<NodeId> focal(50);
  std::iota(focal.begin(), focal.end(), NodeId{1000});
  CensusOptions opts;
  opts.k = 1;
  ExpectDeterministic(graph, MakeTriangle(true), focal, opts);
  opts.algorithm = CensusAlgorithm::kNdBas;
  auto result = RunCensus(graph, MakeTriangle(true), focal, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->stats.num_matches, 0u);
}

TEST(ParallelCensusTest, NegatedEdgePatternOnPaGraph) {
  // Small graph: the open wedge is non-selective (matches grow ~ sum of
  // degree^2), and the quadratic baselines must run too.
  GeneratorOptions gen;
  gen.num_nodes = 120;
  gen.edges_per_node = 3;
  gen.seed = 33;
  Graph graph = GeneratePreferentialAttachment(gen);
  auto open_wedge = ParsePattern("PATTERN w {?A-?B; ?B-?C; ?A!-?C;}");
  ASSERT_TRUE(open_wedge.ok());
  CensusOptions opts;
  opts.k = 1;
  ExpectDeterministic(graph, *open_wedge, AllNodes(graph), opts);
}

TEST(ParallelCensusTest, UnlabeledTriangleOnDblpGraph) {
  DblpOptions dblp;
  dblp.num_authors = 500;
  dblp.num_communities = 12;
  dblp.num_years = 4;
  dblp.train_years = 3;
  dblp.papers_per_year = 80;
  dblp.seed = 2001;
  DblpData data = GenerateDblp(dblp);
  CensusOptions opts;
  opts.k = 2;
  ExpectDeterministic(data.train, MakeTriangle(false), AllNodes(data.train),
                      opts);
}

TEST(ParallelCensusTest, SubpatternCoordinatorOnRandomDigraph) {
  // COUNTSP census: the focal node must match the "coordinator" subpattern
  // node, which pins anchors to the subpattern and exercises the
  // containment-check paths of every engine.
  Graph graph(true);
  const NodeId n = 300;
  graph.AddNodes(n);
  Rng rng(17);
  for (NodeId u = 0; u < n; ++u) CheckOk(graph.SetLabel(u, 1), "test fixture setup");
  for (std::uint32_t e = 0; e < 4 * n; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u != v) graph.AddEdge(u, v);
  }
  CheckOk(graph.Finalize(), "test fixture setup");
  CensusOptions opts;
  opts.k = 1;
  opts.subpattern = "coordinator";
  ExpectDeterministic(graph, MakeCoordinatorTriad(), AllNodes(graph), opts);
}

TEST(ParallelCensusTest, HardwareThreadCountRuns) {
  GeneratorOptions gen;
  gen.num_nodes = 200;
  gen.edges_per_node = 3;
  gen.seed = 34;
  Graph graph = GeneratePreferentialAttachment(gen);
  CensusOptions opts;
  opts.k = 1;
  opts.algorithm = CensusAlgorithm::kNdPvot;
  opts.num_threads = 0;  // hardware concurrency
  auto result = RunCensus(graph, MakeTriangle(false), AllNodes(graph), opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats.threads_used, ResolveNumThreads(0));
  std::uint64_t total =
      std::accumulate(result->counts.begin(), result->counts.end(),
                      std::uint64_t{0});
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace egocensus
