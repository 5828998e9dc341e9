// Micro-benchmarks (google-benchmark) for the building blocks behind the
// paper's optimizations: the O(1) array bucket queue vs a binary heap
// (Section IV-B3), k-hop BFS, profile index construction, subgraph
// extraction, CN vs GQL matching, the simultaneous expander, and the
// fast path's census kernels.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <queue>
#include <sstream>

#include "egolint.h"

#include "census/census.h"
#include "census/pt_expander.h"
#include "graph/bfs.h"
#include "graph/generators.h"
#include "graph/profile_index.h"
#include "graph/subgraph.h"
#include "match/cn_matcher.h"
#include "match/gql_matcher.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "pattern/catalog.h"
#include "util/bucket_queue.h"
#include "util/rng.h"
#include "util/parallel_for.h"

namespace egocensus {
namespace {

const Graph& BenchGraph() {
  static const Graph* graph = [] {
    GeneratorOptions gen;
    gen.num_nodes = 20000;
    gen.edges_per_node = 5;
    gen.num_labels = 4;
    gen.seed = 77;
    return new Graph(GeneratePreferentialAttachment(gen));
  }();
  return *graph;
}

void BM_BucketQueue(benchmark::State& state) {
  const std::size_t n = 10000;
  Rng rng(1);
  std::vector<std::pair<std::uint32_t, std::size_t>> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.emplace_back(static_cast<std::uint32_t>(i), rng.NextBounded(64));
  }
  for (auto _ : state) {
    BucketQueue<std::uint32_t> queue(64);
    for (const auto& [value, score] : items) queue.Push(value, score);
    std::uint64_t sum = 0;
    while (!queue.Empty()) sum += queue.PopMin();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BucketQueue);

void BM_BinaryHeap(benchmark::State& state) {
  const std::size_t n = 10000;
  Rng rng(1);
  std::vector<std::pair<std::size_t, std::uint32_t>> items;
  for (std::size_t i = 0; i < n; ++i) {
    items.emplace_back(rng.NextBounded(64), static_cast<std::uint32_t>(i));
  }
  for (auto _ : state) {
    std::priority_queue<std::pair<std::size_t, std::uint32_t>,
                        std::vector<std::pair<std::size_t, std::uint32_t>>,
                        std::greater<>>
        queue;
    for (const auto& item : items) queue.push(item);
    std::uint64_t sum = 0;
    while (!queue.empty()) {
      sum += queue.top().second;
      queue.pop();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BinaryHeap);

void BM_KHopBfs(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  BfsWorkspace bfs;
  NodeId source = 0;
  for (auto _ : state) {
    const auto& visited =
        bfs.Run(graph, source, static_cast<std::uint32_t>(state.range(0)));
    benchmark::DoNotOptimize(visited.size());
    source = (source + 1) % graph.NumNodes();
  }
}
BENCHMARK(BM_KHopBfs)->Arg(1)->Arg(2)->Arg(3);

void BM_ProfileIndexBuild(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  for (auto _ : state) {
    ProfileIndex index = ProfileIndex::Build(graph);
    benchmark::DoNotOptimize(index.num_labels());
  }
}
BENCHMARK(BM_ProfileIndexBuild);

void BM_SubgraphExtraction(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  SubgraphExtractor extractor(graph);
  NodeId source = 0;
  for (auto _ : state) {
    EgoSubgraph sub = extractor.ExtractKHop(source, 2);
    benchmark::DoNotOptimize(sub.graph.NumEdges());
    source = (source + 1) % graph.NumNodes();
  }
}
BENCHMARK(BM_SubgraphExtraction);

void BM_CnMatch(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Pattern pattern = MakeTriangle(true);
  for (auto _ : state) {
    CnMatcher matcher;
    benchmark::DoNotOptimize(matcher.FindMatches(graph, pattern).size());
  }
}
BENCHMARK(BM_CnMatch);

void BM_GqlMatch(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Pattern pattern = MakeTriangle(true);
  for (auto _ : state) {
    GqlMatcher matcher;
    benchmark::DoNotOptimize(matcher.FindMatches(graph, pattern).size());
  }
}
BENCHMARK(BM_GqlMatch);

void BM_SimultaneousExpander(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  internal::ExpanderOptions options;
  options.k = 2;
  options.best_first = state.range(0) != 0;
  internal::SimultaneousExpander expander(graph, options);
  Rng rng(3);
  std::vector<std::vector<NodeId>> anchors = {
      {static_cast<NodeId>(rng.NextBounded(graph.NumNodes())),
       static_cast<NodeId>(rng.NextBounded(graph.NumNodes())),
       static_cast<NodeId>(rng.NextBounded(graph.NumNodes()))}};
  for (auto _ : state) {
    expander.Expand(anchors, nullptr);
    benchmark::DoNotOptimize(expander.NumVisited());
  }
}
BENCHMARK(BM_SimultaneousExpander)->Arg(1)->Arg(0);

void BM_SubgraphExtractionInto(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  SubgraphExtractor extractor(graph);
  EgoSubgraph sub;  // buffers reused across iterations (the ND-BAS loop)
  NodeId source = 0;
  for (auto _ : state) {
    extractor.ExtractKHopInto(source, 2, /*copy_attributes=*/true, &sub);
    benchmark::DoNotOptimize(sub.graph.NumEdges());
    source = (source + 1) % graph.NumNodes();
  }
}
BENCHMARK(BM_SubgraphExtractionInto);

// Each iteration starts and joins its workers, as every census does.
void BM_ParallelFor(benchmark::State& state) {
  const auto workers = static_cast<unsigned>(state.range(0));
  const std::size_t n = 1 << 16;
  std::vector<std::uint64_t> out(n, 0);
  for (auto _ : state) {
    ParallelFor(workers, 0, n, /*grain=*/256, /*governor=*/nullptr,
                [&](std::size_t begin, std::size_t end, unsigned) {
                  for (std::size_t i = begin; i < end; ++i) {
                    out[i] = i * i;
                  }
                });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ParallelFor)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_ParallelCensus(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Pattern pattern = MakeTriangle(true);
  auto focal = AllNodes(graph);
  CensusOptions options;
  options.algorithm = CensusAlgorithm::kNdPvot;
  options.k = 2;
  options.num_threads = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    auto result = RunCensus(graph, pattern, focal, options);
    benchmark::DoNotOptimize(result->stats.num_matches);
  }
}
BENCHMARK(BM_ParallelCensus)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// The fast path's kernels (docs/FAST_PATH.md) through RunCensus, on a
// 10K-node unlabeled PA graph at 1 thread. Args: shape (0 = wedge, reading
// ball degrees; 1 = triangle, reading the region's triangles listed once
// per census; 2 = 4-cycle, on the local CSR), k, and the focal set (0 =
// every node, 1 = the 50-id window [5000, 5050)).
void BM_FastPathCensus(benchmark::State& state) {
  static const Graph* graph = [] {
    GeneratorOptions gen;
    gen.num_nodes = 10000;
    gen.edges_per_node = 5;
    gen.seed = 23;
    return new Graph(GeneratePreferentialAttachment(gen));
  }();
  const Pattern patterns[] = {MakePath(3, false), MakeTriangle(false),
                              MakeSquare(false)};
  const Pattern& pattern = patterns[state.range(0)];
  std::vector<NodeId> focal = AllNodes(*graph);
  if (state.range(2) != 0) {
    focal.assign(focal.begin() + 5000, focal.begin() + 5050);
  }
  CensusOptions options;
  options.fast_path = FastPathMode::kForce;
  options.k = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    auto result = RunCensus(*graph, pattern, focal, options);
    benchmark::DoNotOptimize(result->counts.data());
  }
  state.counters["focal"] = static_cast<double>(focal.size());
}
BENCHMARK(BM_FastPathCensus)
    ->ArgNames({"shape", "k", "window"})
    ->ArgsProduct({{0, 1, 2}, {1, 2}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// Observability overhead on the densest instrumentation path (ND-BAS k=2
// runs the matcher once per focal node). Arg(0) = runtime-disabled, the
// default of every run (docs/OBSERVABILITY.md, "Overhead"), Arg(1) =
// enabled (the price of actually recording).
void BM_ObsOverheadNdBas(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Pattern pattern = MakeTriangle(true);
  auto focal = AllNodes(graph);
  CensusOptions options;
  options.algorithm = CensusAlgorithm::kNdBas;
  options.k = 2;
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    auto result = RunCensus(graph, pattern, focal, options);
    benchmark::DoNotOptimize(result->stats.num_matches);
  }
  obs::SetEnabled(false);
}
BENCHMARK(BM_ObsOverheadNdBas)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Composing the daemon's per-request wide event (docs/OBSERVABILITY.md,
// "Request telemetry"): one LogEvent with the full QUERY field set. This
// runs once per request on the server's connection thread, so it needs to
// stay far below the census work it describes (microseconds, not millis).
void BM_WideEventCompose(benchmark::State& state) {
  for (auto _ : state) {
    obs::LogEvent event("request");
    event.Str("request_id", "r1a2b3c4d5e6f7-42")
        .Str("verb", "QUERY")
        .Str("graph", "bench")
        .Str("status", "OK")
        .Str("stop_reason", "none")
        .Int("queue_us", 31)
        .Int("execute_us", 18452)
        .Int("latency_us", 18483)
        .Int("bytes_in", 120)
        .Int("bytes_out", 4096)
        .Int("rows", 5000)
        .Int("threads", 4)
        .Int("pattern_nodes", 3)
        .Int("k", 1);
    benchmark::DoNotOptimize(event);
  }
}
BENCHMARK(BM_WideEventCompose);

// Rendering a metrics snapshot as Prometheus text exposition — the body of
// every METRICS frame. Arg = labeled series count; the render is pure (no
// registry access), so this prices the scrape itself.
void BM_PrometheusRender(benchmark::State& state) {
  obs::MetricsSnapshot snapshot;
  const int series = static_cast<int>(state.range(0));
  for (int i = 0; i < series; ++i) {
    const std::string labels =
        "{verb=\"QUERY\",graph=\"g" + std::to_string(i) + "\"}";
    snapshot.counters["server/requests" + labels] = 100 + i;
    snapshot.counters["server/bytes_out" + labels] = 4096u * (i + 1);
    auto& hist = snapshot.histograms["server/latency_us" + labels];
    for (int b = 0; b < 16; ++b) hist.buckets[b] = b + i;
    hist.count = 256;
    hist.sum = 1 << 20;
    hist.max = 1 << 15;
  }
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    std::ostringstream os;
    obs::WritePrometheus(snapshot, os);
    bytes = os.str().size();
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_PrometheusRender)->Arg(8)->Arg(64);

// Governor overhead on the densest checkpoint path (ND-BAS k=2 checkpoints
// per focal node and per matcher search-tree node). Arg(0) = no governor
// (one pointer test per checkpoint; the acceptance bar is <=1% vs the seed
// ND-BAS numbers), Arg(1) = unlimited governor (relaxed fetch_add per
// checkpoint), Arg(2) = far deadline + large budget (adds the steady-clock
// poll and the budget charges — the full governed price).
void BM_GovernorOverhead(benchmark::State& state) {
  const Graph& graph = BenchGraph();
  Pattern pattern = MakeTriangle(true);
  auto focal = AllNodes(graph);
  CensusOptions options;
  options.algorithm = CensusAlgorithm::kNdBas;
  options.k = 2;
  for (auto _ : state) {
    Governor governor;
    if (state.range(0) >= 1) options.governor = &governor;
    if (state.range(0) >= 2) {
      governor.SetDeadline(Deadline::AfterMillis(3'600'000));
      governor.SetMemoryLimitBytes(1ull << 40);
    }
    auto result = RunCensus(graph, pattern, focal, options);
    benchmark::DoNotOptimize(result->stats.num_matches);
    options.governor = nullptr;
  }
}
BENCHMARK(BM_GovernorOverhead)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Full-repo egolint scan (lex + all five checks over every src/ and tools/
// file, matching what CI's lint job and the egolint_repo ctest run). CI
// treats the lint job as nearly free; this keeps the whole scan honest
// against the 2s budget the egolint_test smoke asserts.
void BM_EgolintRepoScan(benchmark::State& state) {
  namespace fs = std::filesystem;
  std::vector<egolint::SourceFile> files;
  std::vector<fs::path> roots = {EGOCENSUS_REPO_SRC};
#ifdef EGOCENSUS_REPO_TOOLS
  roots.emplace_back(EGOCENSUS_REPO_TOOLS);
#endif
  for (const fs::path& root : roots) {
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp") continue;
      std::ifstream in(it->path());
      std::ostringstream content;
      content << in.rdbuf();
      files.push_back(
          egolint::SourceFile{it->path().generic_string(), content.str()});
    }
  }
  std::size_t findings = 0;
  for (auto _ : state) {
    auto out = egolint::RunLint(files, egolint::LintOptions{});
    findings = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["files"] = static_cast<double>(files.size());
  state.counters["findings"] = static_cast<double>(findings);
}
BENCHMARK(BM_EgolintRepoScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace egocensus

BENCHMARK_MAIN();
