#include <algorithm>
#include <vector>

#include "census/engines.h"
#include "exec/failpoints.h"
#include "graph/bfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// ND-PVOT (Section IV-A1 / Algorithm 2): find all matches once, build the
// PivotIndex (census/pmi.h) over them, then BFS each focal node's k-hop
// neighborhood and count the indexed matches inside it.
//
// The per-focal-node counting loop is sharded across the pool: the pivot
// index is built once and read-only thereafter; each worker owns a BFS
// workspace and writes counts[n] only for its own focal nodes, so counts
// are identical for any worker count.
CensusResult RunNdPvot(const CensusContext& ctx) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  bool match_interrupted = false;
  MatchSet matches = FindMatchesTimed(graph, *ctx.pattern, *ctx.options,
                                      &result.stats, &match_interrupted);
  if (match_interrupted) {
    // A partial match set would undercount everywhere; keep all kPending.
    FinishExecStatus(ctx, "ND-PVOT", &result);
    return result;
  }
  MatchAnchors anchors(&matches, ctx.anchor_nodes);

  Timer timer;
  obs::ScopedSpan index_span("census/index");
  const PivotIndex index(*ctx.pattern, anchors);
  result.stats.index_seconds = timer.ElapsedSeconds();
  index_span.End();

  timer.Reset();
  EGO_SPAN("census/count");
  auto process = [&](NodeId n, BfsWorkspace& bfs, CensusStats& stats) {
    bfs.Run(graph, n, k);
    EGO_HIST_RECORD("census/neighborhood_size", bfs.visited().size());
    stats.nodes_expanded += bfs.visited().size();
    stats.peak_neighborhood =
        std::max<std::uint64_t>(stats.peak_neighborhood, bfs.visited().size());
    result.counts[n] = index.Count(bfs, k, &stats.containment_checks);
    result.focal_state[n] = FocalState::kComplete;
  };
  // One checkpoint per focal node; a stop leaves the rest kPending. The BFS
  // workspace is the per-worker footprint, charged at its high-water mark.
  auto run_range = [&](std::size_t begin, std::size_t end, BfsWorkspace& bfs,
                       CensusStats& stats, ScratchCharge& charge) {
    for (std::size_t i = begin; i < end; ++i) {
      EGO_FAILPOINT("census/focal");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      if (!charge.Update(gov, graph.NumNodes() * sizeof(NodeId))) return;
      process(ctx.focal[i], bfs, stats);
    }
  };
  if (ctx.pool == nullptr) {
    BfsWorkspace bfs;
    ScratchCharge charge;
    run_range(0, ctx.focal.size(), bfs, result.stats, charge);
  } else {
    std::vector<BfsWorkspace> bfs(ctx.pool->NumWorkers());
    std::vector<CensusStats> stats(ctx.pool->NumWorkers());
    std::vector<ScratchCharge> charges(ctx.pool->NumWorkers());
    ctx.pool->ParallelFor(
        0, ctx.focal.size(), /*grain=*/8, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          run_range(begin, end, bfs[worker], stats[worker], charges[worker]);
        });
    for (const auto& s : stats) result.stats.Merge(s);
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  FinishExecStatus(ctx, "ND-PVOT", &result);
  return result;
}

}  // namespace egocensus::internal
