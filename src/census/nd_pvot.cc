#include <optional>

#include "census/engines.h"
#include "graph/bfs.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// ND-PVOT (Section IV-A1 / Algorithm 2): build the PivotIndex
// (census/pmi.h) over the matches once, then BFS each focal node's k-hop
// neighborhood and count the indexed matches inside it. The index is
// read-only once built, so every worker of the per-unit driver shares it.
void CountPivoted(const CountLoop& loop, const Graph& graph, std::uint32_t k,
                  const PivotIndex& index, CensusResult* result) {
  ForEachUnit(
      loop, loop.focal, /*grain=*/8, [] { return BfsWorkspace(); },
      [&](NodeId n, Worker<BfsWorkspace>& w) -> std::optional<std::uint64_t> {
        // The BFS workspace is the per-worker footprint.
        if (!w.Charge(graph.NumNodes() * sizeof(NodeId))) return std::nullopt;
        BfsWorkspace& bfs = w.scratch;
        bfs.Run(graph, n, k);
        RecordBall(bfs.visited().size(), &w.stats);
        return index.Count(bfs, k, &w.stats.containment_checks);
      },
      StoreFocal(loop, result), &result->stats);
}

void RunNdPvot(const CensusContext& ctx, CensusResult* result) {
  Timer timer;
  obs::ScopedSpan index_span("census/index");
  const PivotIndex index(*ctx.pattern, *ctx.anchors);
  result->stats.index_seconds = timer.ElapsedSeconds();
  index_span.End();
  CountPivoted(ctx.loop, *ctx.graph, ctx.options->k, index, result);
}

}  // namespace egocensus::internal
