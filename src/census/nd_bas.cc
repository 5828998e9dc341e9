#include <optional>

#include "census/engines.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"

namespace egocensus::internal {

// ND-BAS (Section IV-A): for every focal node, extract the induced k-hop
// subgraph S(n, k) and run the selected matcher inside it. This repeats the
// work of overlapping neighborhoods and is the paper's slow baseline.
//
// With a subpattern the full pattern may extend outside S(n, k), so the
// baseline instead counts the global match set and brute-force checks, for
// every (focal node, match) pair, whether all anchor images lie within k
// hops — the O(|V_sigma| * |M| * |V_P|) cost that Section IV-A1 calls
// impractical.
//
// Both paths run on the per-unit driver. Each worker reuses its scratch
// (extractor + matcher + subgraph buffers, or a BFS workspace) across its
// focal nodes, which is what removes the per-focal-node allocation churn
// the original baseline had.
void RunNdBas(const CensusContext& ctx, CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const Pattern& pattern = *ctx.pattern;
  const std::uint32_t k = ctx.options->k;

  if (ctx.anchors == nullptr) {
    const bool need_attrs = pattern.HasGeneralPredicates();
    const bool use_gql = ctx.options->use_gql_matcher;
    ForEachUnit(
        ctx.loop, ctx.loop.focal, /*grain=*/2,
        [&graph, use_gql] { return RegionScratch(graph, use_gql); },
        [&](NodeId n, Worker<RegionScratch>& w) {
          w.scratch.extractor.ExtractKHopInto(n, k, need_attrs,
                                              &w.scratch.sub);
          return CountInRegion(pattern, ctx.loop.governor, w);
        },
        StoreFocal(ctx.loop, result), &result->stats);
    return;
  }

  const MatchAnchors& anchors = *ctx.anchors;
  ForEachUnit(
      ctx.loop, ctx.loop.focal, /*grain=*/4, [] { return BfsWorkspace(); },
      [&](NodeId n, Worker<BfsWorkspace>& w) -> std::optional<std::uint64_t> {
        // BFS workspace footprint (visited list + per-node marks).
        if (!w.Charge(graph.NumNodes() * sizeof(NodeId))) return std::nullopt;
        BfsWorkspace& bfs = w.scratch;
        bfs.Run(graph, n, k);
        RecordBall(bfs.visited().size(), &w.stats);
        return anchors.CountInside(
            [&bfs](NodeId a) { return bfs.Reached(a); },
            &w.stats.containment_checks);
      },
      StoreFocal(ctx.loop, result), &result->stats);
}

}  // namespace egocensus::internal
