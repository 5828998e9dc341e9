#include <vector>

#include "census/engines.h"
#include "census/pt_common.h"

namespace egocensus::internal {

// PT-BAS (Section IV-B): process each pattern match independently. For a
// match with anchors m_1..m_t, BFS each anchor's k-hop neighborhood, pick
// the anchor m_min with the fewest k-hop neighbors, and test every node in
// its neighborhood for reachability within k hops from every other anchor.
//
// Matches are independent but different matches can increment the same
// node's count, so they run on the summed-vector driver, one unit per match.
void RunPtBas(const CensusContext& ctx, CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;
  const std::vector<char>& is_focal = *ctx.is_focal;
  const MatchAnchors& anchors = *ctx.anchors;
  const int t = anchors.NumAnchors();

  const bool finished = SumOverUnits(
      ctx.loop, anchors.NumMatches(), /*grain=*/4,
      [t] { return AnchorBalls(t); },
      [&](std::size_t m, std::vector<std::uint64_t>& counts,
          Worker<AnchorBalls>& w) {
        // t BFS workspaces + the private count vector.
        if (!w.Charge(static_cast<std::uint64_t>(graph.NumNodes()) *
                      (t * sizeof(NodeId) + sizeof(std::uint64_t)))) {
          return false;
        }
        AnchorBalls& balls = w.scratch;
        for (NodeId n : balls.Run(graph, anchors, m, k, &w.stats)) {
          if (!is_focal[n]) continue;
          if (balls.ReachedByAll(n, &w.stats.containment_checks)) ++counts[n];
        }
        return true;
      },
      &result->counts, &result->stats);
  if (finished) MarkAllComplete(ctx.loop, result);
}

}  // namespace egocensus::internal
