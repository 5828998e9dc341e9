#include <vector>

#include "census/engines.h"
#include "graph/bfs.h"

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

  using Balls = std::vector<BfsWorkspace>;
  SumOverUnits(
      ctx.loop, anchors.NumMatches(), /*grain=*/4, [t] { return Balls(t); },
      [&](std::size_t m, std::uint64_t* counts, Worker<Balls>& w) {
        // t BFS workspaces + the private count vector.
        if (!w.Charge(static_cast<std::uint64_t>(graph.NumNodes()) *
                      (t * sizeof(NodeId) + sizeof(std::uint64_t)))) {
          return false;
        }
        Balls& bfs = w.scratch;
        int min_idx = 0;
        std::size_t min_size = 0;
        for (int j = 0; j < t; ++j) {
          bfs[j].Run(graph, anchors.Anchor(m, j), k);
          RecordBall(bfs[j].visited().size(), &w.stats);
          if (j == 0 || bfs[j].visited().size() < min_size) {
            min_idx = j;
            min_size = bfs[j].visited().size();
          }
        }
        for (NodeId n : bfs[min_idx].visited()) {
          if (!is_focal[n]) continue;
          bool near = true;
          for (int j = 0; j < t; ++j) {
            if (j == min_idx) continue;
            ++w.stats.containment_checks;
            if (!bfs[j].Reached(n)) {
              near = false;
              break;
            }
          }
          if (near) ++counts[n];
        }
        return true;
      },
      result);
}

}  // namespace egocensus::internal
