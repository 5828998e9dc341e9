#include <optional>

#include "census/engines.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "match/cn_matcher.h"

namespace egocensus::internal {

// ND-BAS (Section IV-A): for every focal node, extract the induced k-hop
// subgraph S(n, k) and run the pattern matcher inside it. This repeats the
// work of overlapping neighborhoods and is the paper's slow baseline.
//
// With a subpattern the full pattern may extend outside S(n, k), so the
// baseline instead counts the global match set and brute-force checks, for
// every (focal node, match) pair, whether all anchor images lie within k
// hops — the O(|V_sigma| * |M| * |V_P|) cost that Section IV-A1 calls
// impractical.
//
// Both paths run on the per-focal driver. Each worker reuses its scratch
// (extractor + matcher + subgraph buffers, or a BFS workspace) across its
// focal nodes, which is what removes the per-focal-node allocation churn
// the original baseline had.
void RunNdBas(const CensusContext& ctx, CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const Pattern& pattern = *ctx.pattern;
  const std::uint32_t k = ctx.options->k;
  Governor* const gov = ctx.loop.governor;

  if (ctx.anchors == nullptr) {
    const bool need_attrs = pattern.HasGeneralPredicates();
    struct Ball {
      explicit Ball(const Graph& graph) : extractor(graph) {}
      SubgraphExtractor extractor;
      CnMatcher matcher;
      EgoSubgraph sub;
    };
    ForEachFocal(
        ctx.loop, /*grain=*/2, [&graph] { return Ball(graph); },
        [&](NodeId n, Worker<Ball>& w) -> std::optional<std::uint64_t> {
          Ball& ball = w.scratch;
          ball.extractor.ExtractKHopInto(n, k, need_attrs, &ball.sub);
          RecordBall(ball.sub.graph.NumNodes(), &w.stats);
          // Extraction footprint: adjacency (~2 ids/edge) + node remaps.
          if (!w.Charge(ball.sub.graph.NumNodes() * 4 * sizeof(NodeId) +
                        ball.sub.graph.NumEdges() * 2 * sizeof(NodeId))) {
            return std::nullopt;
          }
          MatchOptions match_options;
          match_options.governor = gov;
          const MatchSet matches =
              ball.matcher.FindMatches(ball.sub.graph, pattern, match_options);
          if (ball.matcher.interrupted()) return std::nullopt;
          return matches.size();
        },
        result);
    return;
  }

  const MatchAnchors& anchors = *ctx.anchors;
  ForEachFocal(
      ctx.loop, /*grain=*/4, [] { return BfsWorkspace(); },
      [&](NodeId n, Worker<BfsWorkspace>& w) -> std::optional<std::uint64_t> {
        // BFS workspace footprint (visited list + per-node marks).
        if (!w.Charge(graph.NumNodes() * sizeof(NodeId))) return std::nullopt;
        BfsWorkspace& bfs = w.scratch;
        bfs.Run(graph, n, k);
        RecordBall(bfs.visited().size(), &w.stats);
        std::uint64_t count = 0;
        for (std::size_t m = 0; m < anchors.NumMatches(); ++m) {
          bool inside = true;
          for (int j = 0; j < anchors.NumAnchors(); ++j) {
            ++w.stats.containment_checks;
            if (!bfs.Reached(anchors.Anchor(m, j))) {
              inside = false;
              break;
            }
          }
          if (inside) ++count;
        }
        return count;
      },
      result);
}

}  // namespace egocensus::internal
