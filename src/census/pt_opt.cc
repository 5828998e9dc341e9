#include <vector>

#include "census/engines.h"
#include "census/pt_common.h"

namespace egocensus::internal {

// PT-OPT / PT-RND (Section IV-B / Algorithm 4): cluster the pattern matches
// (K-means over center-distance feature vectors), then for each cluster run
// one simultaneous traversal computing, for every node near the cluster, its
// distances to all cluster anchors; a node's count increases once per match
// whose anchors all lie within k hops. PT-RND replaces the best-first queue
// with random pops, isolating the contribution of best-first ordering
// (Fig. 4(d)).
//
// Clusters are independent, so they run on the summed-vector driver, one
// unit per cluster; each worker owns an expander (its traversal state is
// per-instance). The PMD relaxation converges to the unique exact-distance
// fixpoint regardless of pop order, so counts are identical to the serial
// run for any worker count (and for PT-RND's randomized pops); only
// traversal stats like pops/reinsertions may differ, which the determinism
// contract excludes.
void RunPtOpt(const CensusContext& ctx, CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const CensusOptions& options = *ctx.options;
  const std::uint32_t k = options.k;
  const std::vector<char>& is_focal = *ctx.is_focal;
  const MatchAnchors& anchors = *ctx.anchors;
  Governor* const gov = ctx.loop.governor;

  if (anchors.NumMatches() == 0) {
    MarkAllComplete(ctx.loop, result);
    return;
  }

  PtSetup setup = BuildPtSetup(graph, *ctx.pattern, anchors, options, k, gov);
  result->stats.index_seconds = setup.index_seconds;
  // Stopped while clustering: nothing was counted, all stay kPending.
  if (gov != nullptr && gov->stopped()) return;
  setup.expander.best_first = options.algorithm != CensusAlgorithm::kPtRnd;

  const bool finished = SumOverUnits(
      ctx.loop, setup.clusters.size(), /*grain=*/1,
      [&] { return ClusterExpansion(graph, setup.expander); },
      [&](std::size_t c, std::vector<std::uint64_t>& counts,
          Worker<ClusterExpansion>& w) {
        const std::vector<std::uint32_t>& cluster = setup.clusters[c];
        const SimultaneousExpander& expander = w.scratch.expander;
        // Simultaneous-expansion distance table: per-visited-node rows over
        // the cluster's anchors, plus the private count vector.
        if (!w.Charge(static_cast<std::uint64_t>(graph.NumNodes()) *
                          sizeof(std::uint64_t) +
                      expander.NumVisited() * cluster.size() *
                          sizeof(std::uint32_t))) {
          return false;
        }
        w.scratch.Expand(cluster, anchors, setup, &w.stats);
        const auto& match_anchor_idx = expander.match_anchor_indices();
        for (std::size_t slot = 0; slot < expander.NumVisited(); ++slot) {
          NodeId n = expander.VisitedNode(slot);
          if (!is_focal[n]) continue;
          for (const auto& idx : match_anchor_idx) {
            bool near = true;
            for (std::uint32_t a : idx) {
              ++w.stats.containment_checks;
              if (expander.Pmd(slot, a) > k) {
                near = false;
                break;
              }
            }
            if (near) ++counts[n];
          }
        }
        return true;
      },
      &result->counts, &result->stats);
  if (finished) MarkAllComplete(ctx.loop, result);
}

}  // namespace egocensus::internal
