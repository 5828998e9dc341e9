#ifndef EGOCENSUS_CENSUS_PT_COMMON_H_
#define EGOCENSUS_CENSUS_PT_COMMON_H_

// Internal: what the pattern-driven engines (single-node and pairwise)
// share: the setup — center selection / distance index construction, match
// clustering, and the pattern-distance shortcut matrix — and the per-unit
// work of PT-BAS (one match's anchor balls) and PT-OPT (one cluster's
// simultaneous expansion). Each kernel keeps only what it counts from them.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "census/census.h"
#include "census/engines.h"
#include "census/pmi.h"
#include "census/pt_expander.h"
#include "graph/bfs.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace egocensus::internal {

struct PtSetup {
  CenterDistanceIndex local_index;  // backing storage when built here
  const CenterDistanceIndex* center_index = nullptr;  // may stay null
  std::vector<std::vector<std::uint32_t>> clusters;   // match ids per cluster
  std::vector<std::uint32_t> anchor_dist;  // t*t pattern distances, capped k+1
  double index_seconds = 0;                // center index build time
  ExpanderOptions expander;  // best-first; PT-RND turns best_first off
};

/// Builds the center index (unless supplied), clusters the matches, fills
/// the shortcut matrix and the expander options. K-means polls `governor`;
/// after a stop the clusters are incomplete, so callers check
/// governor->stopped() and count nothing.
PtSetup BuildPtSetup(const Graph& graph, const Pattern& pattern,
                     const MatchAnchors& anchors, const PtOptions& options,
                     std::uint32_t k, Governor* governor);

/// PT-BAS's per-match work: the k-ball of every anchor of one match. It
/// also finds the focal nodes a maintained census adjusts for a match an
/// update creates or kills, over the DynamicGraph overlay.
struct AnchorBalls {
  explicit AnchorBalls(int num_anchors) : balls(num_anchors) {}

  /// BFSes the anchors' balls of match `m` in `graph` (a Graph or a
  /// DynamicGraph), records each in *stats, and returns the nodes of the
  /// smallest (the first among equals).
  template <typename GraphT>
  const std::vector<NodeId>& Run(const GraphT& graph,
                                 const MatchAnchors& anchors, std::size_t m,
                                 std::uint32_t k, CensusStats* stats) {
    smallest = 0;
    for (int j = 0; j < anchors.NumAnchors(); ++j) {
      balls[j].Run(graph, anchors.Anchor(m, j), k);
      RecordBall(balls[j].visited().size(), stats);
      if (balls[j].visited().size() < balls[smallest].visited().size()) {
        smallest = j;
      }
    }
    return balls[smallest].visited();
  }
  /// For a node n of the smallest ball: true when every other ball reaches
  /// it too, i.e. S(n, k) holds all the match's anchors. Each test of
  /// another ball adds one to *checks.
  bool ReachedByAll(NodeId n, std::uint64_t* checks) const {
    for (int j = 0; j < static_cast<int>(balls.size()); ++j) {
      if (j == smallest) continue;
      ++*checks;
      if (!balls[j].Reached(n)) return false;
    }
    return true;
  }

  std::vector<BfsWorkspace> balls;
  int smallest = 0;
};

/// PT-OPT's per-cluster work: a worker's expander, and the anchor sets of
/// the cluster it expands.
struct ClusterExpansion {
  ClusterExpansion(const Graph& graph, const ExpanderOptions& options)
      : expander(graph, options) {}

  /// Expands simultaneously around the matches of `cluster` and records the
  /// expander's traversal counters (its totals so far) in *stats.
  void Expand(const std::vector<std::uint32_t>& cluster,
              const MatchAnchors& anchors, const PtSetup& setup,
              CensusStats* stats) {
    anchor_sets.resize(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      anchors.Get(cluster[i], &anchor_sets[i]);
    }
    expander.Expand(anchor_sets, &setup.anchor_dist);
    EGO_HIST_RECORD("census/pt/cluster_size", cluster.size());
    EGO_HIST_RECORD("census/pt/expansion_size", expander.NumVisited());
    stats->nodes_expanded = expander.stats().pops;
    stats->reinsertions = expander.stats().reinsertions;
    stats->peak_neighborhood = std::max<std::uint64_t>(
        stats->peak_neighborhood, expander.NumVisited());
  }

  SimultaneousExpander expander;
  std::vector<std::vector<NodeId>> anchor_sets;
};

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_PT_COMMON_H_
