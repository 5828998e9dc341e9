#ifndef EGOCENSUS_CENSUS_PT_COMMON_H_
#define EGOCENSUS_CENSUS_PT_COMMON_H_

// Internal: setup shared by the pattern-driven engines (single-node and
// pairwise): center selection / distance index construction, match
// clustering, and the pattern-distance shortcut matrix.

#include <cstdint>
#include <vector>

#include "census/census.h"
#include "census/pmi.h"
#include "census/pt_expander.h"
#include "graph/distance_index.h"
#include "graph/graph.h"

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

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_PT_COMMON_H_
