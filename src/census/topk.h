#ifndef EGOCENSUS_CENSUS_TOPK_H_
#define EGOCENSUS_CENSUS_TOPK_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "census/census.h"
#include "graph/graph.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// Result of a top-K ego-centric census.
struct TopKResult {
  /// The K focal nodes with the highest census counts, sorted by count
  /// descending (ties by node id ascending), with their exact counts.
  std::vector<std::pair<NodeId, std::uint64_t>> top;
  CensusStats stats;
  /// Number of focal nodes whose exact count had to be evaluated; the
  /// remaining |focal| - exact_evaluations nodes were pruned by their upper
  /// bounds. This is the quantity the early-termination saves.
  std::uint64_t exact_evaluations = 0;
};

/// Options of the top-K census: CensusCommon (k, subpattern, the matcher
/// choice and profile index for the one whole-graph match, and the
/// governor) plus how many nodes to return. The match and both the bounding
/// and the exact-evaluation pass poll the governor; on a stop the run
/// returns the governor's status — a truncated top-K would be silently
/// wrong, not partially useful.
struct TopKOptions : CensusCommon {
  std::size_t top_k = 10;  // how many nodes to return
};

/// Top-K query evaluation (the paper's Section VII future work): identify
/// the `top_k` focal nodes with the highest pattern census counts without
/// computing every exact count.
///
/// Threshold-style algorithm on top of the ND-PVOT machinery:
///   1. one BFS pass per focal node computes an upper bound on its count —
///      the sum of |PMI_pivot(n')| over the visited nodes n'; for nodes
///      where every visited pivot image satisfies d(n, n') + max_v <= k the
///      bound is already exact (Algorithm 2's containment-avoidance test);
///   2. focal nodes are processed in decreasing bound order, evaluating
///      exact counts (a second bounded BFS with containment checks) and
///      maintaining the current K best; evaluation stops as soon as the
///      K-th best exact count is at least the next upper bound.
///
/// The result is exact. The savings come from never running containment
/// checks for pruned nodes; on skewed (preferential-attachment) graphs the
/// bound order prunes the vast majority of focal nodes.
[[nodiscard]] Result<TopKResult> RunTopKCensus(const Graph& graph, const Pattern& pattern,
                                 std::span<const NodeId> focal,
                                 const TopKOptions& options);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_TOPK_H_
