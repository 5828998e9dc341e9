#include "census/topk.h"

#include <algorithm>

#include "census/engines.h"
#include "census/pmi.h"
#include "graph/bfs.h"
#include "util/timer.h"

namespace egocensus {

[[nodiscard]] Result<TopKResult> RunTopKCensus(const Graph& graph, const Pattern& pattern,
                                 std::span<const NodeId> focal,
                                 const TopKOptions& options) {
  std::vector<char> is_focal;  // filled to reject a repeated focal id
  auto anchor_nodes =
      CheckCensusInputs(graph, pattern, options.subpattern, focal, &is_focal);
  if (!anchor_nodes.ok()) return anchor_nodes.status();

  TopKResult result;
  const std::uint32_t k = options.k;
  Governor* gov = options.governor;

  bool interrupted = false;
  MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                &result.stats, &interrupted);
  if (interrupted) return gov->ToStatus("top-k census (match)");
  MatchAnchors anchors(&matches, *anchor_nodes);

  Timer index_timer;
  const PivotIndex index(pattern, anchors);
  result.stats.index_seconds = index_timer.ElapsedSeconds();

  Timer census_timer;
  // Pass 1: upper bounds. `exact` marks nodes whose bound is already the
  // true count (no pivot image needed a containment check).
  struct Bound {
    NodeId node;
    std::uint64_t bound;
    bool exact;
  };
  std::vector<Bound> bounds;
  bounds.reserve(focal.size());
  BfsWorkspace bfs;
  for (NodeId n : focal) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus("top-k census (bounding pass)");
    }
    bfs.Run(graph, n, k);
    result.stats.nodes_expanded += bfs.visited().size();
    bool exact = true;
    const std::uint64_t bound = index.Bound(bfs, k, &exact);
    bounds.push_back({n, bound, exact});
  }
  std::sort(bounds.begin(), bounds.end(), [](const Bound& a, const Bound& b) {
    return a.bound != b.bound ? a.bound > b.bound : a.node < b.node;
  });

  // Pass 2: evaluate exact counts in decreasing-bound order until the
  // current K-th best dominates every remaining bound.
  const std::size_t top_k = std::min(options.top_k, bounds.size());
  // Current best K as (count, node), kept as a min-heap on count.
  std::vector<std::pair<std::uint64_t, NodeId>> heap;
  auto heap_cmp = [](const auto& a, const auto& b) {
    // Min-heap by count; among equal counts evict the larger node id first
    // so ties resolve toward smaller ids.
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  for (const Bound& b : bounds) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus("top-k census (exact pass)");
    }
    if (heap.size() == top_k &&
        (top_k == 0 || heap.front().first >= b.bound)) {
      break;  // no remaining node can displace the current top-K
    }
    std::uint64_t count;
    if (b.exact) {
      count = b.bound;
    } else {
      bfs.Run(graph, b.node, k);
      result.stats.nodes_expanded += bfs.visited().size();
      count = index.Count(bfs, k, &result.stats.containment_checks);
      ++result.exact_evaluations;
    }
    if (heap.size() < top_k) {
      heap.emplace_back(count, b.node);
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    } else if (top_k > 0 && (count > heap.front().first ||
                             (count == heap.front().first &&
                              b.node < heap.front().second))) {
      std::pop_heap(heap.begin(), heap.end(), heap_cmp);
      heap.back() = {count, b.node};
      std::push_heap(heap.begin(), heap.end(), heap_cmp);
    }
  }
  std::sort(heap.begin(), heap.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  result.top.reserve(heap.size());
  for (const auto& [count, node] : heap) result.top.emplace_back(node, count);
  result.stats.census_seconds = census_timer.ElapsedSeconds();
  return result;
}

}  // namespace egocensus
