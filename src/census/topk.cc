#include "census/topk.h"

#include <algorithm>
#include <optional>

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
  std::vector<Bound> bounds(focal.size());
  internal::ForEachUnit(
      {focal, gov}, focal, /*grain=*/8, [] { return BfsWorkspace(); },
      [&](NodeId n, internal::Worker<BfsWorkspace>& w) -> std::optional<Bound> {
        // The BFS workspace is the per-worker footprint.
        if (!w.Charge(graph.NumNodes() * sizeof(NodeId))) return std::nullopt;
        BfsWorkspace& bfs = w.scratch;
        bfs.Run(graph, n, k);
        internal::RecordBall(bfs.visited().size(), &w.stats);
        bool exact = true;
        const std::uint64_t bound = index.Bound(bfs, k, &exact);
        return Bound{n, bound, exact};
      },
      [&bounds](std::size_t i, const Bound& b) { bounds[i] = b; },
      &result.stats);
  if (gov != nullptr && gov->stopped()) {
    return gov->ToStatus("top-k census (bounding pass)");
  }
  std::sort(bounds.begin(), bounds.end(), [](const Bound& a, const Bound& b) {
    return a.bound != b.bound ? a.bound > b.bound : a.node < b.node;
  });

  // Pass 2: evaluate exact counts in decreasing-bound order, keeping the
  // best K sorted (count descending, ties toward smaller ids), until the
  // K-th best count reaches every remaining bound.
  const std::size_t top_k = std::min(options.top_k, bounds.size());
  std::vector<std::pair<NodeId, std::uint64_t>>& top = result.top;
  auto better = [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  };
  BfsWorkspace bfs;
  for (const Bound& b : bounds) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus("top-k census (exact pass)");
    }
    if (top.size() == top_k && (top_k == 0 || top.back().second >= b.bound)) {
      break;  // no remaining node can displace the current top-K
    }
    std::uint64_t count = b.bound;
    if (!b.exact) {
      bfs.Run(graph, b.node, k);
      result.stats.nodes_expanded += bfs.visited().size();
      count = index.Count(bfs, k, &result.stats.containment_checks);
      ++result.exact_evaluations;
    }
    const std::pair<NodeId, std::uint64_t> entry(b.node, count);
    top.insert(std::upper_bound(top.begin(), top.end(), entry, better), entry);
    if (top.size() > top_k) top.pop_back();
  }
  result.stats.census_seconds = census_timer.ElapsedSeconds();
  return result;
}

}  // namespace egocensus
