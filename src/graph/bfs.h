#ifndef EGOCENSUS_GRAPH_BFS_H_
#define EGOCENSUS_GRAPH_BFS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace egocensus {

/// Reusable breadth-first search workspace. The census algorithms run one
/// BFS per focal node over largely overlapping neighborhoods, so the
/// distance array is allocated once and reset lazily (only previously
/// visited entries are cleared between runs).
///
/// BFS expands the undirected neighbor view (Graph::Neighbors), matching the
/// paper's k-hop neighborhood definition. Run is a template over any
/// topology exposing NumNodes() and Neighbors(n), so the same workspace
/// drives both the static CSR Graph and the DynamicGraph overlay.
class BfsWorkspace {
 public:
  static constexpr std::uint32_t kUnreached =
      std::numeric_limits<std::uint32_t>::max();

  BfsWorkspace() = default;

  /// Runs BFS from `source` visiting nodes up to distance `max_depth`
  /// inclusive. Returns the visited nodes (including the source) in
  /// nondecreasing distance order. The result view is valid until the next
  /// Run call on this workspace.
  template <typename GraphT>
  const std::vector<NodeId>& Run(const GraphT& graph, NodeId source,
                                 std::uint32_t max_depth) {
    return Run(graph, std::span<const NodeId>(&source, 1), max_depth);
  }

  /// Multi-source form: visits every node within `max_depth` of some
  /// source, i.e. the union of the sources' balls (a census's focal
  /// region). The sources come first, in their order, at distance 0; a
  /// repeated source is visited once.
  template <typename GraphT>
  const std::vector<NodeId>& Run(const GraphT& graph,
                                 std::span<const NodeId> sources,
                                 std::uint32_t max_depth) {
    if (dist_.size() < graph.NumNodes()) {
      dist_.resize(graph.NumNodes(), kUnreached);
    }
    // Lazy reset: clear only what the previous run touched.
    for (NodeId n : visited_) dist_[n] = kUnreached;
    visited_.clear();

    for (NodeId source : sources) {
      if (dist_[source] == kUnreached) {
        dist_[source] = 0;
        visited_.push_back(source);
      }
    }
    // visited_ doubles as the BFS queue (it is already in frontier order).
    std::size_t head = 0;
    while (head < visited_.size()) {
      NodeId u = visited_[head++];
      std::uint32_t du = dist_[u];
      if (du == max_depth) continue;
      for (NodeId v : graph.Neighbors(u)) {
        if (dist_[v] == kUnreached) {
          dist_[v] = du + 1;
          visited_.push_back(v);
        }
      }
    }
    return visited_;
  }

  /// Distance of `n` from the last Run's source, or kUnreached.
  std::uint32_t DistanceTo(NodeId n) const {
    return n < dist_.size() ? dist_[n] : kUnreached;
  }

  bool Reached(NodeId n) const { return DistanceTo(n) != kUnreached; }

  /// Visited nodes from the last run, in BFS order.
  const std::vector<NodeId>& visited() const { return visited_; }

  /// Footprint of the reused buffers, for ScratchCharge.
  std::uint64_t ScratchBytes() const {
    return (dist_.capacity() + visited_.capacity()) * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> dist_;
  std::vector<NodeId> visited_;
};

/// Runs a full (unbounded) BFS from `source` and writes distances into
/// `out_dist` (resized to NumNodes; unreachable entries get `unreached`).
/// Used to build the center distance index.
void FullBfsDistances(const Graph& graph, NodeId source,
                      std::vector<std::uint16_t>* out_dist,
                      std::uint16_t unreached);

}  // namespace egocensus

#endif  // EGOCENSUS_GRAPH_BFS_H_
