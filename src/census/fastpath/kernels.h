#ifndef EGOCENSUS_CENSUS_FASTPATH_KERNELS_H_
#define EGOCENSUS_CENSUS_FASTPATH_KERNELS_H_

// Per-ego-network motif counting kernels (docs/FAST_PATH.md).
//
// Each shape's count reads only what it needs of a ball S(n, k): its size,
// its members' degrees inside it, the triangles it holds, or (for the
// 4-node shapes) an induced local CSR. Matching a pattern whose anchor
// images must lie inside S(n, k) is equivalent to matching in the induced
// subgraph G[S(n, k)], so the counts are bit-identical to the generic
// engines' per-focal counts (the property tests assert this at 1/2/8
// threads).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "exec/governor.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "pattern/shape.h"

namespace egocensus::internal::fastpath {

/// What a shape's count reads of each ball, besides its size.
struct BallReads {
  bool degrees = false;    // edge, wedge, induced wedge
  bool triangles = false;  // triangle, induced wedge
  bool local_csr = false;  // every 4-node shape (EgoKernel)
};

BallReads ReadsOf(const PatternShape& shape);

/// Subgraph-copy counts (not necessarily induced) of each connected
/// <= 4-node shape inside one ego-network's induced subgraph. Fields a
/// shape does not read stay zero.
struct MotifCounts {
  std::uint64_t nodes = 0;     // |S(n, k)|
  std::uint64_t edges = 0;     // m
  std::uint64_t wedge = 0;     // sum_v C(d_v, 2)
  std::uint64_t triangle = 0;
  std::uint64_t path4 = 0;
  std::uint64_t claw = 0;
  std::uint64_t paw = 0;
  std::uint64_t cycle4 = 0;
  std::uint64_t diamond = 0;
  std::uint64_t clique4 = 0;
};

/// Projects MotifCounts onto one shape, applying the induced-count
/// reconstruction (inclusion-exclusion over denser supershapes) when the
/// pattern negates its complement.
std::uint64_t ShapeCount(const MotifCounts& counts, const PatternShape& shape);

/// Sets counts->edges and counts->wedge from the degrees inside the ball
/// `ball` last ran to radius k: a member's ball degree is the number of its
/// neighbors the BFS reached, which is its whole degree unless it lies on
/// the outer layer.
void CountBallDegrees(const Graph& graph, const BfsWorkspace& ball,
                      std::uint32_t k, MotifCounts* counts);

/// The triangles of G[U], where U = ∪ S(n, k) over one census's focal
/// nodes, listed once per census. Forward rows keep each region edge at its
/// lower-ranked end (rank = (global degree, id)), and marks close the
/// triangles, as Pangolin's mark_neighbors does. Each triangle is filed
/// under its lowest-ranked vertex as the pair of its other two.
class RegionTriangles {
 public:
  /// Finds U with one multi-source BFS truncated at k, then lists its
  /// triangles, polling the governor and charging its bytes as it goes.
  /// False when the governor stopped it: nothing may be counted then.
  bool List(const Graph& graph, std::span<const NodeId> focal,
            std::uint32_t k, Governor* governor);

  /// Triangles of G[S(n, k)], for the ball S(n, k) ⊆ U that `ball` last
  /// ran: the filed triangles of its members whose two other vertices it
  /// reached. A triangle inside the ball has its lowest-ranked vertex
  /// there, so each is counted exactly once.
  std::uint64_t CountInside(const BfsWorkspace& ball) const;

 private:
  std::vector<std::uint32_t> slot_;  // node -> position in U (U's nodes only)
  // The triangles filed under the node at position p of U:
  // filed_[filed_begin_[p], filed_begin_[p + 1]).
  std::vector<std::uint32_t> filed_begin_;
  std::vector<std::pair<NodeId, NodeId>> filed_;
};

/// Reusable per-worker kernel for the 4-node shapes, whose counts need
/// adjacency inside the ball: Build() one ego-network as a local CSR, then
/// Count() it. Not thread-safe; parallel engines keep one kernel per worker.
class EgoKernel {
 public:
  explicit EgoKernel(const Graph& graph) : graph_(&graph) {}

  /// BFS to depth k from `focal` and materialize the induced local CSR
  /// (nodes relabeled in increasing global-id order, so neighbor rows stay
  /// sorted without a per-row sort).
  void Build(NodeId focal, std::uint32_t k);

  /// Counts every connected <= 4-node shape of the built ego-network.
  MotifCounts Count();

  std::uint32_t NumLocalNodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }

  /// Current footprint of the reused buffers, for ScratchCharge.
  std::uint64_t ScratchBytes() const;

 private:
  const Graph* graph_;
  BfsWorkspace bfs_;

  // Ego membership: nodes_ holds S sorted by global id; local_of_ is a
  // stamped global->local map reset lazily per Build (SubgraphExtractor's
  // epoch idiom, without the Graph object).
  std::vector<NodeId> nodes_;
  std::vector<std::uint32_t> local_of_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;

  // Local induced CSR; adjacency rows are sorted by local id.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> adj_;

  // Counting scratch.
  std::vector<std::uint64_t> tri_of_node_;  // 2 * (#triangles at v)
  std::vector<std::uint32_t> paths_to_;     // Chiba-Nishizeki L[] array
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> mark_;         // per-edge-DFS common-neighbor marks
  std::vector<std::uint32_t> common_;
};

}  // namespace egocensus::internal::fastpath

#endif  // EGOCENSUS_CENSUS_FASTPATH_KERNELS_H_
