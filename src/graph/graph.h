#ifndef EGOCENSUS_GRAPH_GRAPH_H_
#define EGOCENSUS_GRAPH_GRAPH_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/attributes.h"
#include "graph/types.h"
#include "util/status.h"

namespace egocensus {

/// In-memory property graph with the data model of Section II: directed or
/// undirected, dense node ids, a fast-path `label` per node plus arbitrary
/// dynamic attribute-value pairs on nodes and edges.
///
/// Lifecycle: populate with AddNode/AddEdge, then call Finalize() exactly
/// once. Finalize() converts the adjacency into a CSR layout with sorted
/// neighbor lists (enabling O(log d) HasEdge) and, for directed graphs,
/// builds a combined undirected adjacency used by neighborhood expansion
/// (the paper expands k-hop neighborhoods ignoring direction while pattern
/// edges keep their orientation). All read accessors require a finalized
/// graph.
///
/// Lifecycle misuse (mutation after Finalize(), double Finalize()) is
/// rejected with a reportable error rather than undefined behavior:
/// AddNode/AddNodes return kInvalidNode, AddEdge returns kInvalidEdge, and
/// SetLabel/Finalize return a non-OK Status. Service-mode callers (the
/// dynamic-update subsystem) rely on these guards.
class Graph {
 public:
  explicit Graph(bool directed = false) : directed_(directed) {}

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // --- Construction ---------------------------------------------------

  /// Adds one node and returns its id. Returns kInvalidNode if the graph is
  /// already finalized.
  NodeId AddNode(Label label = kDefaultLabel);

  /// Adds `count` nodes with the given label; returns the first new id (or
  /// kInvalidNode after Finalize()).
  NodeId AddNodes(std::uint32_t count, Label label = kDefaultLabel);

  /// Adds an edge u->v (directed) or u-v (undirected) and returns its id.
  /// Self-loops, out-of-range endpoints, and mutation after Finalize() are
  /// rejected with kInvalidEdge. Parallel edges are not deduplicated;
  /// callers that must avoid them should check HasEdge first (generators
  /// do).
  EdgeId AddEdge(NodeId u, NodeId v);

  /// Overrides the label of a node. Only valid before Finalize().
  [[nodiscard]] Status SetLabel(NodeId n, Label label);

  /// Sorts adjacency lists, flattens to CSR, and freezes the topology.
  /// Calling Finalize() twice returns an error and leaves the graph intact.
  /// `release_build_buffers` (default) frees the build-phase adjacency;
  /// graph objects recycled through Reset() pass false so the per-node
  /// buffers keep their capacity across populate/finalize cycles.
  [[nodiscard]] Status Finalize(bool release_build_buffers = true);

  /// Returns the graph to the empty, un-finalized state while keeping
  /// every allocated buffer (labels, edge list, CSR arrays, and — when the
  /// previous Finalize was called with release_build_buffers=false — the
  /// build-phase adjacency rows). This is the scratch-reuse path behind
  /// SubgraphExtractor::ExtractInto: repeated neighborhood extraction
  /// allocates only when a neighborhood outgrows every previous one.
  void Reset(bool directed);

  // --- Topology accessors (require Finalize()) ------------------------

  bool directed() const { return directed_; }
  bool finalized() const { return finalized_; }
  std::uint32_t NumNodes() const { return num_nodes_; }
  std::uint32_t NumEdges() const {
    return static_cast<std::uint32_t>(edges_.size());
  }

  /// Number of distinct labels in use (max label + 1).
  std::uint32_t NumLabels() const { return max_label_ + 1; }

  /// True when some node's sorted out-row repeats a neighbor, i.e. AddEdge
  /// inserted a parallel edge. Recorded once by Finalize(); Reset() clears
  /// it.
  bool has_parallel_edges() const { return has_parallel_edges_; }

  Label label(NodeId n) const { return labels_[n]; }

  /// Endpoints of edge e: (source, target) for directed, (u, v) as inserted
  /// for undirected.
  std::pair<NodeId, NodeId> EdgeEndpoints(EdgeId e) const { return edges_[e]; }

  /// Out-neighbors (directed) / all neighbors (undirected), sorted.
  std::span<const NodeId> OutNeighbors(NodeId n) const;

  /// Edge ids parallel to OutNeighbors(n).
  std::span<const EdgeId> OutEdgeIds(NodeId n) const;

  /// In-neighbors (directed) / all neighbors (undirected), sorted.
  std::span<const NodeId> InNeighbors(NodeId n) const;

  /// Undirected view: union of in- and out-neighbors, sorted, deduplicated.
  /// This is the N(x) used for k-hop neighborhood expansion.
  std::span<const NodeId> Neighbors(NodeId n) const;

  /// Degree in the undirected view (|Neighbors(n)|).
  std::uint32_t Degree(NodeId n) const {
    return static_cast<std::uint32_t>(Neighbors(n).size());
  }

  /// True if the directed edge u->v exists (undirected: u-v).
  bool HasEdge(NodeId u, NodeId v) const;

  /// True if u and v are adjacent ignoring direction.
  bool HasUndirectedEdge(NodeId u, NodeId v) const;

  /// Edge id of u->v (undirected: u-v) if present. If parallel edges exist,
  /// returns one of them.
  std::optional<EdgeId> FindEdge(NodeId u, NodeId v) const;

  // --- Attributes ------------------------------------------------------

  AttributeTable& node_attributes() { return node_attributes_; }
  const AttributeTable& node_attributes() const { return node_attributes_; }
  AttributeTable& edge_attributes() { return edge_attributes_; }
  const AttributeTable& edge_attributes() const { return edge_attributes_; }

  /// Node attribute lookup with the LABEL fast path: "LABEL" (any case)
  /// resolves to the structural label; "ID" resolves to the node id.
  std::optional<AttributeValue> GetNodeAttribute(NodeId n,
                                                 const std::string& name) const;

 private:
  struct Csr {
    std::vector<std::uint32_t> offsets;  // size num_nodes + 1
    std::vector<NodeId> targets;
    std::vector<EdgeId> edge_ids;  // parallel to targets (empty in combined)
    std::span<const NodeId> NeighborsOf(NodeId n) const {
      return {targets.data() + offsets[n], targets.data() + offsets[n + 1]};
    }
  };

  /// Flattens rows [0, num_nodes) of `adj` into `out`, reusing out's
  /// buffers. Rows of `adj` beyond num_nodes (stale scratch from a larger
  /// previous build) are ignored.
  static void BuildCsr(std::uint32_t num_nodes,
                       std::vector<std::vector<std::pair<NodeId, EdgeId>>>* adj,
                       bool dedup, Csr* out);

  bool directed_;
  bool finalized_ = false;
  bool has_parallel_edges_ = false;
  std::uint32_t num_nodes_ = 0;
  Label max_label_ = 0;

  std::vector<Label> labels_;
  std::vector<std::pair<NodeId, NodeId>> edges_;

  // Build-phase adjacency; cleared by Finalize().
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> build_out_;
  std::vector<std::vector<std::pair<NodeId, EdgeId>>> build_in_;

  // Finalized CSR adjacency.
  Csr out_;
  Csr in_;        // directed only
  Csr combined_;  // directed only (undirected view)

  AttributeTable node_attributes_;
  AttributeTable edge_attributes_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_GRAPH_GRAPH_H_
