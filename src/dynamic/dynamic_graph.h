#ifndef EGOCENSUS_DYNAMIC_DYNAMIC_GRAPH_H_
#define EGOCENSUS_DYNAMIC_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/status.h"

namespace egocensus {

/// One topology update of a dynamic-graph stream.
struct GraphUpdate {
  enum class Kind { kAddEdge, kRemoveEdge, kAddNode, kRemoveNode };

  Kind kind = Kind::kAddEdge;
  NodeId u = kInvalidNode;  // edge source / node to remove
  NodeId v = kInvalidNode;  // edge target
  Label label = kDefaultLabel;  // label of an added node

  static GraphUpdate AddEdge(NodeId u, NodeId v) {
    return {Kind::kAddEdge, u, v, kDefaultLabel};
  }
  static GraphUpdate RemoveEdge(NodeId u, NodeId v) {
    return {Kind::kRemoveEdge, u, v, kDefaultLabel};
  }
  static GraphUpdate AddNode(Label label = kDefaultLabel) {
    return {Kind::kAddNode, kInvalidNode, kInvalidNode, label};
  }
  static GraphUpdate RemoveNode(NodeId n) {
    return {Kind::kRemoveNode, n, kInvalidNode, kDefaultLabel};
  }
};

/// Updatable overlay over a finalized CSR Graph (the dynamic-graph substrate
/// of the EAGr-style continuous workload). The base stays read-only; a node
/// an update touches gets its own sorted adjacency per view, copied from
/// the base on first touch and edited in place, and the overlay is
/// periodically compacted into a fresh CSR base.
///
/// The overlay mirrors the topology accessors the matchers, BFS, and
/// subgraph extraction already use (NumNodes/Neighbors/OutNeighbors/
/// InNeighbors/Degree/HasEdge/label), returning spans either directly into
/// the base CSR (clean nodes) or into the node's own adjacency (dirty
/// nodes). BfsWorkspace::Run and SubgraphExtractor therefore operate on
/// base+delta unmodified, and pattern matching runs unchanged inside
/// materialized ego subgraphs of the current topology. Const accessors
/// write nothing, so concurrent readers are safe between mutations.
///
/// Semantics: the graph is kept *simple* — inserting an existing edge or
/// deleting a missing one is a reported no-op (AddEdge/RemoveEdge return
/// false). Removed nodes are tombstoned: their id stays allocated, all
/// incident edges are removed, and further mutation through them is an
/// error. Node attributes are carried by node id across updates and
/// compaction; edge attributes are not supported by the dynamic layer (see
/// docs/DYNAMIC.md).
class DynamicGraph {
 public:
  /// `base` must be finalized and simple (no parallel edges).
  explicit DynamicGraph(Graph base);

  // --- Topology accessors (mirroring Graph) ----------------------------

  bool directed() const { return base_.directed(); }
  std::uint32_t NumNodes() const { return num_nodes_; }
  std::uint64_t NumEdges() const { return num_edges_; }
  std::uint32_t NumLabels() const { return max_label_ + 1; }
  Label label(NodeId n) const {
    return n < base_.NumNodes() ? base_.label(n)
                                : ext_labels_[n - base_.NumNodes()];
  }
  bool NodeRemoved(NodeId n) const {
    return n < removed_.size() && removed_[n] != 0;
  }

  /// Out-neighbors (directed) / all neighbors (undirected), sorted.
  std::span<const NodeId> OutNeighbors(NodeId n) const {
    return ViewNeighbors(kOutView, n);
  }
  /// In-neighbors (directed) / all neighbors (undirected), sorted.
  std::span<const NodeId> InNeighbors(NodeId n) const {
    return ViewNeighbors(directed() ? kInView : kOutView, n);
  }
  /// Undirected view (the N(x) of k-hop neighborhood expansion), sorted.
  std::span<const NodeId> Neighbors(NodeId n) const {
    return ViewNeighbors(directed() ? kUndView : kOutView, n);
  }
  std::uint32_t Degree(NodeId n) const {
    return static_cast<std::uint32_t>(Neighbors(n).size());
  }
  /// True if the directed edge u->v exists (undirected: u-v).
  bool HasEdge(NodeId u, NodeId v) const {
    return ViewContains(kOutView, u, v);
  }
  bool HasUndirectedEdge(NodeId u, NodeId v) const {
    return ViewContains(directed() ? kUndView : kOutView, u, v);
  }

  /// Node attribute lookup with the LABEL/ID fast path (as Graph).
  std::optional<AttributeValue> GetNodeAttribute(
      NodeId n, const std::string& name) const;
  AttributeTable& node_attributes() { return base_.node_attributes(); }
  const AttributeTable& node_attributes() const {
    return base_.node_attributes();
  }

  // --- Mutations --------------------------------------------------------

  /// Adds a node and returns its id.
  [[nodiscard]] Result<NodeId> AddNode(Label label = kDefaultLabel);

  /// Inserts edge u->v (undirected: u-v). Returns false if the edge already
  /// exists (no-op); errors on self-loops, out-of-range ids, or removed
  /// endpoints.
  [[nodiscard]] Result<bool> AddEdge(NodeId u, NodeId v);

  /// Deletes edge u->v (undirected: u-v). Returns false if the edge does
  /// not exist (no-op).
  [[nodiscard]] Result<bool> RemoveEdge(NodeId u, NodeId v);

  /// Tombstones node n: removes all incident edges and marks the id dead.
  /// Returns false if already removed.
  [[nodiscard]] Result<bool> RemoveNode(NodeId n);

  /// Applies one GraphUpdate. For kAddNode the returned flag is always
  /// true (the new id is reported via new_node_id).
  [[nodiscard]] Result<bool> Apply(const GraphUpdate& update,
                     NodeId* new_node_id = nullptr);

  // --- Compaction -------------------------------------------------------

  /// Number of delta entries applied since the last compaction.
  std::uint64_t DeltaSize() const { return delta_ops_; }

  /// Delta size relative to the base edge count (compaction trigger).
  double DeltaFraction() const {
    return base_.NumEdges() == 0
               ? (delta_ops_ > 0 ? 1.0 : 0.0)
               : static_cast<double>(delta_ops_) / base_.NumEdges();
  }

  /// Rebuilds a fresh CSR base from base+delta and clears the delta
  /// structures. Invalidates all previously returned spans. Does not bump
  /// version(): the graph it describes is unchanged.
  void Compact();

  /// IncrementalCensus's compaction policy, applied at the end of each
  /// batch: Compact() once the delta exceeds kCompactThreshold of the base
  /// edge count. (The daemon compacts after every UPDATE that applied
  /// anything, because its queries read the compacted base.)
  static constexpr double kCompactThreshold = 0.25;
  void MaybeCompact() {
    if (DeltaFraction() > kCompactThreshold) Compact();
  }

  /// Equivalent fully static graph (finalized): same node ids (tombstoned
  /// nodes become isolated), current edges, labels, and node attributes.
  Graph Materialize() const;

  /// Monotone counter bumped by every applied (non-no-op) mutation.
  std::uint64_t version() const { return version_; }

  const Graph& base() const { return base_; }

 private:
  static constexpr int kOutView = 0;
  static constexpr int kInView = 1;
  static constexpr int kUndView = 2;

  std::span<const NodeId> BaseNeighbors(int view, NodeId n) const;
  std::span<const NodeId> ViewNeighbors(int view, NodeId n) const;
  bool ViewContains(int view, NodeId u, NodeId v) const;
  /// n's own sorted adjacency in `view`, copied from the base on first
  /// touch.
  std::vector<NodeId>& DirtyNeighbors(int view, NodeId n);
  [[nodiscard]] Status CheckEndpoints(NodeId u, NodeId v) const;

  Graph base_;  // finalized
  std::uint32_t num_nodes_ = 0;
  std::uint64_t num_edges_ = 0;
  Label max_label_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t delta_ops_ = 0;

  std::vector<Label> ext_labels_;  // nodes beyond the base
  std::vector<char> removed_;
  // One map per adjacency view from a dirty node to its current sorted
  // adjacency; undirected graphs use only kOutView (as Graph, where out ==
  // in == undirected).
  std::unordered_map<NodeId, std::vector<NodeId>> delta_[3];
};

}  // namespace egocensus

#endif  // EGOCENSUS_DYNAMIC_DYNAMIC_GRAPH_H_
