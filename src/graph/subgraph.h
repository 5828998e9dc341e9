#ifndef EGOCENSUS_GRAPH_SUBGRAPH_H_
#define EGOCENSUS_GRAPH_SUBGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "exec/failpoints.h"
#include "graph/bfs.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace egocensus {

/// An induced subgraph S together with the mapping from its local node ids
/// back to the parent graph. `graph` is finalized.
struct EgoSubgraph {
  Graph graph;
  std::vector<NodeId> to_global;  // local id -> parent id
};

/// Materializes induced subgraphs of a parent topology: the CSR Graph, or
/// the DynamicGraph overlay (any type exposing NumNodes, directed, label,
/// Neighbors, OutNeighbors and node_attributes, as BfsWorkspace::Run reads
/// it). Keeps an epoch-stamped global->local scratch map, grown on demand
/// as the parent grows, so repeated extraction (one per focal node in
/// ND-BAS) does not reallocate, and supports the `*Into` variants that
/// additionally recycle the output EgoSubgraph's buffers (Graph::Reset) so
/// a tight extraction loop settles into zero steady-state allocation.
/// Instances are not thread-safe; parallel engines keep one extractor per
/// worker.
template <typename GraphT>
class SubgraphExtractor {
 public:
  explicit SubgraphExtractor(const GraphT& graph) : graph_(graph) {}

  /// Induced subgraph on `nodes` (duplicates ignored). Labels are always
  /// copied; node attributes, and the edge attributes of a parent with
  /// edge ids, are copied when `copy_attributes` is set (needed when the
  /// pattern has non-LABEL attribute predicates).
  EgoSubgraph Extract(std::span<const NodeId> nodes,
                      bool copy_attributes = true) {
    EgoSubgraph out;
    ExtractInto(nodes, copy_attributes, &out);
    return out;
  }

  /// Extract into a caller-owned EgoSubgraph whose buffers are reused
  /// across calls. `out` must not alias the parent graph.
  void ExtractInto(std::span<const NodeId> nodes, bool copy_attributes,
                   EgoSubgraph* out) {
    if (stamp_.size() < graph_.NumNodes()) {
      local_of_.resize(graph_.NumNodes(), kInvalidNode);
      stamp_.resize(graph_.NumNodes(), 0);
    }
    ++epoch_;
    out->graph.Reset(graph_.directed());
    out->to_global.clear();
    out->to_global.reserve(nodes.size());
    for (NodeId g : nodes) {
      if (stamp_[g] == epoch_) continue;  // duplicate
      stamp_[g] = epoch_;
      local_of_[g] = static_cast<NodeId>(out->to_global.size());
      out->to_global.push_back(g);
      out->graph.AddNode(graph_.label(g));
    }
    // Induced edges: directed graphs copy every out-edge between members;
    // undirected graphs copy each member-member edge once (from the
    // endpoint with the smaller global id).
    for (NodeId g : out->to_global) {
      const NodeId lu = local_of_[g];
      auto nbrs = graph_.OutNeighbors(g);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const NodeId h = nbrs[i];
        if (stamp_[h] != epoch_) continue;
        if (!graph_.directed() && h < g) continue;
        [[maybe_unused]] const EdgeId local_edge =
            out->graph.AddEdge(lu, local_of_[h]);
        if constexpr (kHasEdgeIds) {
          if (copy_attributes && local_edge != kInvalidEdge) {
            out->graph.edge_attributes().CopyFrom(
                graph_.edge_attributes(), graph_.OutEdgeIds(g)[i], local_edge);
          }
        }
      }
    }
    if (copy_attributes) {
      for (NodeId g : out->to_global) {
        out->graph.node_attributes().CopyFrom(graph_.node_attributes(), g,
                                              local_of_[g]);
      }
    }
    CheckOk(out->graph.Finalize(/*release_build_buffers=*/false),
            "extracted subgraph");
  }

  /// Induced subgraph on the k-hop neighborhood S(n, k).
  EgoSubgraph ExtractKHop(NodeId n, std::uint32_t k,
                          bool copy_attributes = true) {
    EgoSubgraph out;
    ExtractKHopInto(n, k, copy_attributes, &out);
    return out;
  }

  /// ExtractKHop with output-buffer reuse (the ND-BAS hot loop). n is
  /// local id 0: the BFS visits it first.
  void ExtractKHopInto(NodeId n, std::uint32_t k, bool copy_attributes,
                       EgoSubgraph* out) {
    EGO_FAILPOINT("extract/khop");
    ExtractInto(bfs1_.Run(graph_, n, k), copy_attributes, out);
  }

  /// Induced subgraph on N_k(n1) ∩ N_k(n2).
  EgoSubgraph ExtractIntersection(NodeId n1, NodeId n2, std::uint32_t k,
                                  bool copy_attributes = true) {
    bfs1_.Run(graph_, n1, k);
    scratch_nodes_.clear();
    for (NodeId n : bfs2_.Run(graph_, n2, k)) {
      if (bfs1_.Reached(n)) scratch_nodes_.push_back(n);
    }
    return Extract(scratch_nodes_, copy_attributes);
  }

  /// Induced subgraph on N_k(n1) ∪ N_k(n2).
  EgoSubgraph ExtractUnion(NodeId n1, NodeId n2, std::uint32_t k,
                           bool copy_attributes = true) {
    const auto& nodes1 = bfs1_.Run(graph_, n1, k);
    scratch_nodes_.assign(nodes1.begin(), nodes1.end());
    for (NodeId n : bfs2_.Run(graph_, n2, k)) {
      if (!bfs1_.Reached(n)) scratch_nodes_.push_back(n);
    }
    return Extract(scratch_nodes_, copy_attributes);
  }

  /// Local id of parent node `global` in the last extraction, or
  /// kInvalidNode when it is not a member.
  NodeId LocalOf(NodeId global) const {
    return global < stamp_.size() && stamp_[global] == epoch_
               ? local_of_[global]
               : kInvalidNode;
  }

 private:
  /// The CSR Graph carries edge ids (and edge attributes); the dynamic
  /// overlay has neither.
  static constexpr bool kHasEdgeIds =
      requires(const GraphT& g, NodeId n) { g.OutEdgeIds(n); };

  const GraphT& graph_;
  BfsWorkspace bfs1_;
  BfsWorkspace bfs2_;
  std::vector<NodeId> local_of_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> scratch_nodes_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_GRAPH_SUBGRAPH_H_
