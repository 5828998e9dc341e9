#include "dynamic/dynamic_graph.h"

#include <algorithm>
#include <utility>

#include "util/strings.h"

namespace egocensus {
namespace {

bool SortedContains(std::span<const NodeId> nodes, NodeId x) {
  return std::binary_search(nodes.begin(), nodes.end(), x);
}

/// Inserts x into a sorted vector (no-op if present).
void SortedInsert(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it == v->end() || *it != x) v->insert(it, x);
}

/// Erases x from a sorted vector (no-op if absent).
void SortedErase(std::vector<NodeId>* v, NodeId x) {
  auto it = std::lower_bound(v->begin(), v->end(), x);
  if (it != v->end() && *it == x) v->erase(it);
}

}  // namespace

DynamicGraph::DynamicGraph(Graph base) : base_(std::move(base)) {
  num_nodes_ = base_.NumNodes();
  num_edges_ = base_.NumEdges();
  max_label_ = base_.NumLabels() == 0 ? 0 : base_.NumLabels() - 1;
  removed_.assign(num_nodes_, 0);
}

std::span<const NodeId> DynamicGraph::BaseNeighbors(int view, NodeId n) const {
  if (n >= base_.NumNodes()) return {};
  switch (view) {
    case kOutView:
      return base_.OutNeighbors(n);
    case kInView:
      return base_.InNeighbors(n);
    default:
      return base_.Neighbors(n);
  }
}

std::span<const NodeId> DynamicGraph::ViewNeighbors(int view, NodeId n) const {
  auto it = delta_[view].find(n);
  if (it == delta_[view].end()) return BaseNeighbors(view, n);
  return it->second;
}

bool DynamicGraph::ViewContains(int view, NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) return false;
  return SortedContains(ViewNeighbors(view, u), v);
}

std::vector<NodeId>& DynamicGraph::DirtyNeighbors(int view, NodeId n) {
  auto [it, inserted] = delta_[view].try_emplace(n);
  if (inserted) {
    auto base = BaseNeighbors(view, n);
    it->second.assign(base.begin(), base.end());
  }
  return it->second;
}

Status DynamicGraph::CheckEndpoints(NodeId u, NodeId v) const {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (u == v) return Status::InvalidArgument("self-loops are not supported");
  if (NodeRemoved(u) || NodeRemoved(v)) {
    return Status::InvalidArgument("edge endpoint is a removed node");
  }
  return Status::Ok();
}

Result<NodeId> DynamicGraph::AddNode(Label label) {
  NodeId id = num_nodes_++;
  ext_labels_.push_back(label);
  removed_.push_back(0);
  max_label_ = std::max(max_label_, label);
  ++version_;
  return id;
}

Result<bool> DynamicGraph::AddEdge(NodeId u, NodeId v) {
  Status status = CheckEndpoints(u, v);
  if (!status.ok()) return status;
  if (HasEdge(u, v)) return false;  // duplicate: reported no-op
  if (directed()) {
    // The undirected view gains u~v only when the reverse arc is absent
    // (the base combined view is deduplicated the same way).
    if (!HasEdge(v, u)) {
      SortedInsert(&DirtyNeighbors(kUndView, u), v);
      SortedInsert(&DirtyNeighbors(kUndView, v), u);
    }
    SortedInsert(&DirtyNeighbors(kOutView, u), v);
    SortedInsert(&DirtyNeighbors(kInView, v), u);
  } else {
    SortedInsert(&DirtyNeighbors(kOutView, u), v);
    SortedInsert(&DirtyNeighbors(kOutView, v), u);
  }
  ++num_edges_;
  ++version_;
  ++delta_ops_;
  return true;
}

Result<bool> DynamicGraph::RemoveEdge(NodeId u, NodeId v) {
  if (u >= num_nodes_ || v >= num_nodes_) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (!HasEdge(u, v)) return false;  // missing: reported no-op
  if (directed()) {
    SortedErase(&DirtyNeighbors(kOutView, u), v);
    SortedErase(&DirtyNeighbors(kInView, v), u);
    if (!HasEdge(v, u)) {
      SortedErase(&DirtyNeighbors(kUndView, u), v);
      SortedErase(&DirtyNeighbors(kUndView, v), u);
    }
  } else {
    SortedErase(&DirtyNeighbors(kOutView, u), v);
    SortedErase(&DirtyNeighbors(kOutView, v), u);
  }
  --num_edges_;
  ++version_;
  ++delta_ops_;
  return true;
}

Result<bool> DynamicGraph::RemoveNode(NodeId n) {
  if (n >= num_nodes_) return Status::OutOfRange("no such node");
  if (NodeRemoved(n)) return false;
  // Detach all incident edges, then tombstone the id.
  std::vector<NodeId> targets(OutNeighbors(n).begin(), OutNeighbors(n).end());
  for (NodeId x : targets) {
    auto removed = RemoveEdge(n, x);
    if (!removed.ok()) return removed.status();
  }
  if (directed()) {
    std::vector<NodeId> sources(InNeighbors(n).begin(),
                                InNeighbors(n).end());
    for (NodeId x : sources) {
      auto removed = RemoveEdge(x, n);
      if (!removed.ok()) return removed.status();
    }
  }
  removed_[n] = 1;
  ++version_;
  return true;
}

Result<bool> DynamicGraph::Apply(const GraphUpdate& update,
                                 NodeId* new_node_id) {
  switch (update.kind) {
    case GraphUpdate::Kind::kAddEdge:
      return AddEdge(update.u, update.v);
    case GraphUpdate::Kind::kRemoveEdge:
      return RemoveEdge(update.u, update.v);
    case GraphUpdate::Kind::kAddNode: {
      auto id = AddNode(update.label);
      if (!id.ok()) return id.status();
      if (new_node_id != nullptr) *new_node_id = id.value();
      return true;
    }
    case GraphUpdate::Kind::kRemoveNode:
      return RemoveNode(update.u);
  }
  return Status::Internal("unknown update kind");
}

Graph DynamicGraph::Materialize() const {
  Graph out(directed());
  for (NodeId n = 0; n < num_nodes_; ++n) out.AddNode(label(n));
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (directed()) {
      for (NodeId x : OutNeighbors(n)) out.AddEdge(n, x);
    } else {
      for (NodeId x : OutNeighbors(n)) {
        if (n < x) out.AddEdge(n, x);
      }
    }
  }
  if (!base_.node_attributes().AttributeNames().empty()) {
    for (NodeId n = 0; n < num_nodes_; ++n) {
      out.node_attributes().CopyFrom(base_.node_attributes(), n, n);
    }
  }
  CheckOk(out.Finalize(), "extracted subgraph");
  return out;
}

void DynamicGraph::Compact() {
  Graph fresh = Materialize();
  base_ = std::move(fresh);
  for (auto& view : delta_) view.clear();
  ext_labels_.clear();
  num_edges_ = base_.NumEdges();
  delta_ops_ = 0;
}

std::optional<AttributeValue> DynamicGraph::GetNodeAttribute(
    NodeId n, const std::string& name) const {
  if (EqualsIgnoreCase(name, "LABEL")) {
    return AttributeValue(static_cast<std::int64_t>(label(n)));
  }
  if (EqualsIgnoreCase(name, "ID")) {
    return AttributeValue(static_cast<std::int64_t>(n));
  }
  return base_.node_attributes().Get(n, name);
}

}  // namespace egocensus
