#include "graph/graph.h"

#include <algorithm>

#include "util/strings.h"

namespace egocensus {

NodeId Graph::AddNode(Label label) {
  if (finalized_) return kInvalidNode;
  labels_.push_back(label);
  max_label_ = std::max(max_label_, label);
  // Recycle a stale adjacency row (left behind by Reset) when available so
  // repeated populate/finalize cycles keep the rows' capacity.
  if (build_out_.size() <= num_nodes_) {
    build_out_.emplace_back();
  } else {
    build_out_[num_nodes_].clear();
  }
  if (directed_) {
    if (build_in_.size() <= num_nodes_) {
      build_in_.emplace_back();
    } else {
      build_in_[num_nodes_].clear();
    }
  }
  return num_nodes_++;
}

NodeId Graph::AddNodes(std::uint32_t count, Label label) {
  if (finalized_) return kInvalidNode;
  NodeId first = num_nodes_;
  for (std::uint32_t i = 0; i < count; ++i) AddNode(label);
  return first;
}

EdgeId Graph::AddEdge(NodeId u, NodeId v) {
  if (finalized_) return kInvalidEdge;
  if (u == v || u >= num_nodes_ || v >= num_nodes_) return kInvalidEdge;
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.emplace_back(u, v);
  build_out_[u].emplace_back(v, id);
  if (directed_) {
    build_in_[v].emplace_back(u, id);
  } else {
    build_out_[v].emplace_back(u, id);
  }
  return id;
}

Status Graph::SetLabel(NodeId n, Label label) {
  if (finalized_) {
    return Status::InvalidArgument("SetLabel: graph is already finalized");
  }
  if (n >= num_nodes_) return Status::OutOfRange("SetLabel: no such node");
  labels_[n] = label;
  max_label_ = std::max(max_label_, label);
  return Status::Ok();
}

void Graph::BuildCsr(
    std::uint32_t num_nodes,
    std::vector<std::vector<std::pair<NodeId, EdgeId>>>* adj, bool dedup,
    Csr* out) {
  out->offsets.assign(num_nodes + 1, 0);
  out->targets.clear();
  out->edge_ids.clear();
  std::size_t total = 0;
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    auto& list = (*adj)[n];
    std::sort(list.begin(), list.end());
    if (dedup) {
      list.erase(std::unique(list.begin(), list.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }),
                 list.end());
    }
    total += list.size();
  }
  out->targets.reserve(total);
  out->edge_ids.reserve(total);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    out->offsets[n] = static_cast<std::uint32_t>(out->targets.size());
    for (const auto& [nbr, eid] : (*adj)[n]) {
      out->targets.push_back(nbr);
      out->edge_ids.push_back(eid);
    }
  }
  out->offsets[num_nodes] = static_cast<std::uint32_t>(out->targets.size());
}

Status Graph::Finalize(bool release_build_buffers) {
  if (finalized_) {
    return Status::InvalidArgument("Finalize: graph is already finalized");
  }
  BuildCsr(num_nodes_, &build_out_, /*dedup=*/false, &out_);
  has_parallel_edges_ = false;
  for (NodeId n = 0; n < num_nodes_ && !has_parallel_edges_; ++n) {
    std::span<const NodeId> row = out_.NeighborsOf(n);
    has_parallel_edges_ =
        std::adjacent_find(row.begin(), row.end()) != row.end();
  }
  if (directed_) {
    BuildCsr(num_nodes_, &build_in_, /*dedup=*/false, &in_);
    // Combined undirected view: merge of in and out, deduplicated.
    std::vector<std::vector<std::pair<NodeId, EdgeId>>> comb(num_nodes_);
    for (NodeId n = 0; n < num_nodes_; ++n) {
      comb[n].reserve(build_out_[n].size() + build_in_[n].size());
      for (const auto& p : build_out_[n]) comb[n].push_back(p);
      for (const auto& p : build_in_[n]) comb[n].push_back(p);
    }
    BuildCsr(num_nodes_, &comb, /*dedup=*/true, &combined_);
  }
  if (release_build_buffers) {
    build_out_.clear();
    build_out_.shrink_to_fit();
    build_in_.clear();
    build_in_.shrink_to_fit();
  }
  finalized_ = true;
  return Status::Ok();
}

void Graph::Reset(bool directed) {
  directed_ = directed;
  finalized_ = false;
  has_parallel_edges_ = false;
  num_nodes_ = 0;
  max_label_ = 0;
  labels_.clear();
  edges_.clear();
  // build_out_/build_in_ rows are kept and recycled lazily by AddNode; the
  // CSR vectors are rebuilt in place by the next Finalize. Stale CSR reads
  // are impossible because every accessor asserts finalized_.
  node_attributes_.Clear();
  edge_attributes_.Clear();
}

std::span<const NodeId> Graph::OutNeighbors(NodeId n) const {
  assert(finalized_);
  return out_.NeighborsOf(n);
}

std::span<const EdgeId> Graph::OutEdgeIds(NodeId n) const {
  assert(finalized_);
  return {out_.edge_ids.data() + out_.offsets[n],
          out_.edge_ids.data() + out_.offsets[n + 1]};
}

std::span<const NodeId> Graph::InNeighbors(NodeId n) const {
  assert(finalized_);
  return directed_ ? in_.NeighborsOf(n) : out_.NeighborsOf(n);
}

std::span<const NodeId> Graph::Neighbors(NodeId n) const {
  assert(finalized_);
  return directed_ ? combined_.NeighborsOf(n) : out_.NeighborsOf(n);
}

namespace {

bool SortedContains(std::span<const NodeId> nodes, NodeId target) {
  return std::binary_search(nodes.begin(), nodes.end(), target);
}

}  // namespace

bool Graph::HasEdge(NodeId u, NodeId v) const {
  return SortedContains(OutNeighbors(u), v);
}

bool Graph::HasUndirectedEdge(NodeId u, NodeId v) const {
  return SortedContains(Neighbors(u), v);
}

std::optional<EdgeId> Graph::FindEdge(NodeId u, NodeId v) const {
  assert(finalized_);
  auto nbrs = out_.NeighborsOf(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return std::nullopt;
  std::size_t idx = out_.offsets[u] + (it - nbrs.begin());
  return out_.edge_ids[idx];
}

std::optional<AttributeValue> Graph::GetNodeAttribute(
    NodeId n, const std::string& name) const {
  if (EqualsIgnoreCase(name, "LABEL")) {
    return AttributeValue(static_cast<std::int64_t>(labels_[n]));
  }
  if (EqualsIgnoreCase(name, "ID")) {
    return AttributeValue(static_cast<std::int64_t>(n));
  }
  return node_attributes_.Get(n, name);
}

}  // namespace egocensus
