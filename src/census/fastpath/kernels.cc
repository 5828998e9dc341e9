#include "census/fastpath/kernels.h"

#include <algorithm>
#include <span>

namespace egocensus::internal::fastpath {
namespace {

std::uint64_t Choose2(std::uint64_t d) { return d * (d - 1) / 2; }
std::uint64_t Choose3(std::uint64_t d) {
  return d < 3 ? 0 : d * (d - 1) * (d - 2) / 6;
}

/// Size of the intersection of two sorted rows (standard merge).
std::uint32_t IntersectCount(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b) {
  std::uint32_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

/// Intersection of two sorted rows restricted to values > floor.
void IntersectAbove(std::span<const std::uint32_t> a,
                    std::span<const std::uint32_t> b, std::uint32_t floor,
                    std::vector<std::uint32_t>* out) {
  out->clear();
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      if (a[i] > floor) out->push_back(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

BallReads ReadsOf(const PatternShape& shape) {
  BallReads reads;
  switch (shape.id) {
    case ShapeId::kSingleton:
      break;
    case ShapeId::kEdge:
      reads.degrees = true;
      break;
    case ShapeId::kWedge:
      reads.degrees = true;
      reads.triangles = shape.induced;  // wedge_i = wedge - 3 * triangle
      break;
    case ShapeId::kTriangle:
      reads.triangles = true;
      break;
    default:
      reads.local_csr = true;
  }
  return reads;
}

std::uint64_t ShapeCount(const MotifCounts& c, const PatternShape& shape) {
  if (!shape.induced) {
    switch (shape.id) {
      case ShapeId::kSingleton:
        return c.nodes;
      case ShapeId::kEdge:
        return c.edges;
      case ShapeId::kWedge:
        return c.wedge;
      case ShapeId::kTriangle:
        return c.triangle;
      case ShapeId::kPath4:
        return c.path4;
      case ShapeId::kClaw:
        return c.claw;
      case ShapeId::kPaw:
        return c.paw;
      case ShapeId::kCycle4:
        return c.cycle4;
      case ShapeId::kDiamond:
        return c.diamond;
      case ShapeId::kClique4:
        return c.clique4;
      case ShapeId::kGeneric:
        return 0;
    }
    return 0;
  }
  // Induced counts by inclusion-exclusion: subtract, for each strictly
  // denser shape on the same node count, (copies of this shape inside it)
  // x (its induced count). Derivations in docs/FAST_PATH.md.
  const std::uint64_t k4 = c.clique4;
  const std::uint64_t diamond = c.diamond - 6 * k4;
  const std::uint64_t cycle4 = c.cycle4 - diamond - 3 * k4;
  const std::uint64_t paw = c.paw - 4 * diamond - 12 * k4;
  const std::uint64_t claw = c.claw - paw - 2 * diamond - 4 * k4;
  const std::uint64_t path4 =
      c.path4 - 2 * paw - 4 * cycle4 - 6 * diamond - 12 * k4;
  switch (shape.id) {
    case ShapeId::kWedge:
      return c.wedge - 3 * c.triangle;
    case ShapeId::kPath4:
      return path4;
    case ShapeId::kClaw:
      return claw;
    case ShapeId::kPaw:
      return paw;
    case ShapeId::kCycle4:
      return cycle4;
    case ShapeId::kDiamond:
      return diamond;
    // Complete skeletons canonicalize to non-induced in AnalyzeShape, but
    // answer them anyway (the counts coincide).
    case ShapeId::kSingleton:
      return c.nodes;
    case ShapeId::kEdge:
      return c.edges;
    case ShapeId::kTriangle:
      return c.triangle;
    case ShapeId::kClique4:
      return k4;
    case ShapeId::kGeneric:
      return 0;
  }
  return 0;
}

void CountBallDegrees(const Graph& graph, const BfsWorkspace& ball,
                      std::uint32_t k, MotifCounts* counts) {
  std::uint64_t degree_sum = 0;
  for (NodeId v : ball.visited()) {
    // The BFS expanded every member nearer than k, so it reached all of
    // their neighbors.
    std::uint64_t d = graph.Degree(v);
    if (ball.DistanceTo(v) == k) {
      d = 0;
      for (NodeId u : graph.Neighbors(v)) d += ball.Reached(u) ? 1 : 0;
    }
    degree_sum += d;
    counts->wedge += Choose2(d);
  }
  counts->edges = degree_sum / 2;
}

bool RegionTriangles::List(const Graph& graph, std::span<const NodeId> focal,
                           std::uint32_t k, Governor* governor) {
  constexpr std::uint32_t kOutside = BfsWorkspace::kUnreached;
  BfsWorkspace region_bfs;
  const std::vector<NodeId>& region = region_bfs.Run(graph, focal, k);
  const auto size = static_cast<std::uint32_t>(region.size());
  // Positions in U, and each position's rank key (global degree, then id).
  slot_.assign(graph.NumNodes(), kOutside);
  std::vector<std::uint32_t> degree(size);
  for (std::uint32_t p = 0; p < size; ++p) {
    slot_[region[p]] = p;
    degree[p] = graph.Degree(region[p]);
  }
  auto ranks_above = [&](std::uint32_t q, std::uint32_t p) {
    return degree[q] != degree[p] ? degree[q] > degree[p]
                                  : region[q] > region[p];
  };

  // Forward rows: each edge of G[U] once, at its lower-ranked end, as the
  // position of the other end.
  std::vector<std::uint32_t> fwd_begin = {0};
  fwd_begin.reserve(size + 1);
  std::vector<std::uint32_t> fwd;
  std::vector<std::uint32_t> mark;
  filed_begin_.assign(1, 0);
  filed_begin_.reserve(size + 1);
  filed_.clear();

  // Every 64 positions, and once more before counting: a checkpoint, and a
  // charge of the listing's footprint so far.
  ScratchCharge charge;
  auto bytes = [](const auto& vec) { return vec.capacity() * sizeof(vec[0]); };
  auto proceed = [&] {
    return governor == nullptr ||
           (governor->Checkpoint() == StopReason::kNone &&
            charge.Update(governor,
                          region_bfs.ScratchBytes() + bytes(slot_) +
                              bytes(degree) + bytes(fwd_begin) + bytes(fwd) +
                              bytes(mark) + bytes(filed_begin_) +
                              bytes(filed_)));
  };
  for (std::uint32_t p = 0; p < size; ++p) {
    if (p % 64 == 0 && !proceed()) return false;
    for (NodeId w : graph.Neighbors(region[p])) {
      const std::uint32_t q = slot_[w];
      if (q != kOutside && ranks_above(q, p)) fwd.push_back(q);
    }
    fwd_begin.push_back(static_cast<std::uint32_t>(fwd.size()));
  }
  auto row = [&](std::uint32_t p) {
    return std::span<const std::uint32_t>(fwd.data() + fwd_begin[p],
                                          fwd_begin[p + 1] - fwd_begin[p]);
  };

  // For each u, mark its forward row; a marked end of a forward row of a
  // marked vertex closes a triangle whose lowest-ranked vertex is u. The
  // mark value p + 1 is unique to u, so the marks are never cleared.
  mark.assign(size, 0);
  for (std::uint32_t p = 0; p < size; ++p) {
    if (p % 64 == 0 && !proceed()) return false;
    for (std::uint32_t q : row(p)) mark[q] = p + 1;
    for (std::uint32_t q : row(p)) {
      for (std::uint32_t r : row(q)) {
        if (mark[r] == p + 1) filed_.emplace_back(region[q], region[r]);
      }
    }
    filed_begin_.push_back(static_cast<std::uint32_t>(filed_.size()));
  }
  return proceed();
}

std::uint64_t RegionTriangles::CountInside(const BfsWorkspace& ball) const {
  std::uint64_t count = 0;
  for (NodeId u : ball.visited()) {
    const std::uint32_t p = slot_[u];
    for (std::uint32_t t = filed_begin_[p]; t < filed_begin_[p + 1]; ++t) {
      count += ball.Reached(filed_[t].first) && ball.Reached(filed_[t].second);
    }
  }
  return count;
}

void EgoKernel::Build(NodeId focal, std::uint32_t k) {
  const std::vector<NodeId>& visited = bfs_.Run(*graph_, focal, k);
  nodes_.assign(visited.begin(), visited.end());
  // Local ids in increasing global-id order: the parent's sorted neighbor
  // rows then map to sorted local rows for free.
  std::sort(nodes_.begin(), nodes_.end());

  if (local_of_.size() < graph_->NumNodes()) {
    local_of_.resize(graph_->NumNodes(), 0);
    stamp_.resize(graph_->NumNodes(), 0);
  }
  if (++epoch_ == 0) {  // stamp wraparound: invalidate everything once
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    local_of_[nodes_[i]] = static_cast<std::uint32_t>(i);
    stamp_[nodes_[i]] = epoch_;
  }

  offsets_.clear();
  adj_.clear();
  offsets_.push_back(0);
  for (NodeId member : nodes_) {
    for (NodeId g : graph_->Neighbors(member)) {
      if (stamp_[g] == epoch_) adj_.push_back(local_of_[g]);
    }
    offsets_.push_back(static_cast<std::uint32_t>(adj_.size()));
  }
}

MotifCounts EgoKernel::Count() {
  MotifCounts c;
  const std::uint32_t n = NumLocalNodes();
  c.nodes = n;

  auto deg = [this](std::uint32_t v) { return offsets_[v + 1] - offsets_[v]; };
  auto row = [this, &deg](std::uint32_t v) {
    return std::span<const std::uint32_t>(adj_.data() + offsets_[v], deg(v));
  };

  std::uint64_t degree_sum = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint64_t d = deg(v);
    degree_sum += d;
    c.wedge += Choose2(d);
    c.claw += Choose3(d);
  }
  c.edges = degree_sum / 2;

  // Per-edge triangle counts tri_e = |N(u) cap N(v)|; each triangle is
  // seen by its three edges, so sum_e tri_e = 3T and sum_{e at v} = 2 t_v.
  tri_of_node_.assign(n, 0);
  std::uint64_t tri_sum = 0;   // 3T
  std::uint64_t mid_pairs = 0; // sum_e (d_u - 1)(d_v - 1)
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v : row(u)) {
      if (v <= u) continue;  // one visit per unordered edge
      const std::uint64_t tri = IntersectCount(row(u), row(v));
      tri_sum += tri;
      tri_of_node_[u] += tri;
      tri_of_node_[v] += tri;
      c.diamond += Choose2(tri);
      mid_pairs += static_cast<std::uint64_t>(deg(u) - 1) * (deg(v) - 1);
    }
  }
  c.triangle = tri_sum / 3;

  // Paw = triangle + pendant edge, rooted at the triangle vertex carrying
  // the tail; P4 counted at its middle edge (subtract the closed 2-paths).
  c.path4 = mid_pairs - tri_sum;
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint64_t d = deg(v);
    if (d > 2) c.paw += (tri_of_node_[v] / 2) * (d - 2);
  }

  // 4-cycles (Chiba-Nishizeki): for each u, count 2-paths u-v-w with
  // w > u; C(L[w], 2) pairs of distinct middles close a cycle. Each cycle
  // is found at both of its diagonals' smaller endpoints, hence / 2. The
  // sum of C(L, 2) accumulates incrementally: raising L by one adds L.
  paths_to_.assign(n, 0);
  std::uint64_t cycle_pairs = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    touched_.clear();
    for (std::uint32_t v : row(u)) {
      for (std::uint32_t w : row(v)) {
        if (w <= u) continue;
        if (paths_to_[w] == 0) touched_.push_back(w);
        cycle_pairs += paths_to_[w]++;
      }
    }
    for (std::uint32_t w : touched_) paths_to_[w] = 0;
  }
  c.cycle4 = cycle_pairs / 2;

  // 4-cliques by per-edge DFS: for the edge (u, v), u < v, mark the common
  // neighbors above v; every adjacent marked pair completes a clique. Each
  // K4 is counted exactly once, at its two smallest vertices.
  mark_.assign(n, 0);
  std::uint32_t token = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t v : row(u)) {
      if (v <= u) continue;
      IntersectAbove(row(u), row(v), v, &common_);
      if (common_.size() < 2) continue;
      ++token;
      for (std::uint32_t w : common_) mark_[w] = token;
      for (std::uint32_t w : common_) {
        for (std::uint32_t x : row(w)) {
          if (x > w && mark_[x] == token) ++c.clique4;
        }
      }
    }
  }
  return c;
}

std::uint64_t EgoKernel::ScratchBytes() const {
  auto bytes = [](const auto& vec) {
    return vec.capacity() * sizeof(vec[0]);
  };
  return bytes(nodes_) + bytes(local_of_) + bytes(stamp_) + bytes(offsets_) +
         bytes(adj_) + bytes(tri_of_node_) + bytes(paths_to_) +
         bytes(touched_) + bytes(mark_) + bytes(common_) +
         bfs_.ScratchBytes();
}

}  // namespace egocensus::internal::fastpath
