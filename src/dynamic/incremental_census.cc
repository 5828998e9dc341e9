#include "dynamic/incremental_census.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "census/census.h"
#include "exec/failpoints.h"
#include "match/cn_matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus {
namespace {

/// True if match `images` (local ids) stops being a valid match when edge
/// (lu, lv) is removed: some positive pattern edge's structural requirement
/// holds only through that edge. `sub` is the local topology *with* the
/// edge present.
bool MatchUsesEdge(const Graph& sub, const Pattern& pattern,
                   std::span<const NodeId> images, NodeId lu, NodeId lv) {
  for (const PatternEdge& e : pattern.PositiveEdges()) {
    NodeId a = images[e.src];
    NodeId b = images[e.dst];
    if (!sub.directed()) {
      // In a simple undirected graph the only adjacency realizing a-b is
      // the edge itself.
      if ((a == lu && b == lv) || (a == lv && b == lu)) return true;
    } else if (e.directed) {
      if (a == lu && b == lv) return true;
    } else {
      // Undirected pattern edge on a directed graph: satisfied by either
      // arc; broken only when no arc other than (lu, lv) remains.
      bool holds_without = (a != lu || b != lv) && sub.HasEdge(a, b);
      holds_without =
          holds_without || ((b != lu || a != lv) && sub.HasEdge(b, a));
      if (!holds_without) return true;
    }
  }
  return false;
}

/// True if match `images` (valid in the local topology *without* arc
/// (lu, lv)) is invalidated by inserting it: some negated pattern edge's
/// absence requirement is violated by the new arc.
bool MatchForbidsEdge(const Graph& sub, const Pattern& pattern,
                      std::span<const NodeId> images, NodeId lu, NodeId lv) {
  for (const PatternEdge& e : pattern.NegativeEdges()) {
    NodeId a = images[e.src];
    NodeId b = images[e.dst];
    if (e.directed && sub.directed()) {
      if (a == lu && b == lv) return true;
    } else {
      // Undirected absence requirement (MatchSatisfiesConstraints checks
      // HasUndirectedEdge): violated by the new arc in either orientation.
      if ((a == lu && b == lv) || (a == lv && b == lu)) return true;
    }
  }
  return false;
}

}  // namespace

void MaintenanceStats::Accumulate(const MaintenanceStats& other) {
  updates_applied += other.updates_applied;
  noop_updates += other.noop_updates;
  delta_matches += other.delta_matches;
  recounted_nodes += other.recounted_nodes;
  adjusted_nodes += other.adjusted_nodes;
  changed_nodes += other.changed_nodes;
  region_nodes += other.region_nodes;
  seconds += other.seconds;
}

bool IncrementalCensus::Ball::Contains(NodeId n) const {
  return std::binary_search(nodes.begin(), nodes.end(), n);
}

Result<IncrementalCensus> IncrementalCensus::Create(DynamicGraph* graph,
                                                    Pattern pattern,
                                                    CensusOptions options) {
  if (graph == nullptr) {
    return Status::InvalidArgument("IncrementalCensus: graph is null");
  }
  IncrementalCensus census(graph, std::move(pattern), std::move(options));
  Status status = census.InitCounts({}, /*all_nodes=*/true);
  if (!status.ok()) return status;
  return census;
}

Result<IncrementalCensus> IncrementalCensus::Create(
    DynamicGraph* graph, Pattern pattern, CensusOptions options,
    std::vector<NodeId> focal) {
  if (graph == nullptr) {
    return Status::InvalidArgument("IncrementalCensus: graph is null");
  }
  IncrementalCensus census(graph, std::move(pattern), std::move(options));
  Status status = census.InitCounts(std::move(focal), /*all_nodes=*/false);
  if (!status.ok()) return status;
  return census;
}

Status IncrementalCensus::InitCounts(std::vector<NodeId> focal,
                                     bool all_nodes) {
  if (!pattern_.prepared()) {
    return Status::InvalidArgument(
        "IncrementalCensus: pattern must be prepared");
  }
  for (const PatternPredicate& p : pattern_.Predicates()) {
    if (std::holds_alternative<EdgeAttrRef>(p.lhs) ||
        std::holds_alternative<EdgeAttrRef>(p.rhs)) {
      return Status::Unimplemented(
          "IncrementalCensus: edge-attribute predicates are not supported "
          "by the dynamic layer");
    }
  }

  // Anchor nodes: the whole pattern (COUNTP) or the named subpattern.
  if (options_.subpattern.empty()) {
    anchor_nodes_.resize(pattern_.NumNodes());
    for (int v = 0; v < pattern_.NumNodes(); ++v) anchor_nodes_[v] = v;
  } else {
    const std::vector<int>* sub = pattern_.FindSubpattern(options_.subpattern);
    if (sub == nullptr) {
      return Status::NotFound("IncrementalCensus: no subpattern named '" +
                              options_.subpattern + "'");
    }
    anchor_nodes_ = *sub;
  }
  whole_pattern_ =
      static_cast<int>(anchor_nodes_.size()) == pattern_.NumNodes();

  diameter_ = 0;
  for (int v = 0; v < pattern_.NumNodes(); ++v) {
    diameter_ = std::max(diameter_, pattern_.Eccentricity(v));
  }
  if (diameter_ == Pattern::kUnreachable) {
    return Status::InvalidArgument(
        "IncrementalCensus: pattern positive skeleton must be connected");
  }

  const NodeId num_nodes = graph_->NumNodes();
  if (all_nodes) {
    all_nodes_focal_ = true;
    focal_.assign(num_nodes, 1);
  } else {
    all_nodes_focal_ = false;
    focal_.assign(num_nodes, 0);
    // egolint: no-checkpoint(O(|focal|) flag marking during Init)
    for (NodeId n : focal) {
      if (n >= num_nodes) {
        return Status::OutOfRange("IncrementalCensus: focal node " +
                                  std::to_string(n) + " out of range");
      }
      focal_[n] = 1;
    }
  }
  // egolint: no-checkpoint(O(N) removed-node sweep during Init)
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (graph_->NodeRemoved(n)) focal_[n] = 0;
  }

  // Initial census on an equivalent static snapshot (the base CSR directly
  // when the overlay is clean).
  std::vector<NodeId> focal_list;
  // egolint: no-checkpoint(O(N) focal-list build during Init)
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (focal_[n]) focal_list.push_back(n);
  }
  if (focal_list.empty()) {
    counts_.assign(num_nodes, 0);
  } else {
    Graph snapshot;
    const Graph* g = nullptr;
    if (graph_->DeltaSize() == 0 &&
        graph_->NumNodes() == graph_->base().NumNodes()) {
      g = &graph_->base();
    } else {
      snapshot = graph_->Materialize();
      g = &snapshot;
    }
    auto result = RunCensus(*g, pattern_, focal_list, options_);
    if (!result.ok()) return result.status();
    // Maintenance needs every count exact, so a stopped initial census
    // fails creation instead of seeding it with lower bounds.
    if (!result->exec_status.ok()) return result->exec_status;
    counts_ = std::move(result->counts);
  }
  expected_version_ = graph_->version();
  return Status::Ok();
}

IncrementalCensus::Ball IncrementalCensus::MakeBall(NodeId source,
                                                    std::uint32_t depth,
                                                    BfsWorkspace* bfs) const {
  Ball ball;
  const std::vector<NodeId>& visited = bfs->Run(*graph_, source, depth);
  ball.nodes.assign(visited.begin(), visited.end());
  std::sort(ball.nodes.begin(), ball.nodes.end());
  return ball;
}

std::vector<IncrementalCensus::DeltaMatch>
IncrementalCensus::EnumerateEdgeMatches(NodeId u, NodeId v, bool edge_present,
                                        DynamicSubgraphExtractor* extractor,
                                        MaintenanceStats* stats) const {
  std::vector<DeltaMatch> out;
  if (edge_present && pattern_.PositiveEdges().empty()) return out;
  if (!edge_present && pattern_.NegativeEdges().empty()) return out;

  // Every match depending on (u, v) maps some pattern edge onto {u, v}, so
  // all its images lie within diam(P) of an endpoint: matching inside the
  // induced region B(u, diam) ∪ B(v, diam) finds exactly those matches.
  EgoSubgraph sub = extractor->ExtractAroundPair(
      u, v, diameter_, pattern_.HasGeneralPredicates());
  stats->region_nodes += sub.graph.NumNodes();
  EGO_HIST_RECORD("dynamic/region_nodes", sub.graph.NumNodes());

  NodeId lu = kInvalidNode;
  NodeId lv = kInvalidNode;
  for (std::size_t i = 0; i < sub.to_global.size(); ++i) {
    if (sub.to_global[i] == u) lu = static_cast<NodeId>(i);
    if (sub.to_global[i] == v) lv = static_cast<NodeId>(i);
  }

  CnMatcher matcher;
  MatchSet matches = matcher.FindMatches(sub.graph, pattern_);
  for (std::size_t i = 0; i < matches.size(); ++i) {
    std::span<const NodeId> images = matches.Match(i);
    bool depends = edge_present
                       ? MatchUsesEdge(sub.graph, pattern_, images, lu, lv)
                       : MatchForbidsEdge(sub.graph, pattern_, images, lu, lv);
    if (!depends) continue;
    DeltaMatch dm;
    dm.anchors.reserve(anchor_nodes_.size());
    for (int a : anchor_nodes_) {
      dm.anchors.push_back(sub.to_global[images[a]]);
    }
    std::sort(dm.anchors.begin(), dm.anchors.end());
    dm.anchors.erase(std::unique(dm.anchors.begin(), dm.anchors.end()),
                     dm.anchors.end());
    out.push_back(std::move(dm));
    ++stats->delta_matches;
  }
  return out;
}

std::uint64_t IncrementalCensus::LocalRecount(
    NodeId n, DynamicSubgraphExtractor* extractor, BfsWorkspace* bfs) const {
  if (n >= graph_->NumNodes() || graph_->NodeRemoved(n)) return 0;
  const bool need_attrs = pattern_.HasGeneralPredicates();
  CnMatcher matcher;
  if (whole_pattern_) {
    // COUNTP: every anchor image must lie in S(n, k), i.e. the whole match
    // does — extract S(n, k) and count matches inside (ND-BAS locally).
    EgoSubgraph sub = extractor->ExtractKHop(n, options_.k, need_attrs);
    return matcher.FindMatches(sub.graph, pattern_).size();
  }
  // COUNTSP: the match may extend up to diam(P) beyond the anchors, so
  // matching inside S(n, k + diam) finds every match whose anchor images
  // are within k of n; distances <= k are exact inside the ball.
  EgoSubgraph sub =
      extractor->ExtractKHop(n, options_.k + diameter_, need_attrs);
  NodeId ln = kInvalidNode;
  for (std::size_t i = 0; i < sub.to_global.size(); ++i) {
    if (sub.to_global[i] == n) {
      ln = static_cast<NodeId>(i);
      break;
    }
  }
  MatchSet matches = matcher.FindMatches(sub.graph, pattern_);
  bfs->Run(sub.graph, ln, options_.k);
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < matches.size(); ++i) {
    bool inside = true;
    for (int a : anchor_nodes_) {
      if (!bfs->Reached(matches.Image(i, a))) {
        inside = false;
        break;
      }
    }
    if (inside) ++count;
  }
  return count;
}

void IncrementalCensus::ApplyMatchDeltas(
    const std::vector<DeltaMatch>& matches, int sign,
    const std::unordered_map<NodeId, char>& skip,
    std::unordered_map<NodeId, std::int64_t>* acc, BfsWorkspace* bfs,
    MaintenanceStats* stats) const {
  if (matches.empty()) return;
  // The focal nodes gaining/losing a match M are exactly those whose
  // S(n, k) contains all anchor images: the intersection of the anchors'
  // k-balls (reverse BFS; the undirected view is symmetric).
  std::unordered_map<NodeId, Ball> balls;
  for (const DeltaMatch& m : matches) {
    const Ball* smallest = nullptr;
    for (NodeId a : m.anchors) {
      auto [it, inserted] = balls.try_emplace(a);
      if (inserted) it->second = MakeBall(a, options_.k, bfs);
      if (smallest == nullptr ||
          it->second.nodes.size() < smallest->nodes.size()) {
        smallest = &it->second;
      }
    }
    for (NodeId n : smallest->nodes) {
      if (!IsFocal(n) || skip.contains(n)) continue;
      bool eligible = true;
      for (NodeId a : m.anchors) {
        const Ball& ball = balls.at(a);
        if (&ball != smallest && !ball.Contains(n)) {
          eligible = false;
          break;
        }
      }
      if (!eligible) continue;
      (*acc)[n] += sign;
      ++stats->adjusted_nodes;
    }
  }
}

Result<bool> IncrementalCensus::ProcessEdgeUpdate(
    NodeId u, NodeId v, bool insert, DynamicSubgraphExtractor* extractor,
    BfsWorkspace* bfs, std::unordered_map<NodeId, std::int64_t>* acc,
    MaintenanceStats* stats) {
  if (u >= graph_->NumNodes() || v >= graph_->NumNodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (insert == graph_->HasEdge(u, v)) return false;  // reported no-op

  std::vector<DeltaMatch> dying;
  std::vector<DeltaMatch> born;
  if (insert) {
    // Matches relying on the *absence* of (u, v) via a negated pattern
    // edge die; they must be enumerated before the insert.
    dying = EnumerateEdgeMatches(u, v, /*edge_present=*/false, extractor,
                                 stats);
    auto applied = graph_->AddEdge(u, v);
    if (!applied.ok()) return applied.status();
  }

  // A2 = focal nodes with min(d(n,u), d(n,v)) <= k-1, distances taken with
  // the edge present (post-insert / pre-delete). Only these can see their
  // S(n, k) node set change, and they are recounted from scratch below;
  // everything else keeps its exact S(n, k) and is adjusted per match.
  std::unordered_map<NodeId, char> recount;
  if (options_.k > 0) {
    for (NodeId endpoint : {u, v}) {
      for (NodeId n : bfs->Run(*graph_, endpoint, options_.k - 1)) {
        if (IsFocal(n)) recount.emplace(n, 1);
      }
    }
  }

  if (insert) {
    born = EnumerateEdgeMatches(u, v, /*edge_present=*/true, extractor,
                                stats);
  } else {
    dying = EnumerateEdgeMatches(u, v, /*edge_present=*/true, extractor,
                                 stats);
  }

  // Anchor balls are taken in whatever topology is current; on the
  // complement of A2 the k-ball membership is identical in both
  // topologies, so the order of operations below does not matter there.
  if (insert) {
    ApplyMatchDeltas(born, +1, recount, acc, bfs, stats);
    ApplyMatchDeltas(dying, -1, recount, acc, bfs, stats);
  } else {
    ApplyMatchDeltas(dying, -1, recount, acc, bfs, stats);
    auto applied = graph_->RemoveEdge(u, v);
    if (!applied.ok()) return applied.status();
    if (!pattern_.NegativeEdges().empty()) {
      born = EnumerateEdgeMatches(u, v, /*edge_present=*/false, extractor,
                                  stats);
      ApplyMatchDeltas(born, +1, recount, acc, bfs, stats);
    }
  }

  for (const auto& [n, unused] : recount) {
    std::uint64_t fresh = LocalRecount(n, extractor, bfs);
    ++stats->recounted_nodes;
    // The recount is authoritative for n (its match deltas were skipped).
    (*acc)[n] = static_cast<std::int64_t>(fresh) -
                static_cast<std::int64_t>(counts_[n]);
  }
  return true;
}

Result<MaintenanceStats> IncrementalCensus::ApplyBatch(
    std::span<const GraphUpdate> updates,
    std::vector<CountDelta>* deltas_out) {
  if (graph_->version() != expected_version_) {
    return Status::InvalidArgument(
        "IncrementalCensus: graph was mutated outside of ApplyBatch");
  }
  Timer timer;
  EGO_SPAN("dynamic/apply_batch", updates.size());
  MaintenanceStats stats;
  DynamicSubgraphExtractor extractor(*graph_);
  BfsWorkspace bfs;
  std::unordered_map<NodeId, std::int64_t> acc;
  std::unordered_map<NodeId, std::int64_t> batch_acc;

  // Folds the per-step deltas into the maintained counts; later steps of
  // the same batch then compare against up-to-date counts.
  auto flush = [&]() {
    for (const auto& [n, d] : acc) {
      if (d == 0) continue;
      counts_[n] = static_cast<std::uint64_t>(
          static_cast<std::int64_t>(counts_[n]) + d);
      batch_acc[n] += d;
    }
    acc.clear();
  };

  for (const GraphUpdate& update : updates) {
    // One checkpoint per update: a governor stop aborts the batch between
    // updates, so the applied prefix stays exact (same contract as an
    // invalid-update abort). Listeners see nothing for an aborted batch.
    EGO_FAILPOINT("dynamic/update");
    if (options_.governor != nullptr &&
        options_.governor->Checkpoint() != StopReason::kNone) {
      return options_.governor->ToStatus(
          "IncrementalCensus::ApplyBatch (applied prefix updates stay "
          "applied)");
    }
    // Per-update latency: sampled only when observability is on so the
    // default path never touches the clock per update.
    const std::uint64_t update_begin_us =
        obs::Enabled() ? Timer::NowMicros() : 0;
    switch (update.kind) {
      case GraphUpdate::Kind::kAddEdge:
      case GraphUpdate::Kind::kRemoveEdge: {
        bool insert = update.kind == GraphUpdate::Kind::kAddEdge;
        auto applied = ProcessEdgeUpdate(update.u, update.v, insert,
                                         &extractor, &bfs, &acc, &stats);
        if (!applied.ok()) return applied.status();
        if (applied.value()) {
          ++stats.updates_applied;
        } else {
          ++stats.noop_updates;
        }
        flush();
        break;
      }
      case GraphUpdate::Kind::kAddNode: {
        auto id = graph_->AddNode(update.label);
        if (!id.ok()) return id.status();
        counts_.push_back(0);
        focal_.push_back(all_nodes_focal_ ? 1 : 0);
        if (focal_.back()) {
          // An isolated node only matches single-node patterns; the local
          // recount handles that exactly.
          std::uint64_t fresh = LocalRecount(id.value(), &extractor, &bfs);
          ++stats.recounted_nodes;
          if (fresh != 0) {
            acc[id.value()] = static_cast<std::int64_t>(fresh);
          }
        }
        ++stats.updates_applied;
        flush();
        break;
      }
      case GraphUpdate::Kind::kRemoveNode: {
        NodeId n = update.u;
        if (n >= graph_->NumNodes()) {
          return Status::OutOfRange("RemoveNode: no such node");
        }
        if (graph_->NodeRemoved(n)) {
          ++stats.noop_updates;
          break;
        }
        // Detach every incident edge through the maintained path, then
        // tombstone: the node ends isolated with an exact count, which
        // drops to 0 once the id is dead.
        std::vector<NodeId> targets(graph_->OutNeighbors(n).begin(),
                                    graph_->OutNeighbors(n).end());
        for (NodeId x : targets) {
          auto applied = ProcessEdgeUpdate(n, x, /*insert=*/false,
                                           &extractor, &bfs, &acc, &stats);
          if (!applied.ok()) return applied.status();
          flush();
        }
        if (graph_->directed()) {
          std::vector<NodeId> sources(graph_->InNeighbors(n).begin(),
                                      graph_->InNeighbors(n).end());
          for (NodeId x : sources) {
            auto applied = ProcessEdgeUpdate(x, n, /*insert=*/false,
                                             &extractor, &bfs, &acc, &stats);
            if (!applied.ok()) return applied.status();
            flush();
          }
        }
        auto removed = graph_->RemoveNode(n);
        if (!removed.ok()) return removed.status();
        if (focal_[n]) {
          focal_[n] = 0;
          if (counts_[n] != 0) {
            acc[n] = -static_cast<std::int64_t>(counts_[n]);
          }
        }
        ++stats.updates_applied;
        flush();
        break;
      }
    }
    if (obs::Enabled()) {
      EGO_HIST_RECORD("dynamic/update_micros",
                      Timer::NowMicros() - update_begin_us);
    }
  }

  std::vector<CountDelta> deltas;
  for (const auto& [n, d] : batch_acc) {
    if (d != 0) deltas.push_back({n, d, counts_[n]});
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const CountDelta& a, const CountDelta& b) {
              return a.node < b.node;
            });
  stats.changed_nodes = deltas.size();
  stats.seconds = timer.ElapsedSeconds();
  if (obs::Enabled()) {
    obs::CounterAdd("dynamic/updates_applied", stats.updates_applied);
    obs::CounterAdd("dynamic/noop_updates", stats.noop_updates);
    obs::CounterAdd("dynamic/delta_matches", stats.delta_matches);
    obs::CounterAdd("dynamic/recounted_nodes", stats.recounted_nodes);
    obs::CounterAdd("dynamic/changed_nodes", stats.changed_nodes);
  }
  lifetime_stats_.Accumulate(stats);
  expected_version_ = graph_->version();

  if (!deltas.empty()) {
    for (const Listener& listener : listeners_) listener(deltas);
  }
  if (deltas_out != nullptr) *deltas_out = std::move(deltas);

  graph_->MaybeCompact();
  return stats;
}

}  // namespace egocensus
