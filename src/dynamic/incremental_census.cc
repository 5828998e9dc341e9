#include "dynamic/incremental_census.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <variant>

#include "census/census.h"
#include "census/engines.h"
#include "census/pmi.h"
#include "census/pt_common.h"
#include "exec/failpoints.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "match/matcher.h"
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

/// One batch's scratch, reused across its updates: the extractor over the
/// overlay and the region it extracted last, a BFS workspace, the anchor
/// balls of one match, the selected matcher (region ids are local, so no
/// profile index, as in ND-BAS), and the work counters of the census
/// kernels it runs, which maintenance does not report.
struct IncrementalCensus::Scratch {
  Scratch(const DynamicGraph& graph, int num_anchors, bool use_gql_matcher)
      : extractor(graph),
        balls(num_anchors),
        matcher(internal::SelectMatcher(use_gql_matcher, nullptr)) {}

  SubgraphExtractor<DynamicGraph> extractor;
  EgoSubgraph sub;
  BfsWorkspace bfs;
  internal::AnchorBalls balls;
  std::unique_ptr<Matcher> matcher;
  CensusStats census_stats;
};

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
  const NodeId num_nodes = graph_->NumNodes();
  all_nodes_focal_ = all_nodes;
  if (all_nodes) {
    // egolint: no-checkpoint(O(N) focal-list build during Init)
    for (NodeId n = 0; n < num_nodes; ++n) {
      if (!graph_->NodeRemoved(n)) focal.push_back(n);
    }
  }

  // The initial census runs on an equivalent static snapshot (the base CSR
  // directly when the overlay is clean), and its input check is the
  // maintainer's: the pattern, the subpattern's anchors and the focal set.
  Graph snapshot;
  const Graph* g = &graph_->base();
  if (graph_->DeltaSize() != 0 || num_nodes != graph_->base().NumNodes()) {
    snapshot = graph_->Materialize();
    g = &snapshot;
  }
  auto anchors =
      CheckCensusInputs(*g, pattern_, options_.subpattern, focal, &focal_);
  if (!anchors.ok()) return anchors.status();
  anchor_nodes_ = std::move(anchors).value();
  // egolint: no-checkpoint(O(N) removed-node sweep during Init)
  for (NodeId n = 0; n < num_nodes; ++n) {
    if (focal_[n] && graph_->NodeRemoved(n)) {
      return Status::InvalidArgument("IncrementalCensus: focal node " +
                                     std::to_string(n) + " is removed");
    }
  }
  for (const PatternPredicate& p : pattern_.Predicates()) {
    if (std::holds_alternative<EdgeAttrRef>(p.lhs) ||
        std::holds_alternative<EdgeAttrRef>(p.rhs)) {
      return Status::Unimplemented(
          "IncrementalCensus: edge-attribute predicates are not supported "
          "by the dynamic layer");
    }
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

  if (focal.empty()) {
    counts_.assign(num_nodes, 0);
  } else {
    auto result = RunCensus(*g, pattern_, focal, options_);
    if (!result.ok()) return result.status();
    // Maintenance needs every count exact, so a stopped initial census
    // fails creation instead of seeding it with lower bounds.
    if (!result->exec_status.ok()) return result->exec_status;
    counts_ = std::move(result->counts);
  }
  expected_version_ = graph_->version();
  return Status::Ok();
}

MatchSet IncrementalCensus::EnumerateEdgeMatches(
    NodeId u, NodeId v, bool edge_present, Scratch* scratch,
    MaintenanceStats* stats) const {
  MatchSet out(pattern_.NumNodes());
  if (edge_present && pattern_.PositiveEdges().empty()) return out;
  if (!edge_present && pattern_.NegativeEdges().empty()) return out;

  // Every match depending on (u, v) maps some pattern edge onto {u, v}, so
  // all its images lie within diam(P) of an endpoint: matching inside the
  // induced region B(u, diam) ∪ B(v, diam) finds exactly those matches.
  const EgoSubgraph region = scratch->extractor.ExtractUnion(
      u, v, diameter_, pattern_.HasGeneralPredicates());
  stats->region_nodes += region.graph.NumNodes();
  EGO_HIST_RECORD("dynamic/region_nodes", region.graph.NumNodes());
  const NodeId lu = scratch->extractor.LocalOf(u);
  const NodeId lv = scratch->extractor.LocalOf(v);

  const MatchSet matches =
      scratch->matcher->FindMatches(region.graph, pattern_);
  std::vector<NodeId> images(pattern_.NumNodes());
  for (std::size_t i = 0; i < matches.size(); ++i) {
    std::span<const NodeId> local = matches.Match(i);
    bool depends =
        edge_present ? MatchUsesEdge(region.graph, pattern_, local, lu, lv)
                     : MatchForbidsEdge(region.graph, pattern_, local, lu, lv);
    if (!depends) continue;
    for (std::size_t j = 0; j < local.size(); ++j) {
      images[j] = region.to_global[local[j]];
    }
    out.Add(images);
    ++stats->delta_matches;
  }
  return out;
}

std::uint64_t IncrementalCensus::LocalRecount(NodeId n,
                                              Scratch* scratch) const {
  if (n >= graph_->NumNodes() || graph_->NodeRemoved(n)) return 0;
  const bool need_attrs = pattern_.HasGeneralPredicates();
  EgoSubgraph& sub = scratch->sub;
  if (whole_pattern_) {
    // COUNTP: every anchor image must lie in S(n, k), i.e. the whole match
    // does — extract S(n, k) and count matches inside (ND-BAS locally).
    scratch->extractor.ExtractKHopInto(n, options_.k, need_attrs, &sub);
    return scratch->matcher->FindMatches(sub.graph, pattern_).size();
  }
  // COUNTSP: the match may extend up to diam(P) beyond the anchors, so
  // matching inside S(n, k + diam) finds every match whose anchor images
  // are within k of n; distances <= k are exact inside the ball, whose
  // local id 0 is n. Then ND-BAS's anchor-coverage scan counts them.
  scratch->extractor.ExtractKHopInto(n, options_.k + diameter_, need_attrs,
                                     &sub);
  const MatchSet matches = scratch->matcher->FindMatches(sub.graph, pattern_);
  BfsWorkspace& bfs = scratch->bfs;
  bfs.Run(sub.graph, 0, options_.k);
  return MatchAnchors(&matches, anchor_nodes_)
      .CountInside([&bfs](NodeId a) { return bfs.Reached(a); },
                   &scratch->census_stats.containment_checks);
}

void IncrementalCensus::ApplyMatchDeltas(
    const MatchSet& matches, int sign,
    const std::unordered_map<NodeId, char>& skip, DeltaMap* acc,
    Scratch* scratch, MaintenanceStats* stats) const {
  // The focal nodes gaining/losing a match M are exactly those whose
  // S(n, k) contains all anchor images: PT-BAS's intersection of the
  // anchors' k-balls (reverse BFS; the undirected view is symmetric).
  const MatchAnchors anchors(&matches, anchor_nodes_);
  internal::AnchorBalls& balls = scratch->balls;
  CensusStats& census_stats = scratch->census_stats;
  for (std::size_t m = 0; m < anchors.NumMatches(); ++m) {
    for (NodeId n : balls.Run(*graph_, anchors, m, options_.k, &census_stats)) {
      if (!IsFocal(n) || skip.contains(n)) continue;
      if (!balls.ReachedByAll(n, &census_stats.containment_checks)) continue;
      (*acc)[n] += sign;
      ++stats->adjusted_nodes;
    }
  }
}

Result<bool> IncrementalCensus::ProcessEdgeUpdate(
    NodeId u, NodeId v, bool insert, Scratch* scratch, DeltaMap* acc,
    MaintenanceStats* stats) {
  if (u >= graph_->NumNodes() || v >= graph_->NumNodes()) {
    return Status::OutOfRange("edge endpoint out of range");
  }
  if (insert == graph_->HasEdge(u, v)) return false;  // reported no-op

  MatchSet dying;
  MatchSet born;
  if (insert) {
    // Matches relying on the *absence* of (u, v) via a negated pattern
    // edge die; they must be enumerated before the insert.
    dying = EnumerateEdgeMatches(u, v, /*edge_present=*/false, scratch, stats);
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
      for (NodeId n : scratch->bfs.Run(*graph_, endpoint, options_.k - 1)) {
        if (IsFocal(n)) recount.emplace(n, 1);
      }
    }
  }

  if (insert) {
    born = EnumerateEdgeMatches(u, v, /*edge_present=*/true, scratch, stats);
  } else {
    dying = EnumerateEdgeMatches(u, v, /*edge_present=*/true, scratch, stats);
  }

  // Anchor balls are taken in whatever topology is current; on the
  // complement of A2 the k-ball membership is identical in both
  // topologies, so the order of operations below does not matter there.
  if (insert) {
    ApplyMatchDeltas(born, +1, recount, acc, scratch, stats);
    ApplyMatchDeltas(dying, -1, recount, acc, scratch, stats);
  } else {
    ApplyMatchDeltas(dying, -1, recount, acc, scratch, stats);
    auto applied = graph_->RemoveEdge(u, v);
    if (!applied.ok()) return applied.status();
    if (!pattern_.NegativeEdges().empty()) {
      born = EnumerateEdgeMatches(u, v, /*edge_present=*/false, scratch,
                                  stats);
      ApplyMatchDeltas(born, +1, recount, acc, scratch, stats);
    }
  }

  for (const auto& [n, unused] : recount) {
    std::uint64_t fresh = LocalRecount(n, scratch);
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
  Scratch scratch(*graph_, static_cast<int>(anchor_nodes_.size()),
                  options_.use_gql_matcher);
  DeltaMap acc;
  DeltaMap batch_acc;

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

  // Maintains the counts for one update. An error leaves the graph as the
  // last flush left it, so the caller drops the update's unflushed deltas.
  auto apply_update = [&](const GraphUpdate& update) -> Status {
    switch (update.kind) {
      case GraphUpdate::Kind::kAddEdge:
      case GraphUpdate::Kind::kRemoveEdge: {
        bool insert = update.kind == GraphUpdate::Kind::kAddEdge;
        auto applied = ProcessEdgeUpdate(update.u, update.v, insert, &scratch,
                                         &acc, &stats);
        if (!applied.ok()) return applied.status();
        if (applied.value()) {
          ++stats.updates_applied;
        } else {
          ++stats.noop_updates;
        }
        flush();
        return Status::Ok();
      }
      case GraphUpdate::Kind::kAddNode: {
        auto id = graph_->AddNode(update.label);
        if (!id.ok()) return id.status();
        counts_.push_back(0);
        focal_.push_back(all_nodes_focal_ ? 1 : 0);
        if (focal_.back()) {
          // An isolated node only matches single-node patterns; the local
          // recount handles that exactly.
          std::uint64_t fresh = LocalRecount(id.value(), &scratch);
          ++stats.recounted_nodes;
          if (fresh != 0) {
            acc[id.value()] = static_cast<std::int64_t>(fresh);
          }
        }
        ++stats.updates_applied;
        flush();
        return Status::Ok();
      }
      case GraphUpdate::Kind::kRemoveNode: {
        NodeId n = update.u;
        if (n >= graph_->NumNodes()) {
          return Status::OutOfRange("RemoveNode: no such node");
        }
        if (graph_->NodeRemoved(n)) {
          ++stats.noop_updates;
          return Status::Ok();
        }
        // Detach every incident edge through the maintained path, then
        // tombstone: the node ends isolated with an exact count, which
        // drops to 0 once the id is dead.
        std::vector<NodeId> targets(graph_->OutNeighbors(n).begin(),
                                    graph_->OutNeighbors(n).end());
        for (NodeId x : targets) {
          auto applied = ProcessEdgeUpdate(n, x, /*insert=*/false, &scratch,
                                           &acc, &stats);
          if (!applied.ok()) return applied.status();
          flush();
        }
        if (graph_->directed()) {
          std::vector<NodeId> sources(graph_->InNeighbors(n).begin(),
                                      graph_->InNeighbors(n).end());
          for (NodeId x : sources) {
            auto applied = ProcessEdgeUpdate(x, n, /*insert=*/false,
                                             &scratch, &acc, &stats);
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
        return Status::Ok();
      }
    }
    return Status::Internal("unknown update kind");
  };

  Status status = Status::Ok();
  for (const GraphUpdate& update : updates) {
    // One checkpoint per update: a governor stop aborts the batch between
    // updates, so the applied prefix stays exact (same contract as an
    // invalid-update abort) and ends the batch below.
    EGO_FAILPOINT("dynamic/update");
    if (options_.governor != nullptr &&
        options_.governor->Checkpoint() != StopReason::kNone) {
      status = options_.governor->ToStatus(
          "IncrementalCensus::ApplyBatch (applied prefix updates stay "
          "applied)");
      break;
    }
    // Per-update latency: sampled only when observability is on so the
    // default path never touches the clock per update.
    const std::uint64_t update_begin_us =
        obs::Enabled() ? Timer::NowMicros() : 0;
    status = apply_update(update);
    if (!status.ok()) {
      acc.clear();
      break;
    }
    if (obs::Enabled()) {
      EGO_HIST_RECORD("dynamic/update_micros",
                      Timer::NowMicros() - update_begin_us);
    }
  }

  // A completed batch and an aborted one's applied prefix end alike.
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
  if (!status.ok()) return status;
  return stats;
}

}  // namespace egocensus
