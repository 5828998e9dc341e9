#ifndef EGOCENSUS_DYNAMIC_INCREMENTAL_CENSUS_H_
#define EGOCENSUS_DYNAMIC_INCREMENTAL_CENSUS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "census/census.h"
#include "dynamic/dynamic_graph.h"
#include "match/match_set.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// One maintained count change: node n's COUNTP went from
/// new_count - delta to new_count.
struct CountDelta {
  NodeId node = kInvalidNode;
  std::int64_t delta = 0;
  std::uint64_t new_count = 0;
};

/// Counters for one maintenance batch (or, accumulated, for the lifetime of
/// an IncrementalCensus).
struct MaintenanceStats {
  std::uint64_t updates_applied = 0;  // mutations that changed the graph
  std::uint64_t noop_updates = 0;     // duplicate inserts / missing deletes
  std::uint64_t delta_matches = 0;    // edge-anchored matches enumerated
  std::uint64_t recounted_nodes = 0;  // localized from-scratch recounts
  std::uint64_t adjusted_nodes = 0;   // counts adjusted via match deltas
  std::uint64_t changed_nodes = 0;    // nodes whose count actually changed
  std::uint64_t region_nodes = 0;     // sizes of materialized match regions
  double seconds = 0;

  void Accumulate(const MaintenanceStats& other);
};

/// Maintains the per-focal-node ego-centric pattern census
/// `COUNTP(P, SUBGRAPH(n, k))` (or COUNTSP) under a stream of graph updates
/// by localized re-enumeration instead of global recompute.
///
/// For an updated edge (u, v) the maintenance is exact and works in three
/// localized steps (see docs/DYNAMIC.md for the correctness argument):
///
///  1. *Delta matches*: only matches whose validity depends on (u, v) are
///     enumerated, by matching inside the induced region
///     B(u, diam(P)) ∪ B(v, diam(P)) and keeping matches that require the
///     edge (insertion: born; deletion: dying) or — for patterns with
///     negated edges — its absence.
///  2. *Affected focal nodes of a delta match M*: exactly the nodes whose
///     k-hop neighborhood contains all of M's anchor images, found as the
///     intersection of the k-balls of the anchors (reverse BFS from the
///     match).
///  3. *Neighborhood-membership changes*: nodes n with
///     min(d(n,u), d(n,v)) <= k-1 (k-1-balls around the endpoints, edge
///     present) are the only ones whose S(n, k) node set can change; they
///     are recounted from scratch locally (extract + match), which also
///     absorbs steps 1–2 for them.
///
/// Counts of every other node are provably unchanged, so single-edge
/// updates cost a handful of bounded-radius BFS runs plus matching in a
/// small region — orders of magnitude below a full recompute.
///
/// Steps 2 and 3 are the static census's own kernels: PT-BAS's anchor balls
/// (internal::AnchorBalls) and ND-BAS's per-ball count, over the one
/// SubgraphExtractor, with the matcher the options select (CN or GQL).
class IncrementalCensus {
 public:
  /// Change-listener: receives the aggregated count deltas of every
  /// applied batch (fired once per ApplyBatch that changed any count).
  using Listener = std::function<void(const std::vector<CountDelta>&)>;

  /// Builds the initial census over all (non-removed) nodes of `graph`,
  /// running RunCensus with `options`, and returns a maintainer that keeps
  /// its k, subpattern and governor. `graph` must outlive the returned
  /// object; `pattern` must be prepared. Patterns with edge-attribute
  /// predicates are not supported by the dynamic layer.
  ///
  /// The governor (null = ungoverned): a stop in the initial census fails
  /// Create with the governor's status; ApplyBatch checkpoints once per
  /// update and stops between updates, returning the governor's status
  /// after ending the batch on its applied prefix (see ApplyBatch).
  [[nodiscard]] static Result<IncrementalCensus> Create(DynamicGraph* graph,
                                          Pattern pattern,
                                          CensusOptions options);

  /// As above, restricted to an explicit focal set: an out-of-range id is
  /// OUT_OF_RANGE, a repeated or removed one INVALID_ARGUMENT (the input
  /// check of RunCensus, plus tombstones). Nodes added later are not focal.
  [[nodiscard]] static Result<IncrementalCensus> Create(DynamicGraph* graph,
                                          Pattern pattern,
                                          CensusOptions options,
                                          std::vector<NodeId> focal);

  /// counts()[n] = maintained census count of focal node n (0 for
  /// non-focal / removed nodes); sized graph->NumNodes() as of the last
  /// batch.
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  bool IsFocal(NodeId n) const {
    return n < focal_.size() && focal_[n] != 0;
  }

  const Pattern& pattern() const { return pattern_; }
  /// Stats of every batch applied so far, accumulated.
  const MaintenanceStats& lifetime_stats() const { return lifetime_stats_; }

  void AddListener(Listener listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Applies `updates` in order, maintaining all focal counts exactly.
  /// Count deltas are aggregated across the batch, delivered to listeners,
  /// and optionally returned via `deltas_out`. The batch ends with
  /// DynamicGraph::MaybeCompact. An invalid update or a governor stop
  /// aborts the batch with an error, but the updates applied before it
  /// stay applied and leave through the same exit as a completed batch:
  /// their deltas reach the listeners and `deltas_out`, lifetime_stats()
  /// counts them, and later batches are accepted.
  [[nodiscard]] Result<MaintenanceStats> ApplyBatch(
      std::span<const GraphUpdate> updates,
      std::vector<CountDelta>* deltas_out = nullptr);

 private:
  IncrementalCensus(DynamicGraph* graph, Pattern pattern,
                    CensusOptions options)
      : graph_(graph), pattern_(std::move(pattern)),
        options_(std::move(options)) {}

  /// One batch's scratch (defined with the kernels it holds).
  struct Scratch;
  using DeltaMap = std::unordered_map<NodeId, std::int64_t>;

  [[nodiscard]] Status InitCounts(std::vector<NodeId> focal, bool all_nodes);

  /// Enumerates the matches in the current topology whose validity depends
  /// on edge (u, v), as global images: with `edge_present`, matches using
  /// the edge through a positive pattern edge; otherwise matches requiring
  /// its absence through a negated pattern edge.
  MatchSet EnumerateEdgeMatches(NodeId u, NodeId v, bool edge_present,
                                Scratch* scratch,
                                MaintenanceStats* stats) const;

  /// From-scratch count of focal node n in the current topology: ND-BAS's
  /// count of S(n, k) (whole pattern) or of S(n, k + diam) (subpattern).
  std::uint64_t LocalRecount(NodeId n, Scratch* scratch) const;

  /// Adds the ±1 contributions of `matches` to `acc` for every eligible
  /// focal node (anchor-ball intersection), skipping nodes in `skip`.
  void ApplyMatchDeltas(const MatchSet& matches, int sign,
                        const std::unordered_map<NodeId, char>& skip,
                        DeltaMap* acc, Scratch* scratch,
                        MaintenanceStats* stats) const;

  /// Maintains counts for one edge insert/delete. Returns whether the graph
  /// changed (false = no-op duplicate/missing edge).
  [[nodiscard]] Result<bool> ProcessEdgeUpdate(NodeId u, NodeId v, bool insert,
                                 Scratch* scratch, DeltaMap* acc,
                                 MaintenanceStats* stats);

  DynamicGraph* graph_ = nullptr;
  Pattern pattern_;
  CensusOptions options_;

  std::vector<int> anchor_nodes_;
  bool whole_pattern_ = true;
  std::uint32_t diameter_ = 0;  // pattern diameter (positive skeleton)
  bool all_nodes_focal_ = true;

  std::vector<std::uint64_t> counts_;
  std::vector<char> focal_;
  std::vector<Listener> listeners_;
  MaintenanceStats lifetime_stats_;
  // Graph version after the last batch; the graph must not be mutated
  // behind the maintainer's back between batches.
  std::uint64_t expected_version_ = 0;
};

}  // namespace egocensus

#endif  // EGOCENSUS_DYNAMIC_INCREMENTAL_CENSUS_H_
