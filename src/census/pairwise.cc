#include "census/pairwise.h"

#include <algorithm>
#include <optional>

#include "census/engines.h"
#include "census/pmi.h"
#include "census/pt_common.h"
#include "graph/bfs.h"

namespace egocensus {
namespace {

using internal::AnchorBalls;
using internal::ClusterExpansion;
using internal::CountLoop;
using internal::PtSetup;
using internal::RegionScratch;
using internal::SimultaneousExpander;
using internal::Worker;

/// The pair endpoints as one id list, for CheckCensusInputs.
std::vector<NodeId> Endpoints(std::span<const std::pair<NodeId, NodeId>> pairs) {
  std::vector<NodeId> ids;
  for (const auto& [a, b] : pairs) ids.insert(ids.end(), {a, b});
  return ids;
}

/// Appendix B's region of an explicit pair: the k-balls of both endpoints.
/// A node is inside when both balls (intersection) or either (union) reach
/// it, and its distance d(n, n') is the max (intersection) or min (union)
/// of its two distances.
struct PairBalls {
  explicit PairBalls(bool intersection) : intersection(intersection) {}

  void Run(const Graph& graph, std::pair<NodeId, NodeId> pair,
           std::uint32_t k) {
    first.Run(graph, pair.first, k);
    second.Run(graph, pair.second, k);
  }
  bool Inside(NodeId n) const {
    return intersection ? first.Reached(n) && second.Reached(n)
                        : first.Reached(n) || second.Reached(n);
  }
  std::uint32_t Distance(NodeId n) const {
    const std::uint32_t d1 = first.DistanceTo(n);
    const std::uint32_t d2 = second.DistanceTo(n);
    return intersection ? std::max(d1, d2) : std::min(d1, d2);
  }

  bool intersection;
  BfsWorkspace first;
  BfsWorkspace second;
};

/// What one PairCounts entry costs the memory budget: an unordered_map
/// node (next pointer, 8-byte key, 8-byte count; libstdc++ caches no hash
/// for integer keys) rounded up to malloc's 32-byte chunk, plus its 8-byte
/// bucket slot at load factor 1.
constexpr std::uint64_t kPairEntryBytes = 40;

/// A match's nodes with their coverage masks (bit j: the node's k-ball
/// holds the match's j-th anchor).
using NodeMasks = std::vector<std::pair<NodeId, std::uint16_t>>;

std::uint16_t FullMask(std::size_t num_anchors) {
  return static_cast<std::uint16_t>((1u << num_anchors) - 1);
}

/// Appendix B's pair emission for one match: adds +1 for every unordered
/// pair of `near` whose masks jointly cover all anchors. Intersection
/// passes only full-mask nodes, so every pair of them counts.
void EmitPairs(const NodeMasks& near, std::uint16_t full_mask,
               PairCounts* counts) {
  std::unordered_map<std::uint16_t, std::vector<NodeId>> groups;
  for (const auto& [n, mask] : near) groups[mask].push_back(n);
  for (auto a = groups.begin(); a != groups.end(); ++a) {
    for (auto b = a; b != groups.end(); ++b) {
      if ((a->first | b->first) != full_mask) continue;
      const std::vector<NodeId>& x = a->second;
      const std::vector<NodeId>& y = b->second;
      for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = a == b ? i + 1 : 0; j < y.size(); ++j) {
          ++(*counts)[PackPair(x[i], y[j])];
        }
      }
    }
  }
}

}  // namespace

[[nodiscard]] Result<PairCounts> RunPairwisePtOpt(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern, {});
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (pt-opt)";
  Governor* gov = options.governor;
  CensusStats stats;  // pairwise results carry no stats
  bool interrupted = false;
  MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                &stats, &interrupted);
  if (interrupted) return gov->ToStatus(kEngine);
  MatchAnchors anchors(&matches, *anchor_nodes);
  PairCounts counts;
  if (anchors.NumMatches() == 0) return counts;

  const std::uint32_t k = options.k;
  PtSetup setup =
      internal::BuildPtSetup(graph, pattern, anchors, options, k, gov);
  if (gov != nullptr && gov->stopped()) return gov->ToStatus(kEngine);

  const bool intersection =
      options.neighborhood == PairNeighborhood::kIntersection;
  const bool finished = internal::SumOverUnits(
      CountLoop{{}, gov}, setup.clusters.size(), /*grain=*/1,
      [&] { return ClusterExpansion(graph, setup.expander); },
      [&](std::size_t c, PairCounts& sum,
          Worker<ClusterExpansion, PairCounts>& w) {
        const std::vector<std::uint32_t>& cluster = setup.clusters[c];
        const SimultaneousExpander& expander = w.scratch.expander;
        w.scratch.Expand(cluster, anchors, setup, &w.stats);
        NodeMasks near;
        for (const auto& idx : expander.match_anchor_indices()) {
          const std::uint16_t full = FullMask(idx.size());
          near.clear();
          for (std::size_t slot = 0; slot < expander.NumVisited(); ++slot) {
            std::uint16_t mask = 0;
            for (std::size_t j = 0; j < idx.size(); ++j) {
              if (expander.Pmd(slot, idx[j]) <= k) mask |= 1u << j;
            }
            if (intersection ? mask == full : mask != 0) {
              near.emplace_back(expander.VisitedNode(slot), mask);
            }
          }
          EmitPairs(near, full, &sum);
        }
        // The expansion table, as PT-OPT charges it, and the pairs so far.
        return w.Charge(expander.NumVisited() * cluster.size() *
                            sizeof(std::uint32_t) +
                        sum.size() * kPairEntryBytes);
      },
      &counts, &stats);
  if (!finished) return gov->ToStatus(kEngine);
  return counts;
}

[[nodiscard]] Result<PairCounts> RunPairwisePtBas(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern, {});
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (pt-bas)";
  Governor* gov = options.governor;
  CensusStats stats;  // pairwise results carry no stats
  bool interrupted = false;
  MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                &stats, &interrupted);
  if (interrupted) return gov->ToStatus(kEngine);
  MatchAnchors anchors(&matches, *anchor_nodes);
  const int t = anchors.NumAnchors();
  const std::uint32_t k = options.k;

  const bool intersection =
      options.neighborhood == PairNeighborhood::kIntersection;
  PairCounts counts;
  const bool finished = internal::SumOverUnits(
      CountLoop{{}, gov}, anchors.NumMatches(), /*grain=*/4,
      [t] { return AnchorBalls(t); },
      [&](std::size_t m, PairCounts& sum, Worker<AnchorBalls, PairCounts>& w) {
        AnchorBalls& balls = w.scratch;
        const std::vector<NodeId>& smallest =
            balls.Run(graph, anchors, m, k, &w.stats);
        NodeMasks near;
        if (intersection) {
          for (NodeId n : smallest) {
            if (balls.ReachedByAll(n, &w.stats.containment_checks)) {
              near.emplace_back(n, FullMask(t));
            }
          }
        } else {
          std::unordered_map<NodeId, std::uint16_t> masks;
          for (int j = 0; j < t; ++j) {
            for (NodeId n : balls.balls[j].visited()) masks[n] |= 1u << j;
          }
          near.assign(masks.begin(), masks.end());
        }
        EmitPairs(near, FullMask(t), &sum);
        // t BFS workspaces, as PT-BAS charges them, and the pairs so far.
        return w.Charge(std::uint64_t{graph.NumNodes()} * t * sizeof(NodeId) +
                        sum.size() * kPairEntryBytes);
      },
      &counts, &stats);
  if (!finished) return gov->ToStatus(kEngine);
  return counts;
}

[[nodiscard]] Result<std::vector<std::uint64_t>> RunPairwiseNdBas(
    const Graph& graph, const Pattern& pattern,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern,
                                        Endpoints(pairs));
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (nd-bas)";
  Governor* gov = options.governor;
  const std::uint32_t k = options.k;
  const bool intersection =
      options.neighborhood == PairNeighborhood::kIntersection;
  const CountLoop loop{{}, gov};
  std::vector<std::uint64_t> counts(pairs.size(), 0);
  auto store = [&counts](std::size_t i, std::uint64_t count) {
    counts[i] = count;
  };
  CensusStats stats;  // pairwise results carry no stats
  if (options.subpattern.empty()) {
    // Whole pattern: match inside each pair's extracted region.
    const bool need_attrs = pattern.HasGeneralPredicates();
    const bool use_gql = options.use_gql_matcher;
    internal::ForEachUnit(
        loop, pairs, /*grain=*/2,
        [&graph, use_gql] { return RegionScratch(graph, use_gql); },
        [&](std::pair<NodeId, NodeId> pair, Worker<RegionScratch>& w) {
          const auto [a, b] = pair;
          auto& extractor = w.scratch.extractor;
          w.scratch.sub =
              intersection ? extractor.ExtractIntersection(a, b, k, need_attrs)
                           : extractor.ExtractUnion(a, b, k, need_attrs);
          return internal::CountInRegion(pattern, gov, w);
        },
        store, &stats);
  } else {
    bool interrupted = false;
    MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                  &stats, &interrupted);
    if (interrupted) return gov->ToStatus(kEngine);
    MatchAnchors anchors(&matches, *anchor_nodes);
    internal::ForEachUnit(
        loop, pairs, /*grain=*/4,
        [intersection] { return PairBalls(intersection); },
        [&](std::pair<NodeId, NodeId> pair, Worker<PairBalls>& w)
            -> std::optional<std::uint64_t> {
          // Two BFS workspaces, as ND-BAS charges one.
          if (!w.Charge(2 * graph.NumNodes() * sizeof(NodeId))) {
            return std::nullopt;
          }
          PairBalls& region = w.scratch;
          region.Run(graph, pair, k);
          return anchors.CountInside(
              [&region](NodeId a) { return region.Inside(a); },
              &w.stats.containment_checks);
        },
        store, &stats);
  }
  if (gov != nullptr && gov->stopped()) return gov->ToStatus(kEngine);
  return counts;
}

[[nodiscard]] Result<std::vector<std::uint64_t>> RunPairwiseNdPvot(
    const Graph& graph, const Pattern& pattern,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern,
                                        Endpoints(pairs));
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (nd-pvot)";
  Governor* gov = options.governor;
  CensusStats stats;  // pairwise results carry no stats
  bool interrupted = false;
  MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                &stats, &interrupted);
  if (interrupted) return gov->ToStatus(kEngine);
  MatchAnchors anchors(&matches, *anchor_nodes);
  const PivotIndex index(pattern, anchors);
  const std::uint32_t k = options.k;
  const bool intersection =
      options.neighborhood == PairNeighborhood::kIntersection;

  std::vector<std::uint64_t> counts(pairs.size(), 0);
  internal::ForEachUnit(
      CountLoop{{}, gov}, pairs, /*grain=*/8,
      [intersection] { return PairBalls(intersection); },
      [&](std::pair<NodeId, NodeId> pair, Worker<PairBalls>& w)
          -> std::optional<std::uint64_t> {
        // Two BFS workspaces, as ND-PVOT charges one.
        if (!w.Charge(2 * graph.NumNodes() * sizeof(NodeId))) {
          return std::nullopt;
        }
        PairBalls& region = w.scratch;
        region.Run(graph, pair, k);
        auto distance = [&region](NodeId n) { return region.Distance(n); };
        auto inside = [&region](NodeId n) { return region.Inside(n); };
        std::uint64_t count = 0;
        auto count_at = [&](NodeId n) {
          count += index.CountAt(n, distance, k, inside,
                                 &w.stats.containment_checks);
        };
        for (NodeId n : region.first.visited()) {
          if (inside(n)) count_at(n);
        }
        if (!intersection) {
          for (NodeId n : region.second.visited()) {
            if (!region.first.Reached(n)) count_at(n);
          }
        }
        return count;
      },
      [&counts](std::size_t i, std::uint64_t count) { counts[i] = count; },
      &stats);
  if (gov != nullptr && gov->stopped()) return gov->ToStatus(kEngine);
  return counts;
}

}  // namespace egocensus
