#include "census/pairwise.h"

#include <algorithm>

#include "census/engines.h"
#include "census/pmi.h"
#include "census/pt_common.h"
#include "census/pt_expander.h"
#include "graph/bfs.h"
#include "graph/subgraph.h"
#include "match/cn_matcher.h"

namespace egocensus {
namespace {

using internal::BuildPtSetup;
using internal::PtSetup;
using internal::SimultaneousExpander;

/// The whole-graph match step of a pairwise engine. Pairwise results carry
/// no stats, and a stop during matching is the governor's status.
[[nodiscard]] Result<MatchSet> MatchWholeGraph(
    const Graph& graph, const Pattern& pattern,
    const PairwiseCensusOptions& options, const char* engine) {
  CensusStats stats;
  bool interrupted = false;
  MatchSet matches = internal::FindMatchesTimed(graph, pattern, options,
                                                &stats, &interrupted);
  if (interrupted) return options.governor->ToStatus(engine);
  return matches;
}

/// The pair endpoints as one id list, for CheckCensusInputs.
std::vector<NodeId> Endpoints(std::span<const std::pair<NodeId, NodeId>> pairs) {
  std::vector<NodeId> ids;
  ids.reserve(2 * pairs.size());
  for (const auto& [a, b] : pairs) {
    ids.push_back(a);
    ids.push_back(b);
  }
  return ids;
}

/// Adds +1 for every unordered pair from `nodes` (all of which contain the
/// match in their intersection neighborhood).
void EmitIntersectionPairs(const std::vector<NodeId>& nodes,
                           PairCounts* counts) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      ++(*counts)[PackPair(nodes[i], nodes[j])];
    }
  }
}

/// Groups: (coverage mask over the match's anchors) -> nodes with exactly
/// that nonzero mask. Adds +1 for every unordered pair whose joint coverage
/// is complete.
void EmitUnionPairs(
    const std::vector<std::pair<std::uint16_t, std::vector<NodeId>>>& groups,
    std::uint16_t full_mask, PairCounts* counts) {
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (std::size_t gj = gi; gj < groups.size(); ++gj) {
      if ((groups[gi].first | groups[gj].first) != full_mask) continue;
      const auto& a = groups[gi].second;
      const auto& b = groups[gj].second;
      if (gi == gj) {
        for (std::size_t i = 0; i < a.size(); ++i) {
          for (std::size_t j = i + 1; j < a.size(); ++j) {
            ++(*counts)[PackPair(a[i], a[j])];
          }
        }
      } else {
        for (NodeId x : a) {
          for (NodeId y : b) {
            ++(*counts)[PackPair(x, y)];
          }
        }
      }
    }
  }
}

std::vector<std::pair<std::uint16_t, std::vector<NodeId>>> GroupByMask(
    const std::vector<std::pair<NodeId, std::uint16_t>>& node_masks) {
  std::unordered_map<std::uint16_t, std::vector<NodeId>> map;
  for (const auto& [n, mask] : node_masks) {
    if (mask != 0) map[mask].push_back(n);
  }
  std::vector<std::pair<std::uint16_t, std::vector<NodeId>>> groups;
  groups.reserve(map.size());
  for (auto& [mask, nodes] : map) {
    groups.emplace_back(mask, std::move(nodes));
  }
  return groups;
}

}  // namespace

[[nodiscard]] Result<PairCounts> RunPairwisePtOpt(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern, {});
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (pt-opt)";
  auto matches = MatchWholeGraph(graph, pattern, options, kEngine);
  if (!matches.ok()) return matches.status();
  MatchAnchors anchors(&*matches, *anchor_nodes);
  PairCounts counts;
  if (anchors.NumMatches() == 0) return counts;

  const std::uint32_t k = options.k;
  Governor* gov = options.governor;
  PtSetup setup = BuildPtSetup(graph, pattern, anchors, options, k, gov);
  if (gov != nullptr && gov->stopped()) return gov->ToStatus(kEngine);

  SimultaneousExpander expander(graph, setup.expander);
  std::vector<std::vector<NodeId>> anchor_sets;
  std::vector<NodeId> buffer;
  std::vector<NodeId> full_nodes;
  std::vector<std::pair<NodeId, std::uint16_t>> node_masks;
  for (const auto& cluster : setup.clusters) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus(kEngine);
    }
    anchor_sets.clear();
    for (std::uint32_t mid : cluster) {
      anchors.Get(mid, &buffer);
      anchor_sets.push_back(buffer);
    }
    expander.Expand(anchor_sets, &setup.anchor_dist);
    const auto& match_anchor_idx = expander.match_anchor_indices();
    for (const auto& idx : match_anchor_idx) {
      if (options.neighborhood == PairNeighborhood::kIntersection) {
        full_nodes.clear();
        for (std::size_t slot = 0; slot < expander.NumVisited(); ++slot) {
          bool near = true;
          for (std::uint32_t a : idx) {
            if (expander.Pmd(slot, a) > k) {
              near = false;
              break;
            }
          }
          if (near) full_nodes.push_back(expander.VisitedNode(slot));
        }
        EmitIntersectionPairs(full_nodes, &counts);
      } else {
        node_masks.clear();
        const std::uint16_t full_mask =
            static_cast<std::uint16_t>((1u << idx.size()) - 1);
        for (std::size_t slot = 0; slot < expander.NumVisited(); ++slot) {
          std::uint16_t mask = 0;
          for (std::size_t j = 0; j < idx.size(); ++j) {
            if (expander.Pmd(slot, idx[j]) <= k) {
              mask = static_cast<std::uint16_t>(mask | (1u << j));
            }
          }
          if (mask != 0) {
            node_masks.emplace_back(expander.VisitedNode(slot), mask);
          }
        }
        EmitUnionPairs(GroupByMask(node_masks), full_mask, &counts);
      }
    }
  }
  return counts;
}

[[nodiscard]] Result<PairCounts> RunPairwisePtBas(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern, {});
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  constexpr const char* kEngine = "pairwise census (pt-bas)";
  auto matches = MatchWholeGraph(graph, pattern, options, kEngine);
  if (!matches.ok()) return matches.status();
  MatchAnchors anchors(&*matches, *anchor_nodes);
  PairCounts counts;
  const int t = anchors.NumAnchors();
  const std::uint32_t k = options.k;

  Governor* gov = options.governor;
  std::vector<BfsWorkspace> bfs(t);
  std::vector<NodeId> full_nodes;
  std::vector<std::pair<NodeId, std::uint16_t>> node_masks;
  for (std::size_t m = 0; m < anchors.NumMatches(); ++m) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus(kEngine);
    }
    int min_idx = 0;
    for (int j = 0; j < t; ++j) {
      bfs[j].Run(graph, anchors.Anchor(m, j), k);
      if (bfs[j].visited().size() < bfs[min_idx].visited().size()) {
        min_idx = j;
      }
    }
    if (options.neighborhood == PairNeighborhood::kIntersection) {
      full_nodes.clear();
      for (NodeId n : bfs[min_idx].visited()) {
        bool near = true;
        for (int j = 0; j < t; ++j) {
          if (j != min_idx && !bfs[j].Reached(n)) {
            near = false;
            break;
          }
        }
        if (near) full_nodes.push_back(n);
      }
      EmitIntersectionPairs(full_nodes, &counts);
    } else {
      // Union: collect coverage masks over the union of all anchors'
      // neighborhoods.
      std::unordered_map<NodeId, std::uint16_t> masks;
      for (int j = 0; j < t; ++j) {
        for (NodeId n : bfs[j].visited()) {
          masks[n] = static_cast<std::uint16_t>(masks[n] | (1u << j));
        }
      }
      node_masks.assign(masks.begin(), masks.end());
      EmitUnionPairs(GroupByMask(node_masks),
                     static_cast<std::uint16_t>((1u << t) - 1), &counts);
    }
  }
  return counts;
}

[[nodiscard]] Result<std::vector<std::uint64_t>> RunPairwiseNdBas(
    const Graph& graph, const Pattern& pattern,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const PairwiseCensusOptions& options) {
  auto anchor_nodes = CheckCensusInputs(graph, pattern, options.subpattern,
                                        Endpoints(pairs));
  if (!anchor_nodes.ok()) return anchor_nodes.status();
  const bool whole_pattern = options.subpattern.empty();
  std::vector<std::uint64_t> counts(pairs.size(), 0);
  const std::uint32_t k = options.k;

  constexpr const char* kEngine = "pairwise census (nd-bas)";
  Governor* gov = options.governor;
  if (whole_pattern) {
    SubgraphExtractor extractor(graph);
    const bool need_attrs = pattern.HasGeneralPredicates();
    CnMatcher matcher;
    MatchOptions match_options;
    match_options.governor = gov;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
        return gov->ToStatus(kEngine);
      }
      EgoSubgraph sub =
          options.neighborhood == PairNeighborhood::kIntersection
              ? extractor.ExtractIntersection(pairs[i].first, pairs[i].second,
                                              k, need_attrs)
              : extractor.ExtractUnion(pairs[i].first, pairs[i].second, k,
                                       need_attrs);
      counts[i] = matcher.FindMatches(sub.graph, pattern, match_options).size();
      if (matcher.interrupted()) return gov->ToStatus(kEngine);
    }
    return counts;
  }

  auto matches = MatchWholeGraph(graph, pattern, options, kEngine);
  if (!matches.ok()) return matches.status();
  MatchAnchors anchors(&*matches, *anchor_nodes);
  BfsWorkspace bfs1, bfs2;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus(kEngine);
    }
    bfs1.Run(graph, pairs[i].first, k);
    bfs2.Run(graph, pairs[i].second, k);
    std::uint64_t count = 0;
    for (std::size_t m = 0; m < anchors.NumMatches(); ++m) {
      bool inside = true;
      for (int j = 0; j < anchors.NumAnchors(); ++j) {
        NodeId a = anchors.Anchor(m, j);
        bool covered =
            options.neighborhood == PairNeighborhood::kIntersection
                ? (bfs1.Reached(a) && bfs2.Reached(a))
                : (bfs1.Reached(a) || bfs2.Reached(a));
        if (!covered) {
          inside = false;
          break;
        }
      }
      if (inside) ++count;
    }
    counts[i] = count;
  }
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
  auto matches = MatchWholeGraph(graph, pattern, options, kEngine);
  if (!matches.ok()) return matches.status();
  MatchAnchors anchors(&*matches, *anchor_nodes);
  const PivotIndex index(pattern, anchors);
  const std::uint32_t k = options.k;
  const bool intersection =
      options.neighborhood == PairNeighborhood::kIntersection;

  std::vector<std::uint64_t> counts(pairs.size(), 0);
  Governor* gov = options.governor;
  BfsWorkspace bfs1, bfs2;
  auto covered = [&](NodeId n) {
    return intersection ? (bfs1.Reached(n) && bfs2.Reached(n))
                        : (bfs1.Reached(n) || bfs2.Reached(n));
  };
  // Intersection: d = max of the two distances; union: d = min.
  auto distance = [&](NodeId n) {
    std::uint32_t d1 = bfs1.DistanceTo(n);
    std::uint32_t d2 = bfs2.DistanceTo(n);
    return intersection ? std::max(d1, d2) : std::min(d1, d2);
  };
  std::uint64_t checks = 0;  // pairwise results carry no stats
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus(kEngine);
    }
    bfs1.Run(graph, pairs[i].first, k);
    bfs2.Run(graph, pairs[i].second, k);
    std::uint64_t count = 0;
    auto process = [&](NodeId n) {
      count += index.CountAt(n, distance, k, covered, &checks);
    };
    if (intersection) {
      for (NodeId n : bfs1.visited()) {
        if (bfs2.Reached(n)) process(n);
      }
    } else {
      for (NodeId n : bfs1.visited()) process(n);
      for (NodeId n : bfs2.visited()) {
        if (!bfs1.Reached(n)) process(n);
      }
    }
    counts[i] = count;
  }
  return counts;
}

}  // namespace egocensus
