#ifndef EGOCENSUS_CENSUS_PAIRWISE_H_
#define EGOCENSUS_CENSUS_PAIRWISE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "census/census.h"
#include "graph/graph.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// Pairwise search neighborhoods of Section II: SUBGRAPH-INTERSECTION and
/// SUBGRAPH-UNION.
enum class PairNeighborhood { kIntersection, kUnion };

/// Canonical packing of an unordered node pair (smaller id in the high
/// word).
inline std::uint64_t PackPair(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

inline std::pair<NodeId, NodeId> UnpackPair(std::uint64_t key) {
  return {static_cast<NodeId>(key >> 32),
          static_cast<NodeId>(key & 0xFFFFFFFFu)};
}

/// Sparse pairwise census result: packed unordered pair -> count. Pairs
/// with count 0 are absent.
using PairCounts = std::unordered_map<std::uint64_t, std::uint64_t>;

/// Options of the pairwise censuses. Every engine reads CensusCommon: k,
/// subpattern, use_gql_matcher and profile_index for its whole-graph match
/// step (use_gql_matcher also for whole-pattern ND-BAS's per-pair matching),
/// and the governor, which the match and the census driver's per-cluster,
/// per-match or per-pair checkpoint poll, and which the kernels charge their
/// scratch to — on a stop the engine returns the governor's status, because
/// pairwise counts are sparse maps and a partial result is
/// indistinguishable from "those pairs are zero". Pairwise PT-OPT also reads
/// PtOptions and always expands best-first.
struct PairwiseCensusOptions : CensusCommon, PtOptions {
  PairNeighborhood neighborhood = PairNeighborhood::kIntersection;
};

/// Pattern-driven pairwise census over ALL unordered node pairs, returning
/// only pairs with nonzero counts (Appendix B: intersection adds each match
/// to every pair in N[M] x N[M]; union pairs two nodes whose neighborhoods
/// jointly cover the anchors).
///
/// UNION caveat: pairs where one endpoint's k-neighborhood contains no
/// anchor of a match at all are omitted for that match (the paper's
/// partitioning into two non-empty parts has the same effect); the
/// node-driven engines below compute the unrestricted semantics for
/// explicit pairs.
[[nodiscard]] Result<PairCounts> RunPairwisePtOpt(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options);

/// Pattern-driven baseline (per-match independent BFS traversals), same
/// output contract as RunPairwisePtOpt.
[[nodiscard]] Result<PairCounts> RunPairwisePtBas(const Graph& graph, const Pattern& pattern,
                                    const PairwiseCensusOptions& options);

/// Node-driven baseline for an explicit pair list: materializes the
/// intersection/union subgraph of each pair and matches inside it with the
/// selected matcher (whole pattern), or brute-force checks global matches
/// (subpattern).
[[nodiscard]] Result<std::vector<std::uint64_t>> RunPairwiseNdBas(
    const Graph& graph, const Pattern& pattern,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const PairwiseCensusOptions& options);

/// ND-PVOT adapted to pairs (Appendix B): BFS both endpoints, replace
/// d(n, n') by max (intersection) or min (union) of the two distances in
/// the containment-avoidance bound.
[[nodiscard]] Result<std::vector<std::uint64_t>> RunPairwiseNdPvot(
    const Graph& graph, const Pattern& pattern,
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const PairwiseCensusOptions& options);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_PAIRWISE_H_
