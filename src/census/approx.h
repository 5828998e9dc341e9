#ifndef EGOCENSUS_CENSUS_APPROX_H_
#define EGOCENSUS_CENSUS_APPROX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "census/census.h"
#include "graph/graph.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// Result of an approximate census: per-node unbiased count estimates.
struct ApproximateCensusResult {
  /// estimates[n] = (matches sampled in S(n,k)) / sample_rate.
  std::vector<double> estimates;
  CensusStats stats;
  std::uint64_t sampled_matches = 0;
};

/// Options of the approximate census: CensusCommon (k, subpattern, the
/// matcher choice and profile index for the one whole-graph match, and the
/// governor) plus the sampling rate and seed. The match and the per-focal
/// counting loop poll the governor; on a stop the run returns the
/// governor's status instead of a partial estimate (a truncated estimate
/// would silently bias the scaled counts).
struct ApproximateCensusOptions : CensusCommon {
  /// Bernoulli sampling probability per match, in (0, 1]. 1.0 degenerates
  /// to the exact census.
  double sample_rate = 0.1;
  std::uint64_t seed = 13;
};

/// Approximation for very large graphs (the paper's Section VII future
/// work): find all matches once, keep each independently with probability
/// `sample_rate`, run the pivot-indexed census over the sampled matches
/// only, and scale counts by 1/sample_rate.
///
/// The estimator is unbiased per node (each match contributes to a node's
/// count independently of the others) with relative standard error
/// ~ sqrt((1 - p) / (p * count)), so nodes with large counts — the ones
/// ego-census analyses rank on — are estimated accurately while the census
/// pass does a `sample_rate` fraction of the containment work.
[[nodiscard]] Result<ApproximateCensusResult> RunApproximateCensus(
    const Graph& graph, const Pattern& pattern, std::span<const NodeId> focal,
    const ApproximateCensusOptions& options);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_APPROX_H_
