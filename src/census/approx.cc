#include "census/approx.h"

#include "census/engines.h"
#include "census/pmi.h"
#include "graph/bfs.h"
#include "util/rng.h"
#include "util/timer.h"

namespace egocensus {

[[nodiscard]] Result<ApproximateCensusResult> RunApproximateCensus(
    const Graph& graph, const Pattern& pattern, std::span<const NodeId> focal,
    const ApproximateCensusOptions& options) {
  if (!(options.sample_rate > 0.0) || options.sample_rate > 1.0) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  auto anchor_nodes =
      CheckCensusInputs(graph, pattern, options.subpattern, focal);
  if (!anchor_nodes.ok()) return anchor_nodes.status();

  ApproximateCensusResult result;
  result.estimates.assign(graph.NumNodes(), 0.0);
  const std::uint32_t k = options.k;

  Governor* gov = options.governor;
  bool interrupted = false;
  MatchSet all_matches = internal::FindMatchesTimed(
      graph, pattern, options, &result.stats, &interrupted);
  if (interrupted) return gov->ToStatus("approximate census (match)");

  // Bernoulli-sample the matches.
  Timer index_timer;
  Rng rng(options.seed);
  MatchSet sampled(all_matches.arity());
  // egolint: no-checkpoint(one RNG draw per match; BFS loop below polls)
  for (std::size_t m = 0; m < all_matches.size(); ++m) {
    if (rng.NextBool(options.sample_rate)) sampled.Add(all_matches.Match(m));
  }
  result.sampled_matches = sampled.size();
  MatchAnchors anchors(&sampled, *anchor_nodes);

  const PivotIndex index(pattern, anchors);
  result.stats.index_seconds = index_timer.ElapsedSeconds();

  Timer census_timer;
  const double scale = 1.0 / options.sample_rate;
  BfsWorkspace bfs;
  for (NodeId n : focal) {
    if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) {
      return gov->ToStatus("approximate census");
    }
    bfs.Run(graph, n, k);
    result.stats.nodes_expanded += bfs.visited().size();
    const std::uint64_t count =
        index.Count(bfs, k, &result.stats.containment_checks);
    result.estimates[n] = static_cast<double>(count) * scale;
  }
  result.stats.census_seconds = census_timer.ElapsedSeconds();
  return result;
}

}  // namespace egocensus
