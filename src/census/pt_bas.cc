#include <algorithm>
#include <vector>

#include "census/engines.h"
#include "exec/failpoints.h"
#include "graph/bfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// PT-BAS (Section IV-B): process each pattern match independently. For a
// match with anchors m_1..m_t, BFS each anchor's k-hop neighborhood, pick
// the anchor m_min with the fewest k-hop neighbors, and test every node in
// its neighborhood for reachability within k hops from every other anchor.
//
// Matches are independent, so the parallel path shards the match list;
// different matches can increment the same node's count, so each worker
// accumulates into a private count vector and the vectors are summed in
// worker order afterwards. Integer addition is order-insensitive, so the
// totals are identical to the serial run for any worker count.
CensusResult RunPtBas(const CensusContext& ctx) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;
  const std::vector<char>& is_focal = *ctx.is_focal;

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  bool match_interrupted = false;
  MatchSet matches = FindMatchesTimed(graph, *ctx.pattern, *ctx.options,
                                      &result.stats, &match_interrupted);
  if (match_interrupted) {
    FinishExecStatus(ctx, "PT-BAS", &result);
    return result;
  }
  MatchAnchors anchors(&matches, ctx.anchor_nodes);
  const int t = anchors.NumAnchors();

  Timer timer;
  EGO_SPAN("census/count");
  auto process = [&](std::size_t m, std::vector<BfsWorkspace>& bfs,
                     std::uint64_t* counts, CensusStats& stats) {
    int min_idx = 0;
    std::size_t min_size = 0;
    for (int j = 0; j < t; ++j) {
      bfs[j].Run(graph, anchors.Anchor(m, j), k);
      EGO_HIST_RECORD("census/neighborhood_size", bfs[j].visited().size());
      stats.nodes_expanded += bfs[j].visited().size();
      stats.peak_neighborhood = std::max<std::uint64_t>(
          stats.peak_neighborhood, bfs[j].visited().size());
      if (j == 0 || bfs[j].visited().size() < min_size) {
        min_idx = j;
        min_size = bfs[j].visited().size();
      }
    }
    for (NodeId n : bfs[min_idx].visited()) {
      if (!is_focal[n]) continue;
      bool near = true;
      for (int j = 0; j < t; ++j) {
        if (j == min_idx) continue;
        ++stats.containment_checks;
        if (!bfs[j].Reached(n)) {
          near = false;
          break;
        }
      }
      if (near) ++counts[n];
    }
  };

  // Counts accumulate contributions across matches, so completion is
  // all-or-nothing: an interrupted run leaves every focal node kPending and
  // its counts are lower bounds (matches processed so far), never wrong.
  auto run_range = [&](std::size_t begin, std::size_t end,
                       std::vector<BfsWorkspace>& bfs, std::uint64_t* counts,
                       CensusStats& stats, ScratchCharge& charge) {
    for (std::size_t m = begin; m < end; ++m) {
      EGO_FAILPOINT("census/cluster");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      // t BFS workspaces + the private count vector.
      if (!charge.Update(gov, static_cast<std::uint64_t>(graph.NumNodes()) *
                                  (t * sizeof(NodeId) +
                                   sizeof(std::uint64_t)))) {
        return;
      }
      process(m, bfs, counts, stats);
    }
  };
  if (ctx.pool == nullptr) {
    std::vector<BfsWorkspace> bfs(t);
    ScratchCharge charge;
    run_range(0, anchors.NumMatches(), bfs, result.counts.data(),
              result.stats, charge);
  } else {
    const unsigned workers = ctx.pool->NumWorkers();
    std::vector<std::vector<BfsWorkspace>> bfs(workers);
    for (auto& b : bfs) b.resize(t);
    std::vector<std::vector<std::uint64_t>> counts(
        workers, std::vector<std::uint64_t>(graph.NumNodes(), 0));
    std::vector<CensusStats> stats(workers);
    std::vector<ScratchCharge> charges(workers);
    ctx.pool->ParallelFor(
        0, anchors.NumMatches(), /*grain=*/4, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          run_range(begin, end, bfs[worker], counts[worker].data(),
                    stats[worker], charges[worker]);
        });
    for (unsigned w = 0; w < workers; ++w) {
      EGO_FAILPOINT("census/merge");
      for (NodeId n = 0; n < graph.NumNodes(); ++n) {
        result.counts[n] += counts[w][n];
      }
      result.stats.Merge(stats[w]);
    }
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  if (gov == nullptr || !gov->stopped()) {
    MarkAllFocal(ctx, &result, FocalState::kComplete);
  }
  FinishExecStatus(ctx, "PT-BAS", &result);
  return result;
}

}  // namespace egocensus::internal
