#include <algorithm>
#include <optional>
#include <vector>

#include "census/engines.h"
#include "census/pt_common.h"
#include "exec/failpoints.h"
#include "census/pt_expander.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// PT-OPT / PT-RND (Section IV-B / Algorithm 4): cluster the pattern matches
// (K-means over center-distance feature vectors), then for each cluster run
// one simultaneous traversal computing, for every node near the cluster, its
// distances to all cluster anchors; a node's count increases once per match
// whose anchors all lie within k hops. PT-RND replaces the best-first queue
// with random pops, isolating the contribution of best-first ordering
// (Fig. 4(d)).
//
// Clusters are independent, so the parallel path shards the cluster list;
// each worker owns an expander (its traversal state is per-instance) plus a
// private count vector, and the vectors are summed in worker order after the
// loop. The PMD relaxation converges to the unique exact-distance fixpoint
// regardless of pop order, so counts are identical to the serial run for any
// worker count (and for PT-RND's randomized pops); only traversal stats like
// pops/reinsertions may differ, which the determinism contract excludes.
CensusResult RunPtOpt(const CensusContext& ctx) {
  const Graph& graph = *ctx.graph;
  const Pattern& pattern = *ctx.pattern;
  const CensusOptions& options = *ctx.options;
  const std::uint32_t k = options.k;
  const std::vector<char>& is_focal = *ctx.is_focal;

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  bool match_interrupted = false;
  MatchSet matches = FindMatchesTimed(graph, pattern, *ctx.options,
                                      &result.stats, &match_interrupted);
  if (match_interrupted) {
    FinishExecStatus(ctx, "PT-OPT", &result);
    return result;
  }
  MatchAnchors anchors(&matches, ctx.anchor_nodes);
  if (anchors.NumMatches() == 0) {
    MarkAllFocal(ctx, &result, FocalState::kComplete);
    return result;
  }

  PtSetup setup = BuildPtSetup(graph, pattern, anchors, options, k, gov);
  result.stats.index_seconds = setup.index_seconds;
  if (gov != nullptr && gov->stopped()) {
    // Stopped while clustering: nothing was counted, all stay kPending.
    FinishExecStatus(ctx, "PT-OPT", &result);
    return result;
  }
  if (obs::Enabled()) {
    static const obs::HistogramHandle cluster_hist(
        "census/pt/cluster_size");
    // egolint: no-checkpoint(O(clusters) metric recording, no match work)
    for (const auto& cluster : setup.clusters) {
      cluster_hist.Record(cluster.size());
    }
  }

  Timer timer;
  EGO_SPAN("census/count");
  setup.expander.best_first = options.algorithm != CensusAlgorithm::kPtRnd;

  struct Scratch {
    std::optional<SimultaneousExpander> expander;
    std::vector<std::vector<NodeId>> anchor_sets;
    std::vector<NodeId> buffer;
    CensusStats stats;
    ScratchCharge charge;  // high-water footprint of the expander state
  };
  // Processes one cluster, accumulating into `counts` (the shared result
  // vector when serial, a per-worker private vector when parallel).
  auto process = [&](const std::vector<std::uint32_t>& cluster, Scratch& s,
                     std::uint64_t* counts) {
    s.anchor_sets.clear();
    for (std::uint32_t mid : cluster) {
      anchors.Get(mid, &s.buffer);
      s.anchor_sets.push_back(s.buffer);
    }
    SimultaneousExpander& expander = *s.expander;
    expander.Expand(s.anchor_sets, &setup.anchor_dist);
    EGO_HIST_RECORD("census/pt/expansion_size", expander.NumVisited());
    s.stats.peak_neighborhood = std::max<std::uint64_t>(
        s.stats.peak_neighborhood, expander.NumVisited());
    const auto& match_anchor_idx = expander.match_anchor_indices();
    for (std::size_t slot = 0; slot < expander.NumVisited(); ++slot) {
      NodeId n = expander.VisitedNode(slot);
      if (!is_focal[n]) continue;
      for (const auto& idx : match_anchor_idx) {
        bool near = true;
        for (std::uint32_t a : idx) {
          ++s.stats.containment_checks;
          if (expander.Pmd(slot, a) > k) {
            near = false;
            break;
          }
        }
        if (near) ++counts[n];
      }
    }
  };

  // Counts accumulate contributions across clusters, so completion is
  // all-or-nothing (like PT-BAS): an interrupted run leaves every focal
  // node kPending with lower-bound counts.
  auto run_range = [&](std::size_t begin, std::size_t end, Scratch& s,
                       std::uint64_t* counts) {
    for (std::size_t c = begin; c < end; ++c) {
      EGO_FAILPOINT("census/cluster");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      // Simultaneous-expansion distance table: per-visited-node rows over
      // the cluster's anchors, plus the private count vector.
      if (!s.charge.Update(
              gov, static_cast<std::uint64_t>(graph.NumNodes()) *
                       sizeof(std::uint64_t) +
                   s.expander->NumVisited() *
                       setup.clusters[c].size() * sizeof(std::uint32_t))) {
        return;
      }
      process(setup.clusters[c], s, counts);
    }
  };
  if (ctx.pool == nullptr) {
    Scratch scratch;
    scratch.expander.emplace(graph, setup.expander);
    run_range(0, setup.clusters.size(), scratch, result.counts.data());
    scratch.stats.nodes_expanded = scratch.expander->stats().pops;
    scratch.stats.reinsertions = scratch.expander->stats().reinsertions;
    result.stats.Merge(scratch.stats);
  } else {
    const unsigned workers = ctx.pool->NumWorkers();
    std::vector<Scratch> scratch(workers);
    for (auto& s : scratch) s.expander.emplace(graph, setup.expander);
    std::vector<std::vector<std::uint64_t>> counts(
        workers, std::vector<std::uint64_t>(graph.NumNodes(), 0));
    ctx.pool->ParallelFor(
        0, setup.clusters.size(), /*grain=*/1, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          run_range(begin, end, scratch[worker], counts[worker].data());
        });
    for (unsigned w = 0; w < workers; ++w) {
      EGO_FAILPOINT("census/merge");
      scratch[w].stats.nodes_expanded = scratch[w].expander->stats().pops;
      scratch[w].stats.reinsertions = scratch[w].expander->stats().reinsertions;
      for (NodeId n = 0; n < graph.NumNodes(); ++n) {
        result.counts[n] += counts[w][n];
      }
      result.stats.Merge(scratch[w].stats);
    }
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  if (gov == nullptr || !gov->stopped()) {
    MarkAllFocal(ctx, &result, FocalState::kComplete);
  }
  FinishExecStatus(ctx, "PT-OPT", &result);
  return result;
}

}  // namespace egocensus::internal
