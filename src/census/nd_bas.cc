#include <algorithm>
#include <optional>
#include <vector>

#include "census/engines.h"
#include "exec/failpoints.h"
#include "graph/subgraph.h"
#include "match/cn_matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// ND-BAS (Section IV-A): for every focal node, extract the induced k-hop
// subgraph S(n, k) and run the pattern matcher inside it. This repeats the
// work of overlapping neighborhoods and is the paper's slow baseline.
//
// With a subpattern the full pattern may extend outside S(n, k), so the
// baseline instead matches once globally and brute-force checks, for every
// (focal node, match) pair, whether all anchor images lie within k hops —
// the O(|V_sigma| * |M| * |V_P|) cost that Section IV-A1 calls impractical.
//
// Both paths are data-parallel across focal nodes: each worker owns a
// scratch slot (extractor + matcher + subgraph buffers, or a BFS
// workspace) that is reused across its focal nodes, and writes only
// counts[n] for the nodes it processed, so results are identical to the
// serial run for any worker count. The serial path is the one-slot special
// case — hoisting the scratch out of the loop is what removes the
// per-focal-node allocation churn the original baseline had.
CensusResult RunNdBas(const CensusContext& ctx) {
  const Graph& graph = *ctx.graph;
  const Pattern& pattern = *ctx.pattern;
  const std::uint32_t k = ctx.options->k;

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  const bool whole_pattern =
      static_cast<int>(ctx.anchor_nodes.size()) == pattern.NumNodes();

  Timer timer;
  if (whole_pattern) {
    const bool need_attrs = pattern.HasGeneralPredicates();
    struct Scratch {
      std::optional<SubgraphExtractor> extractor;
      CnMatcher matcher;
      EgoSubgraph sub;
      CensusStats stats;
      ScratchCharge charge;  // high-water footprint of the reused buffers
    };
    // Counts and completion are recorded only when the focal node finishes
    // cleanly, so a budget/matcher stop mid-node leaves it kPending and its
    // count untouched (still bit-identical for every completed node).
    auto process = [&](NodeId n, Scratch& s) {
      s.extractor->ExtractKHopInto(n, k, need_attrs, &s.sub);
      EGO_HIST_RECORD("census/neighborhood_size", s.sub.graph.NumNodes());
      s.stats.nodes_expanded += s.sub.graph.NumNodes();
      s.stats.peak_neighborhood = std::max<std::uint64_t>(
          s.stats.peak_neighborhood, s.sub.graph.NumNodes());
      // Extraction footprint: adjacency (~2 ids/edge) + node remaps.
      if (!s.charge.Update(gov, s.sub.graph.NumNodes() * 4 *
                                    sizeof(NodeId) +
                                s.sub.graph.NumEdges() * 2 * sizeof(NodeId))) {
        return;
      }
      MatchOptions match_options;
      match_options.governor = gov;
      MatchSet matches =
          s.matcher.FindMatches(s.sub.graph, pattern, match_options);
      if (s.matcher.interrupted()) return;
      result.counts[n] = matches.size();
      result.focal_state[n] = FocalState::kComplete;
    };
    // One checkpoint per focal node; a stop leaves the remaining nodes
    // kPending without touching them.
    auto run_range = [&](std::size_t begin, std::size_t end, Scratch& s) {
      for (std::size_t i = begin; i < end; ++i) {
        EGO_FAILPOINT("census/focal");
        if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
        process(ctx.focal[i], s);
      }
    };
    EGO_SPAN("census/count");
    if (ctx.pool == nullptr) {
      Scratch scratch;
      scratch.extractor.emplace(graph);
      run_range(0, ctx.focal.size(), scratch);
      result.stats.Merge(scratch.stats);
    } else {
      std::vector<Scratch> scratch(ctx.pool->NumWorkers());
      for (auto& s : scratch) s.extractor.emplace(graph);
      ctx.pool->ParallelFor(
          0, ctx.focal.size(), /*grain=*/2, gov,
          [&](std::size_t begin, std::size_t end, unsigned worker) {
            run_range(begin, end, scratch[worker]);
          });
      for (const auto& s : scratch) result.stats.Merge(s.stats);
    }
    result.stats.census_seconds = timer.ElapsedSeconds();
    FinishExecStatus(ctx, "ND-BAS", &result);
    return result;
  }

  bool match_interrupted = false;
  MatchSet matches = FindMatchesTimed(graph, pattern, *ctx.options,
                                      &result.stats, &match_interrupted);
  if (match_interrupted) {
    // A partial global match set would undercount every focal node, so no
    // counting happens: the whole census stays kPending.
    FinishExecStatus(ctx, "ND-BAS", &result);
    return result;
  }
  MatchAnchors anchors(&matches, ctx.anchor_nodes);
  timer.Reset();
  EGO_SPAN("census/count");
  auto process = [&](NodeId n, BfsWorkspace& bfs, CensusStats& stats,
                     ScratchCharge& charge) {
    bfs.Run(graph, n, k);
    EGO_HIST_RECORD("census/neighborhood_size", bfs.visited().size());
    stats.nodes_expanded += bfs.visited().size();
    stats.peak_neighborhood =
        std::max<std::uint64_t>(stats.peak_neighborhood, bfs.visited().size());
    std::uint64_t count = 0;
    for (std::size_t m = 0; m < anchors.NumMatches(); ++m) {
      bool inside = true;
      for (int j = 0; j < anchors.NumAnchors(); ++j) {
        ++stats.containment_checks;
        if (!bfs.Reached(anchors.Anchor(m, j))) {
          inside = false;
          break;
        }
      }
      if (inside) ++count;
    }
    result.counts[n] = count;
    result.focal_state[n] = FocalState::kComplete;
  };
  auto run_range = [&](std::size_t begin, std::size_t end, BfsWorkspace& bfs,
                       CensusStats& stats, ScratchCharge& charge) {
    for (std::size_t i = begin; i < end; ++i) {
      EGO_FAILPOINT("census/focal");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      NodeId n = ctx.focal[i];
      // BFS workspace footprint (visited list + per-node marks).
      if (!charge.Update(gov, graph.NumNodes() * sizeof(NodeId))) return;
      process(n, bfs, stats, charge);
    }
  };
  if (ctx.pool == nullptr) {
    BfsWorkspace bfs;
    ScratchCharge charge;
    run_range(0, ctx.focal.size(), bfs, result.stats, charge);
  } else {
    std::vector<BfsWorkspace> bfs(ctx.pool->NumWorkers());
    std::vector<CensusStats> stats(ctx.pool->NumWorkers());
    std::vector<ScratchCharge> charges(ctx.pool->NumWorkers());
    ctx.pool->ParallelFor(
        0, ctx.focal.size(), /*grain=*/4, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          run_range(begin, end, bfs[worker], stats[worker], charges[worker]);
        });
    for (const auto& s : stats) result.stats.Merge(s);
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  FinishExecStatus(ctx, "ND-BAS", &result);
  return result;
}

}  // namespace egocensus::internal
