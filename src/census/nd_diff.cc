#include <algorithm>
#include <unordered_set>
#include <vector>

#include "census/engines.h"
#include "exec/failpoints.h"
#include "graph/bfs.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

// ND-DIFF (Section IV-A2 / Algorithm 3): exploit overlap between the
// neighborhoods of consecutive focal nodes. Matches are indexed under every
// anchor image. Walking a chain of adjacent focal nodes, the match set of
// the current node is derived from the previous node's set by (1) adding
// matches anchored at nodes in N_k(current) - N_k(prev) that are fully
// contained in N_k(current), and (2) removing matches with an anchor in
// N_k(prev) - N_k(current).
//
// Chain decomposition only affects how much work is shared, never the
// per-node result: counts[n] is always |{m : anchors(m) subset of N_k(n)}|.
// The parallel path therefore shards the focal list into contiguous slices,
// one chain walk per slice, with per-worker scratch (two BFS workspaces, the
// running match set, and an epoch-stamped pending mask). Workers write
// counts[n] only for nodes of their own slice, so results stay identical to
// the serial run for any worker count; chains just cannot cross slice
// boundaries, which costs a little sharing but no correctness.
CensusResult RunNdDiff(const CensusContext& ctx) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;

  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  InitFocalState(ctx, &result);
  Governor* const gov = ctx.governor();

  bool match_interrupted = false;
  MatchSet matches = FindMatchesTimed(graph, *ctx.pattern, *ctx.options,
                                      &result.stats, &match_interrupted);
  if (match_interrupted) {
    // A partial match set would undercount everywhere; keep all kPending.
    FinishExecStatus(ctx, "ND-DIFF", &result);
    return result;
  }
  MatchAnchors anchors(&matches, ctx.anchor_nodes);

  Timer timer;
  obs::ScopedSpan index_span("census/index");
  PatternMatchIndex pmi = PatternMatchIndex::BuildOnAnchors(anchors);
  result.stats.index_seconds = timer.ElapsedSeconds();
  index_span.End();

  timer.Reset();
  EGO_SPAN("census/count");
  auto contained = [&](std::uint32_t mid, const BfsWorkspace& bfs) {
    for (int j = 0; j < anchors.NumAnchors(); ++j) {
      if (!bfs.Reached(anchors.Anchor(mid, j))) return false;
    }
    return true;
  };

  struct DiffScratch {
    BfsWorkspace bfs_a;
    BfsWorkspace bfs_b;
    std::unordered_set<std::uint32_t> current_set;
    std::vector<std::uint32_t> pending_epoch;
    std::uint32_t epoch = 0;
    ScratchCharge charge;  // high-water footprint of the walk state
  };

  // Run the chain walk over focal indices [begin, end).
  auto process_range = [&](std::size_t begin, std::size_t end, DiffScratch& s,
                           CensusStats& stats) {
    if (s.pending_epoch.size() < graph.NumNodes()) {
      s.pending_epoch.assign(graph.NumNodes(), 0);
    }
    const std::uint32_t epoch = ++s.epoch;
    // egolint: no-checkpoint(O(chunk) epoch stores; chain walk below polls)
    for (std::size_t i = begin; i < end; ++i) {
      s.pending_epoch[ctx.focal[i]] = epoch;
    }
    auto pending = [&](NodeId n) { return s.pending_epoch[n] == epoch; };

    BfsWorkspace* current_bfs = &s.bfs_a;
    BfsWorkspace* prev_bfs = &s.bfs_b;
    std::unordered_set<std::uint32_t>& current_set = s.current_set;

    std::size_t scan = begin;  // next focal index for a fresh chain start
    bool have_prev = false;
    NodeId current = kInvalidNode;
    // Chain bookkeeping for the sharing metrics: a "chain" is a maximal run
    // of focal nodes derived differentially from one fresh set; its length
    // distribution and the fresh/diff step counts expose how much work
    // ND-DIFF actually shares (sharing ratio = diff_steps / focal nodes).
    static const obs::HistogramHandle chain_hist("census/nd-diff/chain_len");
    static const obs::CounterHandle fresh_counter(
        "census/nd-diff/fresh_sets");
    static const obs::CounterHandle diff_counter("census/nd-diff/diff_steps");
    std::uint64_t chain_len = 0;

    std::size_t processed = 0;
    const std::size_t total = end - begin;
    while (processed < total) {
      // One checkpoint per focal node: a stop abandons the chain mid-walk
      // and every unprocessed node of this slice stays kPending. The walk
      // state (two BFS frontiers + the running match set + the epoch mask)
      // is the engine's memory footprint, charged at its high-water mark.
      EGO_FAILPOINT("census/focal");
      if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
      if (!s.charge.Update(
              gov, 3 * static_cast<std::uint64_t>(graph.NumNodes()) *
                           sizeof(std::uint32_t) +
                       s.current_set.size() * 2 * sizeof(std::uint64_t))) {
        return;
      }
      if (current == kInvalidNode) {
        while (scan < end && !pending(ctx.focal[scan])) ++scan;
        current = ctx.focal[scan];
        have_prev = false;
        if (chain_len > 0) chain_hist.Record(chain_len);
        chain_len = 0;
      }
      s.pending_epoch[current] = 0;
      ++processed;
      ++chain_len;

      current_bfs->Run(graph, current, k);
      EGO_HIST_RECORD("census/neighborhood_size",
                      current_bfs->visited().size());
      stats.nodes_expanded += current_bfs->visited().size();
      stats.peak_neighborhood = std::max<std::uint64_t>(
          stats.peak_neighborhood, current_bfs->visited().size());

      if (!have_prev) {
        fresh_counter.Add(1);
        current_set.clear();
        for (NodeId n : current_bfs->visited()) {
          for (std::uint32_t mid : pmi.MatchesAt(n)) {
            ++stats.containment_checks;
            if (contained(mid, *current_bfs)) current_set.insert(mid);
          }
        }
      } else {
        diff_counter.Add(1);
        // N1 = N_k(current) - N_k(prev): candidate additions.
        for (NodeId n : current_bfs->visited()) {
          if (prev_bfs->Reached(n)) continue;
          for (std::uint32_t mid : pmi.MatchesAt(n)) {
            ++stats.containment_checks;
            if (contained(mid, *current_bfs)) current_set.insert(mid);
          }
        }
        // N2 = N_k(prev) - N_k(current): removals.
        for (NodeId n : prev_bfs->visited()) {
          if (current_bfs->Reached(n)) continue;
          for (std::uint32_t mid : pmi.MatchesAt(n)) {
            current_set.erase(mid);
          }
        }
      }
      result.counts[current] = current_set.size();
      result.focal_state[current] = FocalState::kComplete;

      // Prefer an unprocessed focal neighbor to keep neighborhoods shared.
      NodeId next = kInvalidNode;
      for (NodeId nbr : graph.Neighbors(current)) {
        if (pending(nbr)) {
          next = nbr;
          break;
        }
      }
      if (next != kInvalidNode) {
        std::swap(current_bfs, prev_bfs);
        have_prev = true;
        current = next;
      } else {
        current = kInvalidNode;  // fresh start next iteration
      }
    }
    if (chain_len > 0) chain_hist.Record(chain_len);
  };

  if (ctx.pool == nullptr) {
    DiffScratch scratch;
    process_range(0, ctx.focal.size(), scratch, result.stats);
  } else {
    const unsigned workers = ctx.pool->NumWorkers();
    // Coarse grain: differential sharing pays off only along long chains,
    // so keep slices big while still giving the pool room to balance.
    const std::size_t grain =
        std::max<std::size_t>(32, ctx.focal.size() / (workers * 8));
    std::vector<DiffScratch> scratch(workers);
    std::vector<CensusStats> stats(workers);
    ctx.pool->ParallelFor(
        0, ctx.focal.size(), grain, gov,
        [&](std::size_t begin, std::size_t end, unsigned worker) {
          process_range(begin, end, scratch[worker], stats[worker]);
        });
    for (const auto& s : stats) result.stats.Merge(s);
  }
  result.stats.census_seconds = timer.ElapsedSeconds();
  FinishExecStatus(ctx, "ND-DIFF", &result);
  return result;
}

}  // namespace egocensus::internal
