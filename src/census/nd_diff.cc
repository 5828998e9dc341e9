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
// The walk therefore runs on the drivers' sharding: the focal list is cut
// into contiguous slices, one chain walk per slice, with per-worker scratch
// (two BFS workspaces, the running match set, and an epoch-stamped pending
// mask). Workers write counts[n] only for nodes of their own slice, so
// results stay identical to the serial run for any worker count; chains
// just cannot cross slice boundaries, which costs a little sharing but no
// correctness. The walk keeps its own per-node checkpoint, because the next
// node comes from the chain, not from the focal list's order.
void RunNdDiff(const CensusContext& ctx, CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;
  const MatchAnchors& anchors = *ctx.anchors;
  const CountLoop& loop = ctx.loop;
  Governor* const gov = loop.governor;

  Timer timer;
  obs::ScopedSpan index_span("census/index");
  PatternMatchIndex pmi = PatternMatchIndex::BuildOnAnchors(anchors);
  result->stats.index_seconds = timer.ElapsedSeconds();
  index_span.End();

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
  };

  // Run the chain walk over focal indices [begin, end).
  auto walk = [&](std::size_t begin, std::size_t end, Worker<DiffScratch>& w) {
    DiffScratch& s = w.scratch;
    CensusStats& stats = w.stats;
    if (s.pending_epoch.size() < graph.NumNodes()) {
      s.pending_epoch.assign(graph.NumNodes(), 0);
    }
    const std::uint32_t epoch = ++s.epoch;
    // egolint: no-checkpoint(O(chunk) epoch stores; chain walk below polls)
    for (std::size_t i = begin; i < end; ++i) {
      s.pending_epoch[loop.focal[i]] = epoch;
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
      if (!w.Charge(3 * static_cast<std::uint64_t>(graph.NumNodes()) *
                        sizeof(std::uint32_t) +
                    s.current_set.size() * 2 * sizeof(std::uint64_t))) {
        return;
      }
      if (current == kInvalidNode) {
        while (scan < end && !pending(loop.focal[scan])) ++scan;
        current = loop.focal[scan];
        have_prev = false;
        if (chain_len > 0) chain_hist.Record(chain_len);
        chain_len = 0;
      }
      s.pending_epoch[current] = 0;
      ++processed;
      ++chain_len;

      current_bfs->Run(graph, current, k);
      RecordBall(current_bfs->visited().size(), &stats);

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
      result->counts[current] = current_set.size();
      result->focal_state[current] = FocalState::kComplete;

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

  // Coarse grain: differential sharing pays off only along long chains,
  // so keep slices big while still giving the workers room to balance.
  const std::size_t grain =
      std::max<std::size_t>(32, loop.focal.size() / (loop.workers * 8));
  Shard(
      loop, loop.focal.size(), grain, [] { return DiffScratch(); }, walk,
      [](Worker<DiffScratch>&) {}, &result->stats);
}

}  // namespace egocensus::internal
