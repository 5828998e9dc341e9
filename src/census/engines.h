#ifndef EGOCENSUS_CENSUS_ENGINES_H_
#define EGOCENSUS_CENSUS_ENGINES_H_

// Internal header: the census engines RunCensus dispatches, and the two
// counting drivers every counting loop runs on.
//
// RunCensus checks the inputs, sizes the all-pending result, runs the one
// whole-graph match step and turns the governor's state into exec_status.
// An engine receives the prepared pattern, the focal set (as both a list
// and a bitmap) and the match anchors, and keeps only its kernel: the index
// it builds, its per-worker scratch, and the work per focal node, match or
// match cluster. The drivers below own the rest (docs/PARALLEL.md): the
// per-unit failpoint and Checkpoint(), the per-worker scratch and its
// high-water memory charge, serial versus pool, the merge, completion, and
// the census/count span and timer.

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "census/census.h"
#include "census/pmi.h"
#include "exec/failpoints.h"
#include "graph/graph.h"
#include "match/match_set.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace egocensus::internal {

/// What a counting loop reads of its census: the focal list, the governor
/// (null = ungoverned) and the worker pool (null = serial).
struct CountLoop {
  std::span<const NodeId> focal;
  Governor* governor = nullptr;
  ThreadPool* pool = nullptr;

  unsigned NumWorkers() const {
    return pool == nullptr ? 1 : pool->NumWorkers();
  }
};

struct CensusContext {
  const Graph* graph = nullptr;
  const Pattern* pattern = nullptr;
  const std::vector<char>* is_focal = nullptr;  // bitmap over NodeId
  const CensusOptions* options = nullptr;
  /// The global match set seen through the anchor pattern nodes; null for
  /// the engines that match inside each ball (whole-pattern ND-BAS) or not
  /// at all (the fast path).
  const MatchAnchors* anchors = nullptr;
  /// The focal list, CensusOptions' governor and the census's pool.
  CountLoop loop;
};

/// Every node pending with count 0: the result a census starts from, and
/// what it stays when the match step is stopped.
CensusResult PendingResult(const Graph& graph);

/// Marks every focal node of `loop` complete.
void MarkAllComplete(const CountLoop& loop, CensusResult* result);

/// Records one ball (a k-hop neighborhood or ego network) of `size` nodes
/// in the worker's counters and the neighborhood-size histogram.
inline void RecordBall(std::uint64_t size, CensusStats* stats) {
  EGO_HIST_RECORD("census/neighborhood_size", size);
  stats->nodes_expanded += size;
  if (size > stats->peak_neighborhood) stats->peak_neighborhood = size;
}

// Each engine counts into a result RunCensus sized and left pending.
void RunNdBas(const CensusContext& ctx, CensusResult* result);
void RunNdPvot(const CensusContext& ctx, CensusResult* result);
void RunNdDiff(const CensusContext& ctx, CensusResult* result);
void RunPtBas(const CensusContext& ctx, CensusResult* result);
/// Handles both kPtOpt and kPtRnd (queue order selected by
/// ctx.options->algorithm).
void RunPtOpt(const CensusContext& ctx, CensusResult* result);

/// ND-PVOT's counting phase: per focal node, BFS its k-ball and count the
/// matches `index` pivots inside it. The approximate census counts its
/// sampled matches through it too.
void CountPivoted(const CountLoop& loop, const Graph& graph, std::uint32_t k,
                  const PivotIndex& index, CensusResult* result);

/// The one whole-graph match step of every census entry point: runs the
/// selected matcher (CN or GQL, with the shared profile index) under the
/// options' governor and records match_seconds/num_matches into stats. If
/// the governor stopped the matcher mid-search, *interrupted is set and the
/// returned set is the valid prefix found — callers must then skip
/// counting (counting a partial match set would produce wrong per-focal
/// counts, not partial ones) and report the governor's status.
MatchSet FindMatchesTimed(const Graph& graph, const Pattern& pattern,
                          const CensusCommon& options, CensusStats* stats,
                          bool* interrupted);

// ---- The counting drivers ----

/// One worker's state in a counting loop: the kernel's scratch, reused
/// across the units the worker runs, and the worker's counters.
template <typename Scratch>
class Worker {
 public:
  template <typename Make>
  Worker(const Make& make, Governor* governor)
      : scratch(make()), governor_(governor) {}

  /// Charges the scratch's footprint at its high-water mark. False when
  /// the growth overran the memory budget: the kernel stops like at a
  /// stopping checkpoint.
  bool Charge(std::uint64_t bytes) { return charge_.Update(governor_, bytes); }

  Scratch scratch;
  CensusStats stats;
  /// The summed-vector driver's private count vector (parallel runs only).
  std::vector<std::uint64_t> counts;

 private:
  ScratchCharge charge_;
  Governor* governor_;
};

/// The sharding under both drivers, which ND-DIFF's chain walk runs on
/// directly: builds one worker per pool thread (one when serial) from
/// make(), and runs body(begin, end, worker) over [0, size) — as one range
/// on the only worker when serial, in `grain`-sized chunks on the pool
/// otherwise. Then, in worker order, it hands each worker to merge() and
/// sums its counters into *stats. The census/count span and
/// stats->census_seconds cover all of it.
template <typename Make, typename Body, typename Merge>
void Shard(const CountLoop& loop, std::size_t size, std::size_t grain,
           const Make& make, const Body& body, const Merge& merge,
           CensusStats* stats) {
  EGO_SPAN("census/count");
  Timer timer;
  std::deque<Worker<decltype(make())>> workers;
  for (unsigned w = 0; w < loop.NumWorkers(); ++w) {
    workers.emplace_back(make, loop.governor);
  }
  if (loop.pool == nullptr) {
    body(0, size, workers.front());
  } else {
    loop.pool->ParallelFor(
        0, size, grain, loop.governor,
        [&](std::size_t begin, std::size_t end, unsigned w) {
          body(begin, end, workers[w]);
        });
  }
  for (auto& worker : workers) {
    merge(worker);
    stats->Merge(worker.stats);
  }
  stats->census_seconds = timer.ElapsedSeconds();
}

/// The per-focal driver (docs/PARALLEL.md, determinism case 1): runs
/// kernel(n, worker) for every focal node n with one census/focal failpoint
/// and one Checkpoint() each. A kernel returns n's count, or nullopt when
/// a charge or its own matcher stopped mid-node. Only a returned count is
/// written — to counts[n], which no other worker touches — and marks n
/// complete, so a stop leaves every unfinished node pending and untouched.
template <typename Make, typename Kernel>
void ForEachFocal(const CountLoop& loop, std::size_t grain, const Make& make,
                  const Kernel& kernel, CensusResult* result) {
  Governor* const gov = loop.governor;
  Shard(
      loop, loop.focal.size(), grain, make,
      [&](std::size_t begin, std::size_t end, auto& worker) {
        for (std::size_t i = begin; i < end; ++i) {
          EGO_FAILPOINT("census/focal");
          if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
          const NodeId n = loop.focal[i];
          const std::optional<std::uint64_t> count = kernel(n, worker);
          if (!count.has_value()) return;
          result->counts[n] = *count;
          result->focal_state[n] = FocalState::kComplete;
        }
      },
      [](auto&) {}, &result->stats);
}

/// The summed-vector driver (docs/PARALLEL.md, determinism case 2): runs
/// kernel(unit, counts, worker) for every unit in [0, num_units) — a match
/// for PT-BAS, a match cluster for PT-OPT/PT-RND — with one census/cluster
/// failpoint and one Checkpoint() each; a kernel returns false when its
/// charge overran the budget. Units add into shared nodes' counts, so a
/// parallel worker adds into a private vector and the vectors are summed
/// in worker order under census/merge; the serial run adds into the
/// result's own. Completion is all-or-nothing: every focal node is marked
/// complete only when nothing stopped, and otherwise all stay pending with
/// lower-bound counts.
template <typename Make, typename Kernel>
void SumOverUnits(const CountLoop& loop, std::size_t num_units,
                  std::size_t grain, const Make& make, const Kernel& kernel,
                  CensusResult* result) {
  Governor* const gov = loop.governor;
  std::vector<std::uint64_t>& total = result->counts;
  Shard(
      loop, num_units, grain, make,
      [&](std::size_t begin, std::size_t end, auto& worker) {
        std::uint64_t* counts = total.data();
        if (loop.pool != nullptr) {
          if (worker.counts.empty()) worker.counts.assign(total.size(), 0);
          counts = worker.counts.data();
        }
        for (std::size_t unit = begin; unit < end; ++unit) {
          EGO_FAILPOINT("census/cluster");
          if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
          if (!kernel(unit, counts, worker)) return;
        }
      },
      [&](auto& worker) {
        if (worker.counts.empty()) return;
        EGO_FAILPOINT("census/merge");
        for (std::size_t n = 0; n < total.size(); ++n) {
          total[n] += worker.counts[n];
        }
      },
      &result->stats);
  if (gov == nullptr || !gov->stopped()) {
    MarkAllComplete(loop, result);
  }
}

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_ENGINES_H_
