#ifndef EGOCENSUS_CENSUS_ENGINES_H_
#define EGOCENSUS_CENSUS_ENGINES_H_

// Internal header: the census engines RunCensus dispatches, and the two
// counting drivers every counting loop runs on.
//
// Every census entry point (RunCensus, the approximate census, top-K and
// the four pairwise engines) is three steps: the input check, the one
// whole-graph match step, and a kernel on a driver. A kernel is the index
// its engine builds, its per-worker scratch, and the work per unit (focal
// node, node pair, match or match cluster). The drivers below own the rest
// (docs/PARALLEL.md): the per-unit failpoint and Checkpoint(), the
// per-worker scratch and its high-water memory charge, serial versus
// parallel, the merge, and the census/count span and timer.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "census/census.h"
#include "census/pairwise.h"
#include "census/pmi.h"
#include "exec/failpoints.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "match/match_set.h"
#include "match/matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel_for.h"
#include "util/timer.h"

namespace egocensus::internal {

/// What a counting loop reads of its census: the focal list, the governor
/// (null = ungoverned) and the worker count (1 = serial).
struct CountLoop {
  std::span<const NodeId> focal;
  Governor* governor = nullptr;
  unsigned workers = 1;
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
  /// The focal list, CensusOptions' governor and the census's width.
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

/// The matcher a census selects: GQL under use_gql_matcher, CN otherwise.
/// ND-BAS matches inside extracted regions, whose ids are local, so it
/// passes no profile index.
std::unique_ptr<Matcher> SelectMatcher(bool use_gql_matcher,
                                       const ProfileIndex* profile_index);

/// The one whole-graph match step of every census entry point: runs the
/// selected matcher (with the shared profile index) under the options'
/// governor and records match_seconds/num_matches into stats. If
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
template <typename Scratch, typename Sum = std::vector<std::uint64_t>>
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
  /// The summed-vector driver's private accumulator (parallel runs only).
  Sum sum;

 private:
  ScratchCharge charge_;
  Governor* governor_;
};

/// The sharding under both drivers, which ND-DIFF's chain walk runs on
/// directly: builds one worker per rank (one when serial) from make(), and
/// runs body(begin, end, worker) over [0, size) — as one range on the only
/// worker when serial, in `grain`-sized chunks under ParallelFor
/// otherwise. Then, in worker order, it hands each worker to merge() and
/// sums its counters into *stats. The census/count span and
/// stats->census_seconds cover all of it.
template <typename Sum = std::vector<std::uint64_t>, typename Make,
          typename Body, typename Merge>
void Shard(const CountLoop& loop, std::size_t size, std::size_t grain,
           const Make& make, const Body& body, const Merge& merge,
           CensusStats* stats) {
  EGO_SPAN("census/count");
  Timer timer;
  std::deque<Worker<decltype(make()), Sum>> workers;
  for (unsigned w = 0; w < loop.workers; ++w) {
    workers.emplace_back(make, loop.governor);
  }
  if (loop.workers == 1) {
    body(0, size, workers.front());
  } else {
    ParallelFor(loop.workers, 0, size, grain, loop.governor,
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

/// The per-unit driver (docs/PARALLEL.md, determinism case 1): runs
/// kernel(units[i], worker) for every unit (a focal node, a node pair) with
/// one census/focal failpoint and one Checkpoint() each. A kernel returns
/// the unit's value, or nullopt when a charge or its own matcher stopped
/// mid-unit. Only a returned value reaches store(i, value), which writes a
/// slot no other unit touches: a stop leaves unfinished units untouched.
template <typename Unit, typename Make, typename Kernel, typename Store>
void ForEachUnit(const CountLoop& loop, std::span<const Unit> units,
                 std::size_t grain, const Make& make, const Kernel& kernel,
                 const Store& store, CensusStats* stats) {
  Governor* const gov = loop.governor;
  Shard(
      loop, units.size(), grain, make,
      [&](std::size_t begin, std::size_t end, auto& worker) {
        for (std::size_t i = begin; i < end; ++i) {
          EGO_FAILPOINT("census/focal");
          if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
          auto value = kernel(units[i], worker);
          if (!value.has_value()) return;
          store(i, *value);
        }
      },
      [](auto&) {}, stats);
}

/// The per-focal store (units = loop.focal): writes n's count to counts[n]
/// and marks n complete; a node a stop left unfinished stays pending.
inline auto StoreFocal(const CountLoop& loop, CensusResult* result) {
  return [&loop, result](std::size_t i, std::uint64_t count) {
    result->counts[loop.focal[i]] = count;
    result->focal_state[loop.focal[i]] = FocalState::kComplete;
  };
}

/// Adds a parallel worker's private accumulator into the total: a per-node
/// count vector (single-node PT engines) or a PairCounts (pairwise ones).
inline void AddInto(const std::vector<std::uint64_t>& sum,
                    std::vector<std::uint64_t>* total) {
  for (std::size_t n = 0; n < total->size(); ++n) (*total)[n] += sum[n];
}
inline void AddInto(const PairCounts& sum, PairCounts* total) {
  for (const auto& [pair, count] : sum) (*total)[pair] += count;
}

/// The summed-vector driver (docs/PARALLEL.md, determinism case 2): runs
/// kernel(unit, sum, worker) for every unit in [0, num_units) (a match for
/// PT-BAS, a match cluster for PT-OPT) with one census/cluster failpoint and
/// one Checkpoint() each; a kernel returns false when its charge overran
/// the budget. Units add into the same entries of *total, which starts at
/// zero, so a parallel worker adds into a private copy and the copies are
/// added into *total in worker order under census/merge. Returns false when
/// the governor stopped: *total then holds lower bounds.
template <typename Sum, typename Make, typename Kernel>
bool SumOverUnits(const CountLoop& loop, std::size_t num_units,
                  std::size_t grain, const Make& make, const Kernel& kernel,
                  Sum* total, CensusStats* stats) {
  Governor* const gov = loop.governor;
  const Sum zero = loop.workers == 1 ? Sum() : *total;
  Shard<Sum>(
      loop, num_units, grain, make,
      [&](std::size_t begin, std::size_t end, auto& worker) {
        Sum* sum = total;
        if (loop.workers > 1) {
          if (worker.sum.empty()) worker.sum = zero;
          sum = &worker.sum;
        }
        for (std::size_t unit = begin; unit < end; ++unit) {
          EGO_FAILPOINT("census/cluster");
          if (gov != nullptr && gov->Checkpoint() != StopReason::kNone) return;
          if (!kernel(unit, *sum, worker)) return;
        }
      },
      [&](auto& worker) {
        if (worker.sum.empty()) return;
        EGO_FAILPOINT("census/merge");
        AddInto(worker.sum, total);
      },
      stats);
  return gov == nullptr || !gov->stopped();
}

/// Whole-pattern ND-BAS's scratch, shared with pairwise ND-BAS: an
/// extractor, the region it extracted last, and the selected matcher.
struct RegionScratch {
  RegionScratch(const Graph& graph, bool use_gql_matcher)
      : extractor(graph), matcher(SelectMatcher(use_gql_matcher, nullptr)) {}
  SubgraphExtractor<Graph> extractor;
  EgoSubgraph sub;
  std::unique_ptr<Matcher> matcher;
};

/// Whole-pattern ND-BAS's per-unit count, shared with pairwise ND-BAS:
/// records the region just extracted into w.scratch.sub as a ball, charges
/// its footprint, matches the pattern inside it and adds the region's
/// matches to num_matches. nullopt when the charge or the matcher stopped.
inline std::optional<std::uint64_t> CountInRegion(const Pattern& pattern,
                                                  Governor* governor,
                                                  Worker<RegionScratch>& w) {
  const Graph& region = w.scratch.sub.graph;
  RecordBall(region.NumNodes(), &w.stats);
  // Extraction footprint: adjacency (~2 ids/edge) + node remaps.
  if (!w.Charge(region.NumNodes() * 4 * sizeof(NodeId) +
                region.NumEdges() * 2 * sizeof(NodeId))) {
    return std::nullopt;
  }
  MatchOptions match_options;
  match_options.governor = governor;
  const MatchSet matches =
      w.scratch.matcher->FindMatches(region, pattern, match_options);
  if (w.scratch.matcher->interrupted()) return std::nullopt;
  w.stats.num_matches += matches.size();
  return matches.size();
}

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_ENGINES_H_
