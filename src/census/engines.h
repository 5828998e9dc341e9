#ifndef EGOCENSUS_CENSUS_ENGINES_H_
#define EGOCENSUS_CENSUS_ENGINES_H_

// Internal header: per-algorithm census engine entry points, dispatched by
// RunCensus. Each engine receives the prepared pattern, the focal node set
// (as both a list and a bitmap) and the resolved anchor pattern nodes.

#include <span>
#include <vector>

#include "census/census.h"
#include "census/pmi.h"
#include "graph/graph.h"
#include "match/match_set.h"
#include "util/thread_pool.h"

namespace egocensus::internal {

struct CensusContext {
  const Graph* graph = nullptr;
  const Pattern* pattern = nullptr;
  std::span<const NodeId> focal;
  const std::vector<char>* is_focal = nullptr;  // bitmap over NodeId
  std::vector<int> anchor_nodes;                // resolved anchors
  const CensusOptions* options = nullptr;
  /// Worker pool for the counting phase; null means serial. Engines that
  /// use it must keep per-worker scratch (sized pool->NumWorkers()) and
  /// merge order-insensitively so counts are identical to the serial run.
  ThreadPool* pool = nullptr;

  /// Resource governor from CensusOptions; null = ungoverned.
  Governor* governor() const { return options->governor; }
};

/// Sizes result->focal_state (all kPending) alongside counts. Every engine
/// calls this first; focal nodes are marked kComplete as (or after) they
/// finish.
void InitFocalState(const CensusContext& ctx, CensusResult* result);

/// Marks every focal node of ctx with `state` (PT engines: completion is
/// all-or-nothing because counts accumulate across matches/clusters).
void MarkAllFocal(const CensusContext& ctx, CensusResult* result,
                  FocalState state);

/// Fills result->exec_status from the governor (OK when ungoverned or not
/// stopped); `engine` names the interrupted operation in the message.
void FinishExecStatus(const CensusContext& ctx, const char* engine,
                      CensusResult* result);

CensusResult RunNdBas(const CensusContext& ctx);
CensusResult RunNdPvot(const CensusContext& ctx);
CensusResult RunNdDiff(const CensusContext& ctx);
CensusResult RunPtBas(const CensusContext& ctx);
/// Handles both kPtOpt and kPtRnd (queue order selected by
/// ctx.options->algorithm).
CensusResult RunPtOpt(const CensusContext& ctx);

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

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_ENGINES_H_
