#ifndef EGOCENSUS_LANG_MAINTAIN_H_
#define EGOCENSUS_LANG_MAINTAIN_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_census.h"
#include "lang/ast.h"
#include "lang/engine.h"
#include "lang/result_table.h"
#include "util/status.h"

namespace egocensus {

/// What one MaintainSession batch did: the count changes of the updates it
/// applied, as a table with columns ID | OLD | NEW | DELTA (one row per
/// focal node whose count changed, ascending by id), and the batch's
/// status. A batch that stopped early (an invalid update or a governor
/// stop) keeps its applied prefix, so `deltas` holds that prefix's changes
/// next to the error.
struct MaintainBatch {
  ResultTable deltas;
  Status status;

  bool ok() const { return status.ok(); }
};

/// MAINTAIN execution mode of the query planner: instead of evaluating a
/// census query once against a static graph, a MaintainSession compiles it
/// into an IncrementalCensus over a DynamicGraph and keeps the result
/// up to date under an update stream. It takes the static engine's options
/// and plan step: the initial census runs the CensusPlan that PlanCensus
/// makes over the session's focal set (engine, matcher, fast path, threads,
/// degradation), and the maintainer keeps the plan's k, subpattern, matcher
/// and governor.
///
/// Supported queries: single-table SELECT with exactly one COUNTP/COUNTSP
/// aggregate over SUBGRAPH(ID, k). The WHERE clause fixes the focal node
/// set at session creation (as in the static engine, including RND()
/// draws); nodes added later are not focal. The graph must be mutated only
/// through ApplyBatch once the session exists.
class MaintainSession {
 public:
  /// Parses, analyzes, and plans `query_text`, runs the initial census,
  /// and returns a live session. `registered` supplies library patterns
  /// usable by name (inline PATTERN blocks shadow them). `graph` must
  /// outlive the session. A governor in `options.census` governs the
  /// initial census (a stop fails Create with its status) and checkpoints
  /// once per update (a stop aborts the batch between updates; the applied
  /// prefix stays, its deltas reach the listeners, and the session accepts
  /// the next batch, as after an invalid update).
  [[nodiscard]] static Result<MaintainSession> Create(
      DynamicGraph* graph, std::string_view query_text,
      const QueryEngine::Options& options = {},
      std::span<const Pattern> registered = {});

  /// Applies the updates and returns their count changes with the batch's
  /// status (see MaintainBatch).
  [[nodiscard]] MaintainBatch ApplyBatch(std::span<const GraphUpdate> updates);

  /// Current maintained result, one row per focal node in the shape
  /// `ecensus query` prints: columns in SELECT order, rows ascending by id
  /// unless the query's ORDER BY and LIMIT reorder and cut them.
  ResultTable CountsTable() const;

  /// Subscribes to the aggregated count deltas of every applied batch.
  void AddListener(IncrementalCensus::Listener listener) {
    census_.AddListener(std::move(listener));
  }

  const IncrementalCensus& census() const { return census_; }

 private:
  MaintainSession(DynamicGraph* graph, IncrementalCensus census, Query query)
      : graph_(graph), census_(std::move(census)), query_(std::move(query)) {}

  DynamicGraph* graph_ = nullptr;
  IncrementalCensus census_;
  Query query_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_MAINTAIN_H_
