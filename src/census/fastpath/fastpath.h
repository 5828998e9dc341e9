#ifndef EGOCENSUS_CENSUS_FASTPATH_FASTPATH_H_
#define EGOCENSUS_CENSUS_FASTPATH_FASTPATH_H_

// Internal header: fast-path routing decision + engine entry point,
// dispatched by RunCensus ahead of the generic algorithms
// (docs/FAST_PATH.md).

#include "census/engines.h"
#include "pattern/shape.h"

namespace egocensus::internal {

/// Outcome of the routing check RunCensus makes before dispatching.
struct FastPathDecision {
  bool routed = false;
  PatternShape shape;
  /// Why the census stays on the generic engines (static string, set when
  /// !routed): the pattern's reject reason or a graph/options condition.
  const char* reject_reason = "";
};

/// True when the fast path can answer this census bit-identically: the
/// pattern classifies to a <= 4-node shape, the census covers the whole
/// pattern with the CN match semantics, and the graph is undirected with
/// no parallel edges (the formulas assume simple adjacency). Does not
/// consult options.fast_path — the caller applies the tri-state.
FastPathDecision DecideFastPath(const Graph& graph, const Pattern& pattern,
                                const CensusOptions& options);

/// Combinatorial census engine: per focal node, one BFS of S(n, k), then
/// the shape's closed-form count from what it reads of the ball (its size,
/// its members' ball degrees, the region's triangles listed once per
/// census, or a local CSR for the 4-node shapes). It runs on the per-unit
/// driver like the node-driven engines, so it shares their
/// parallelization, governance, and partial-result contract; a stop while
/// listing the triangles leaves every focal node pending.
/// stats.num_matches and containment_checks stay 0: no matcher runs.
void RunFastPath(const CensusContext& ctx, const PatternShape& shape,
                 CensusResult* result);

}  // namespace egocensus::internal

#endif  // EGOCENSUS_CENSUS_FASTPATH_FASTPATH_H_
