#include "census/fastpath/fastpath.h"

#include <optional>

#include "census/fastpath/kernels.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace egocensus::internal {

FastPathDecision DecideFastPath(const Graph& graph, const Pattern& pattern,
                                const CensusOptions& options) {
  FastPathDecision decision;
  if (!options.subpattern.empty()) {
    decision.reject_reason = "COUNTSP subpattern census";
    return decision;
  }
  if (options.use_gql_matcher) {
    // --matcher gql exists to observe the GQL cost end-to-end; honoring it
    // means actually running that matcher.
    decision.reject_reason = "explicit GQL matcher";
    return decision;
  }
  decision.shape = AnalyzeShape(pattern);
  if (!decision.shape.eligible()) {
    decision.reject_reason = decision.shape.reject_reason;
    return decision;
  }
  if (graph.directed()) {
    decision.reject_reason = "directed graph";
    return decision;
  }
  // The closed-form kernels assume simple adjacency (Graph::AddEdge does
  // not deduplicate parallel inserts).
  if (graph.has_parallel_edges()) {
    decision.reject_reason = "graph has parallel edges";
    return decision;
  }
  decision.routed = true;
  return decision;
}

void RunFastPath(const CensusContext& ctx, const PatternShape& shape,
                 CensusResult* result) {
  const Graph& graph = *ctx.graph;
  const std::uint32_t k = ctx.options->k;
  const fastpath::BallReads reads = fastpath::ReadsOf(shape);
  if (reads.local_csr) {
    ForEachUnit(
        ctx.loop, ctx.loop.focal, /*grain=*/4,
        [&graph] { return fastpath::EgoKernel(graph); },
        [&](NodeId n, Worker<fastpath::EgoKernel>& w)
            -> std::optional<std::uint64_t> {
          fastpath::EgoKernel& kernel = w.scratch;
          kernel.Build(n, k);
          RecordBall(kernel.NumLocalNodes(), &w.stats);
          if (!w.Charge(kernel.ScratchBytes())) return std::nullopt;
          return fastpath::ShapeCount(kernel.Count(), shape);
        },
        StoreFocal(ctx.loop, result), &result->stats);
    return;
  }

  fastpath::RegionTriangles triangles;
  if (reads.triangles) {
    Timer timer;
    obs::ScopedSpan index_span("census/index");
    const bool listed =
        triangles.List(graph, ctx.loop.focal, k, ctx.loop.governor);
    result->stats.index_seconds = timer.ElapsedSeconds();
    // Stopped like a match step: every focal node stays pending.
    if (!listed) return;
  }
  ForEachUnit(
      ctx.loop, ctx.loop.focal, /*grain=*/4, [] { return BfsWorkspace(); },
      [&](NodeId n, Worker<BfsWorkspace>& w) -> std::optional<std::uint64_t> {
        BfsWorkspace& ball = w.scratch;
        ball.Run(graph, n, k);
        RecordBall(ball.visited().size(), &w.stats);
        if (!w.Charge(ball.ScratchBytes())) return std::nullopt;
        fastpath::MotifCounts counts;
        counts.nodes = ball.visited().size();
        if (reads.degrees) fastpath::CountBallDegrees(graph, ball, k, &counts);
        if (reads.triangles) counts.triangle = triangles.CountInside(ball);
        return fastpath::ShapeCount(counts, shape);
      },
      StoreFocal(ctx.loop, result), &result->stats);
}

}  // namespace egocensus::internal
