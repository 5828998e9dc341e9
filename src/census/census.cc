#include "census/census.h"

#include <cmath>
#include <numeric>
#include <optional>
#include <string>

#include "census/approx.h"
#include "census/engines.h"
#include "census/fastpath/fastpath.h"
#include "census/pmi.h"
#include "match/cn_matcher.h"
#include "match/gql_matcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"
#include "util/timer.h"

namespace egocensus {

const char* CensusAlgorithmName(CensusAlgorithm algorithm) {
  switch (algorithm) {
    case CensusAlgorithm::kNdBas:
      return "ND-BAS";
    case CensusAlgorithm::kNdPvot:
      return "ND-PVOT";
    case CensusAlgorithm::kNdDiff:
      return "ND-DIFF";
    case CensusAlgorithm::kPtBas:
      return "PT-BAS";
    case CensusAlgorithm::kPtOpt:
      return "PT-OPT";
    case CensusAlgorithm::kPtRnd:
      return "PT-RND";
  }
  return "?";
}

CensusAlgorithm AutoCensusAlgorithm(const Pattern& pattern) {
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    if (pattern.LabelConstraint(v).has_value()) return CensusAlgorithm::kPtOpt;
  }
  return pattern.Predicates().empty() ? CensusAlgorithm::kNdPvot
                                      : CensusAlgorithm::kPtOpt;
}

const char* FastPathModeName(FastPathMode mode) {
  switch (mode) {
    case FastPathMode::kAuto:
      return "auto";
    case FastPathMode::kForce:
      return "force";
    case FastPathMode::kOff:
      return "off";
  }
  return "?";
}

const char* FocalStateName(FocalState state) {
  switch (state) {
    case FocalState::kPending:
      return "pending";
    case FocalState::kComplete:
      return "complete";
    case FocalState::kApprox:
      return "approx";
  }
  return "?";
}

std::vector<NodeId> AllNodes(const Graph& graph) {
  std::vector<NodeId> nodes(graph.NumNodes());
  std::iota(nodes.begin(), nodes.end(), 0u);
  return nodes;
}

namespace internal {

void InitFocalState(const CensusContext& ctx, CensusResult* result) {
  result->focal_state.assign(ctx.graph->NumNodes(), FocalState::kPending);
}

void MarkAllFocal(const CensusContext& ctx, CensusResult* result,
                  FocalState state) {
  // egolint: no-checkpoint(O(|focal|) state-flag stores, no match work)
  for (NodeId n : ctx.focal) result->focal_state[n] = state;
}

void FinishExecStatus(const CensusContext& ctx, const char* engine,
                      CensusResult* result) {
  Governor* gov = ctx.governor();
  if (gov == nullptr) return;
  result->exec_status = gov->ToStatus(engine);
}

MatchSet FindMatchesTimed(const Graph& graph, const Pattern& pattern,
                          const CensusCommon& options, CensusStats* stats,
                          bool* interrupted) {
  EGO_SPAN("census/match");
  Timer timer;
  CnMatcher cn(options.profile_index);
  GqlMatcher gql(options.profile_index);
  Matcher& matcher =
      options.use_gql_matcher ? static_cast<Matcher&>(gql) : cn;
  MatchOptions match_options;
  match_options.governor = options.governor;
  MatchSet matches = matcher.FindMatches(graph, pattern, match_options);
  *interrupted = matcher.interrupted();
  stats->match_seconds = timer.ElapsedSeconds();
  stats->num_matches = matches.size();
  return matches;
}

}  // namespace internal

[[nodiscard]] Result<CensusResult> RunCensus(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> focal,
                               const CensusOptions& options) {
  auto anchors = CheckCensusInputs(graph, pattern, options.subpattern, focal);
  if (!anchors.ok()) return anchors.status();

  std::vector<char> is_focal(graph.NumNodes(), 0);
  // egolint: no-checkpoint(O(|focal|) bitmap fill before engines run)
  for (NodeId n : focal) is_focal[n] = 1;

  internal::CensusContext ctx;
  ctx.graph = &graph;
  ctx.pattern = &pattern;
  ctx.focal = focal;
  ctx.is_focal = &is_focal;
  ctx.anchor_nodes = std::move(anchors).value();
  ctx.options = &options;

  // Fast-path routing (docs/FAST_PATH.md): eligible <= 4-node censuses go
  // to the combinatorial kernels instead of options.algorithm. The
  // decision is observable (routed-vs-generic counters, per-shape and
  // per-reason breakdowns) so operators can audit hit rates.
  internal::FastPathDecision route;
  if (options.fast_path == FastPathMode::kOff) {
    route.reject_reason = "fast path off";
  } else {
    route = internal::DecideFastPath(graph, pattern, options);
  }
  if (!route.routed && options.fast_path == FastPathMode::kForce) {
    return Status::InvalidArgument(
        std::string("fast-path forced but census is ineligible: ") +
        route.reject_reason);
  }
  if (obs::Enabled()) {
    if (route.routed) {
      obs::CounterAdd("census/fastpath/routed", 1);
      obs::CounterAdd(
          std::string("census/fastpath/shape/") + ShapeName(route.shape.id),
          1);
      obs::HistogramRecord("census/fastpath/routed_focal", focal.size());
    } else {
      obs::CounterAdd("census/fastpath/generic", 1);
      obs::CounterAdd(std::string("census/fastpath/skip/") +
                          route.reject_reason,
                      1);
    }
  }

  // The counting phase is embarrassingly parallel across focal nodes /
  // match clusters; the pool lives for exactly one census so a caller's
  // requested width (including widths beyond the core count, which tests
  // use to widen interleavings) is honored exactly.
  const unsigned num_threads =
      ThreadPool::ResolveNumThreads(options.num_threads);
  std::optional<ThreadPool> pool;
  if (num_threads > 1) {
    pool.emplace(num_threads);
    ctx.pool = &*pool;
  }

  EGO_SPAN("census/run", focal.size());
  auto finish = [&](CensusResult result) -> Result<CensusResult> {
    result.stats.threads_used = num_threads;
    result.stats.pattern_nodes =
        static_cast<std::uint32_t>(pattern.NumNodes());
    result.stats.k = options.k;
    if (options.governor != nullptr) {
      EGO_HIST_RECORD("exec/checkpoints_per_census",
                      options.governor->checkpoints());
    }
    // Graceful degradation: a deadline/budget stop (not an explicit cancel
    // — the user asked out) re-covers the unfinished focal nodes with the
    // sampling-based approximate census so the result has estimates
    // everywhere instead of holes. Completed nodes keep their exact counts;
    // exec_status still reports the stop so callers know what happened.
    if (!result.exec_status.ok() &&
        result.exec_status.code() != StatusCode::kCancelled &&
        options.degrade_to_approx) {
      std::vector<NodeId> pending;
      // egolint: no-checkpoint(O(|focal|) scan collecting incomplete nodes)
      for (NodeId n : focal) {
        if (result.focal_state[n] != FocalState::kComplete) pending.push_back(n);
      }
      if (!pending.empty()) {
        ApproximateCensusOptions approx_options;
        static_cast<CensusCommon&>(approx_options) = options;
        approx_options.governor = nullptr;  // the degraded pass runs ungoverned
        approx_options.sample_rate = options.degrade_sample_rate;
        approx_options.seed = options.seed;
        auto approx =
            RunApproximateCensus(graph, pattern, pending, approx_options);
        if (approx.ok()) {
          // egolint: no-checkpoint(O(|pending|) copy of finished estimates)
          for (NodeId n : pending) {
            result.counts[n] = static_cast<std::uint64_t>(
                std::llround(approx->estimates[n]));
            result.focal_state[n] = FocalState::kApprox;
          }
          // Stats now cover both passes (exact prefix + degraded tail).
          result.stats.Merge(approx->stats);
          EGO_COUNTER_ADD("exec/degraded_focal", pending.size());
        }
      }
    }
    if (obs::Enabled()) {
      // Route the per-census totals through the registry under
      // census/<engine>/ so repeated censuses accumulate and the
      // exporters see the same numbers CensusStats reports.
      const std::string prefix =
          "census/" +
          (route.routed ? std::string("fastpath")
                        : ToLower(CensusAlgorithmName(options.algorithm))) +
          "/";
      const CensusStats& s = result.stats;
      obs::CounterAdd(prefix + "runs", 1);
      obs::CounterAdd(prefix + "num_matches", s.num_matches);
      obs::CounterAdd(prefix + "nodes_expanded", s.nodes_expanded);
      obs::CounterAdd(prefix + "reinsertions", s.reinsertions);
      obs::CounterAdd(prefix + "containment_checks", s.containment_checks);
      obs::GaugeMax(prefix + "peak_neighborhood", s.peak_neighborhood);
      obs::GaugeMax(prefix + "threads_used", s.threads_used);
    }
    return result;
  };
  if (route.routed) {
    CensusResult fast = internal::RunFastPath(ctx, route.shape);
    fast.stats.fastpath_routed = 1;
    return finish(std::move(fast));
  }
  switch (options.algorithm) {
    case CensusAlgorithm::kNdBas:
      return finish(internal::RunNdBas(ctx));
    case CensusAlgorithm::kNdPvot:
      return finish(internal::RunNdPvot(ctx));
    case CensusAlgorithm::kNdDiff:
      return finish(internal::RunNdDiff(ctx));
    case CensusAlgorithm::kPtBas:
      return finish(internal::RunPtBas(ctx));
    case CensusAlgorithm::kPtOpt:
    case CensusAlgorithm::kPtRnd:
      return finish(internal::RunPtOpt(ctx));
  }
  return Status::Internal("unknown census algorithm");
}

}  // namespace egocensus
