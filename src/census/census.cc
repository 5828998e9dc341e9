#include "census/census.h"

#include <algorithm>
#include <cmath>
#include <memory>
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
#include "util/rng.h"
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

CensusResult PendingResult(const Graph& graph) {
  CensusResult result;
  result.counts.assign(graph.NumNodes(), 0);
  result.focal_state.assign(graph.NumNodes(), FocalState::kPending);
  return result;
}

void MarkAllComplete(const CountLoop& loop, CensusResult* result) {
  // egolint: no-checkpoint(O(|focal|) state-flag stores, no match work)
  for (NodeId n : loop.focal) result->focal_state[n] = FocalState::kComplete;
}

std::unique_ptr<Matcher> SelectMatcher(bool use_gql_matcher,
                                       const ProfileIndex* profile_index) {
  if (use_gql_matcher) return std::make_unique<GqlMatcher>(profile_index);
  return std::make_unique<CnMatcher>(profile_index);
}

MatchSet FindMatchesTimed(const Graph& graph, const Pattern& pattern,
                          const CensusCommon& options, CensusStats* stats,
                          bool* interrupted) {
  EGO_SPAN("census/match");
  Timer timer;
  std::unique_ptr<Matcher> matcher =
      SelectMatcher(options.use_gql_matcher, options.profile_index);
  MatchOptions match_options;
  match_options.governor = options.governor;
  MatchSet matches = matcher->FindMatches(graph, pattern, match_options);
  *interrupted = matcher->interrupted();
  stats->match_seconds = timer.ElapsedSeconds();
  stats->num_matches = matches.size();
  return matches;
}

namespace {

/// Counts into *result with the routed engine (the fast path when `shape`
/// is set), after the one whole-graph match step for every engine that
/// counts a global match set. A stopped match step counts nothing: a
/// partial match set would make every count wrong, not partial, so the
/// result stays all pending.
[[nodiscard]] Status RunEngine(CensusContext ctx, const PatternShape* shape,
                               std::vector<int> anchor_nodes,
                               CensusResult* result) {
  if (shape != nullptr) {
    RunFastPath(ctx, *shape, result);
    result->stats.fastpath_routed = 1;
    return Status::Ok();
  }
  const CensusAlgorithm algorithm = ctx.options->algorithm;
  // Whole-pattern ND-BAS matches inside each ball instead.
  const bool matches_per_ball =
      algorithm == CensusAlgorithm::kNdBas &&
      static_cast<int>(anchor_nodes.size()) == ctx.pattern->NumNodes();
  MatchSet matches;
  std::optional<MatchAnchors> anchors;
  if (!matches_per_ball) {
    bool interrupted = false;
    matches = FindMatchesTimed(*ctx.graph, *ctx.pattern, *ctx.options,
                               &result->stats, &interrupted);
    if (interrupted) return Status::Ok();
    ctx.anchors = &anchors.emplace(&matches, std::move(anchor_nodes));
  }
  switch (algorithm) {
    case CensusAlgorithm::kNdBas:
      RunNdBas(ctx, result);
      return Status::Ok();
    case CensusAlgorithm::kNdPvot:
      RunNdPvot(ctx, result);
      return Status::Ok();
    case CensusAlgorithm::kNdDiff:
      RunNdDiff(ctx, result);
      return Status::Ok();
    case CensusAlgorithm::kPtBas:
      RunPtBas(ctx, result);
      return Status::Ok();
    case CensusAlgorithm::kPtOpt:
    case CensusAlgorithm::kPtRnd:
      RunPtOpt(ctx, result);
      return Status::Ok();
  }
  return Status::Internal("unknown census algorithm");
}

}  // namespace
}  // namespace internal

[[nodiscard]] Result<ApproximateCensusResult> RunApproximateCensus(
    const Graph& graph, const Pattern& pattern, std::span<const NodeId> focal,
    const ApproximateCensusOptions& options) {
  if (!(options.sample_rate > 0.0) || options.sample_rate > 1.0) {
    return Status::InvalidArgument("sample_rate must be in (0, 1]");
  }
  std::vector<char> is_focal;  // filled to reject a repeated focal id
  auto anchor_nodes =
      CheckCensusInputs(graph, pattern, options.subpattern, focal, &is_focal);
  if (!anchor_nodes.ok()) return anchor_nodes.status();

  // The exact census of the sampled matches, scaled below.
  CensusResult sampled_census = internal::PendingResult(graph);
  Governor* gov = options.governor;
  bool interrupted = false;
  MatchSet all_matches = internal::FindMatchesTimed(
      graph, pattern, options, &sampled_census.stats, &interrupted);
  if (interrupted) return gov->ToStatus("approximate census (match)");

  // Bernoulli-sample the matches.
  Timer index_timer;
  Rng rng(options.seed);
  MatchSet sampled(all_matches.arity());
  // egolint: no-checkpoint(one RNG draw per match; the count below polls)
  for (std::size_t m = 0; m < all_matches.size(); ++m) {
    if (rng.NextBool(options.sample_rate)) sampled.Add(all_matches.Match(m));
  }
  MatchAnchors anchors(&sampled, *anchor_nodes);
  const PivotIndex index(pattern, anchors);
  sampled_census.stats.index_seconds = index_timer.ElapsedSeconds();

  internal::CountPivoted({focal, gov}, graph, options.k, index,
                         &sampled_census);
  if (gov != nullptr && gov->stopped()) {
    return gov->ToStatus("approximate census");
  }
  ApproximateCensusResult result;
  result.stats = sampled_census.stats;
  result.sampled_matches = sampled.size();
  const double scale = 1.0 / options.sample_rate;
  result.estimates.resize(graph.NumNodes());
  std::transform(sampled_census.counts.begin(), sampled_census.counts.end(),
                 result.estimates.begin(), [scale](std::uint64_t count) {
                   return static_cast<double>(count) * scale;
                 });
  return result;
}

[[nodiscard]] Result<CensusResult> RunCensus(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> focal,
                               const CensusOptions& options) {
  std::vector<char> is_focal;
  auto anchors =
      CheckCensusInputs(graph, pattern, options.subpattern, focal, &is_focal);
  if (!anchors.ok()) return anchors.status();

  internal::CensusContext ctx;
  ctx.graph = &graph;
  ctx.pattern = &pattern;
  ctx.is_focal = &is_focal;
  ctx.options = &options;
  // The counting drivers start their workers when counting starts and join
  // them before it ends, so a stopped match step starts no thread. A
  // requested width beyond the core count (tests use it to widen
  // interleavings) is honored exactly.
  ctx.loop = {focal, options.governor,
              ResolveNumThreads(options.num_threads)};

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

  EGO_SPAN("census/run", focal.size());
  CensusResult result = internal::PendingResult(graph);
  Status counted =
      internal::RunEngine(ctx, route.routed ? &route.shape : nullptr,
                          std::move(anchors).value(), &result);
  if (!counted.ok()) return counted;
  if (options.governor != nullptr) {
    // Stop messages name the engine that ran.
    result.exec_status = options.governor->ToStatus(
        route.routed ? "FASTPATH" : CensusAlgorithmName(options.algorithm));
    EGO_HIST_RECORD("exec/checkpoints_per_census",
                    options.governor->checkpoints());
  }
  result.stats.threads_used = ctx.loop.workers;
  result.stats.pattern_nodes = static_cast<std::uint32_t>(pattern.NumNodes());
  result.stats.k = options.k;
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
}

}  // namespace egocensus
