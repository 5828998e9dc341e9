// The census plan: which engine answers one census aggregate (PlanCensus,
// lang/engine.h), priced from the focal set, a few sampled k-balls, the
// graph's per-label totals and the pattern.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "census/fastpath/fastpath.h"
#include "graph/bfs.h"
#include "lang/engine.h"
#include "util/strings.h"
#include "util/parallel_for.h"

namespace egocensus {
namespace {

/// The plan samples the k-balls of at most this many focal nodes.
constexpr std::size_t kMaxSampledBalls = 16;

/// Nanoseconds per unit of counted work, one unit per census or matcher
/// counter the estimate adds up. Calibrated by timing RunCensus (fast path
/// off, shared profile index, 1 and 4 threads) for ND-BAS, ND-PVOT and
/// PT-BAS on a 10K-node preferential-attachment graph (5 edges per node,
/// 4 labels, generator seed 5) over nine labeled and unlabeled patterns of
/// one to four nodes, k = 1 and 2 and 50 to 10,000 focal nodes, at commit
/// 5850556 on a 4-vCPU x86-64 host (GCC 12.2, Release). The planned engine
/// then ran within 1.5x of the fastest of the three in every measured case.
struct CostTable {
  double candidate;     // a node the global candidate scan tests, per pattern node
  double cn_scan;       // an adjacency entry CN-set initialization reads
  double extension;     // a candidate an extension step lists or tests
  double match;         // a match stored, or indexed by ND-PVOT (num_matches)
  double bfs;           // a node a BFS visits or an adjacency entry it reads
  double pivot;         // a ball node ND-PVOT looks up in its match index
  double check;         // a containment check
  double region;        // one extracted region: region graph and matcher setup
  double scan;          // an adjacency entry the extractor reads
  double edge;          // an edge end an extracted region stores and indexes
  double region_share;  // a region's match work per edge end over the graph's
  double count_array;   // a node of a PT-BAS worker's |V|-sized count array
  double anchor_ball;   // an anchor's k-ball over a focal ball grown by the
                        // anchor's expected degree
  double gql;           // GQL's match-step work over CN's (Fig. 4(a)/(b))
};

constexpr CostTable kCost = {
    .candidate = 3.0,
    .cn_scan = 20.0,
    .extension = 20.0,
    .match = 20.0,
    .bfs = 2.5,
    .pivot = 8.0,
    .check = 8.0,
    .region = 500.0,
    .scan = 1.0,
    .edge = 24.0,
    .region_share = 0.3,
    .count_array = 1.5,
    .anchor_ball = 0.25,
    .gql = 270.0,
};

/// What the sampled k-balls hold on average.
struct BallSample {
  std::uint32_t balls = 0;
  double nodes = 0;          // |S(n, k)|
  double bfs_scans = 0;      // adjacency entries a BFS to depth k reads
  double scans = 0;          // degree sum of the ball: what extraction reads
  double source_degree = 0;  // the focal node's own degree
  LabelTotals inside;        // per-label totals of the induced ball
};

/// BFSes to depth k from at most kMaxSampledBalls focal nodes taken at an
/// even stride (so the plan is deterministic) and averages their balls.
/// Ids outside the graph are not sampled; RunCensus rejects them.
BallSample SampleBalls(const Graph& graph, std::span<const NodeId> focal,
                       std::uint32_t k) {
  BallSample sample;
  const std::size_t wanted = std::min(focal.size(), kMaxSampledBalls);
  BfsWorkspace bfs;
  for (std::size_t i = 0; i < wanted; ++i) {
    const NodeId source = focal[i * focal.size() / wanted];
    if (source >= graph.NumNodes()) continue;
    ++sample.balls;
    for (NodeId x : bfs.Run(graph, source, k)) {
      const std::span<const NodeId> row = graph.Neighbors(x);
      sample.nodes += 1;
      sample.scans += static_cast<double>(row.size());
      if (bfs.DistanceTo(x) < k) {
        sample.bfs_scans += static_cast<double>(row.size());
      }
      const auto inside = std::count_if(
          row.begin(), row.end(), [&bfs](NodeId y) { return bfs.Reached(y); });
      sample.inside.Add(graph.label(x), static_cast<double>(inside));
    }
    sample.source_degree += graph.Degree(source);
  }
  if (sample.balls == 0) return sample;
  const double mean = 1.0 / sample.balls;
  sample.nodes *= mean;
  sample.bfs_scans *= mean;
  sample.scans *= mean;
  sample.source_degree *= mean;
  sample.inside.Scale(mean);
  return sample;
}

/// Expected embeddings (label-respecting injective maps keeping every
/// listed edge) of the pattern nodes with a `degree` entry into a
/// configuration-model graph with the degree moments of `totals`: each node
/// contributes the moment of its degree, each edge divides by the stubs.
double Embeddings(const Pattern& pattern, const std::vector<int>& degree,
                  const LabelTotals& totals) {
  double embeddings = 1;
  int ends = 0;
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    if (degree[v] < 0) continue;
    ends += degree[v];
    embeddings *= totals.Moment(pattern.LabelConstraint(v), degree[v]);
  }
  if (ends == 0) return embeddings;
  const double stubs = totals.Moment(std::nullopt, 1);
  return stubs > 0 ? embeddings / std::pow(stubs, ends / 2) : 0;
}

struct MatchEstimate {
  double matches = 0;
  double candidates = 0;  // the candidate scan, which every match step pays
  double cost = 0;        // the whole step, the candidate scan included
};

/// One match step of `pattern` over `num_nodes` nodes with `totals`
/// (Algorithm 1): the candidate scan, CN-set initialization over the
/// candidates' adjacency, and the extraction along the search order. A step
/// that adds a node with one edge back into the prefix lists its CN set; a
/// step that closes more edges tests the members of one CN set against the
/// others, so it pays for the open extension it filters. Predicates and
/// negated edges only remove matches, so they are ignored.
MatchEstimate EstimateMatch(const Pattern& pattern, double num_nodes,
                            const LabelTotals& totals, bool gql) {
  const int size = pattern.NumNodes();
  double cn_scans = 0;
  for (int v = 0; v < size; ++v) {
    cn_scans += static_cast<double>(pattern.Neighbors(v).size()) *
                totals.Moment(pattern.LabelConstraint(v), 1);
  }
  std::vector<int> degree(size, -1);  // degree within the prefix; -1 = out
  double extension = 0;
  for (int v : pattern.SearchOrder()) {
    std::vector<int> back;
    for (const Pattern::Adjacent& adj : pattern.Neighbors(v)) {
      if (degree[adj.node] >= 0) back.push_back(adj.node);
    }
    if (back.size() >= 2) {
      std::vector<int> open = degree;
      open[v] = 1;
      ++open[back.front()];
      extension += Embeddings(pattern, open, totals);
    }
    degree[v] = static_cast<int>(back.size());
    for (int u : back) ++degree[u];
    if (back.size() < 2) {
      extension += Embeddings(pattern, degree, totals);
    }
  }
  MatchEstimate estimate;
  estimate.matches =
      Embeddings(pattern, degree, totals) /
      static_cast<double>(std::max<std::size_t>(pattern.NumAutomorphisms(), 1));
  const double factor = gql ? kCost.gql : 1.0;
  estimate.candidates = factor * kCost.candidate * num_nodes * size;
  estimate.cost = estimate.candidates +
                  factor * (kCost.cn_scan * cn_scans +
                            kCost.extension * extension +
                            kCost.match * estimate.matches);
  return estimate;
}

/// The three engines the cost rule chooses among, priced for |focal| focal
/// nodes on `threads` workers. Node-driven counting scales with |focal|
/// and the ball; the match step runs serially; pattern-driven counting
/// scales with |M| and the anchors' balls.
std::vector<EngineEstimate> PriceEngines(const Pattern& pattern,
                                         const CensusOptions& census,
                                         double focal, double threads,
                                         const BallSample& ball,
                                         double num_nodes,
                                         const LabelTotals& labels) {
  const bool gql = census.use_gql_matcher;
  const MatchEstimate global = EstimateMatch(pattern, num_nodes, labels, gql);
  // RunCensus rejects an unknown subpattern; price it as the whole pattern.
  const std::vector<int>* subpattern =
      census.subpattern.empty() ? nullptr
                                : pattern.FindSubpattern(census.subpattern);
  const double anchors = static_cast<double>(
      subpattern != nullptr ? subpattern->size() : pattern.NumNodes());
  const double bfs = kCost.bfs * (ball.nodes + ball.bfs_scans);

  EngineEstimate nd_bas{CensusAlgorithm::kNdBas};
  nd_bas.expanded = focal * ball.nodes;
  if (census.subpattern.empty()) {
    // Extract S(n, k), then match inside it. A configuration model prices
    // an ego ball badly (its edges hang off one center), so the region's
    // match step is the global step's edge-driven work per edge end, times
    // the ball's edge ends that do not hang off its center: a star holds
    // no closed pattern, and matching in a 1-ball costs what its
    // neighbors' edges among themselves cost.
    const double stubs = labels.Moment(std::nullopt, 1);
    const double inside = ball.inside.Moment(std::nullopt, 1);
    const double share =
        stubs > 0 ? kCost.region_share *
                        std::max(inside - 2 * ball.source_degree, 0.0) / stubs
                  : 0;
    nd_bas.matches = focal * global.matches * share;
    nd_bas.cost = focal / threads *
                  (kCost.region + kCost.scan * ball.scans +
                   kCost.edge * inside +
                   (global.cost - global.candidates) * share);
  } else {
    // Not node-local: every focal node scans the global match set.
    nd_bas.matches = global.matches;
    nd_bas.cost = global.cost + focal / threads *
                                    (bfs + kCost.check * global.matches);
  }

  EngineEstimate nd_pvot{CensusAlgorithm::kNdPvot};
  nd_pvot.matches = global.matches;
  nd_pvot.expanded = focal * ball.nodes;
  // A ball holds about |M| * |S(n, k)| / |V| pivots, each checking up to
  // t - 1 anchors.
  const double pivoted =
      num_nodes > 0 ? global.matches * ball.nodes / num_nodes : 0;
  nd_pvot.cost = global.cost + kCost.match * global.matches +
                 focal / threads *
                     (bfs + kCost.pivot * ball.nodes +
                      kCost.check * pivoted * (anchors - 1));

  // PT-BAS BFSes every anchor of every match. A match picks its anchors in
  // proportion to the moment of their pattern degree, so an anchor's
  // expected degree, and with it its ball, exceeds a focal node's.
  double anchor_degree = 0;
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    const int degree = static_cast<int>(pattern.Neighbors(v).size());
    const std::optional<Label> l = pattern.LabelConstraint(v);
    const double moment = labels.Moment(l, degree);
    if (moment > 0) anchor_degree += labels.Moment(l, degree + 1) / moment;
  }
  anchor_degree /= std::max(pattern.NumNodes(), 1);
  const double mean_degree =
      num_nodes > 0 ? labels.Moment(std::nullopt, 1) / num_nodes : 0;
  const double growth = mean_degree > 0 ? anchor_degree / mean_degree : 1;
  const double anchor_ball =
      std::min(num_nodes, kCost.anchor_ball * ball.nodes * growth);
  EngineEstimate pt_bas{CensusAlgorithm::kPtBas};
  pt_bas.matches = global.matches;
  pt_bas.expanded = global.matches * anchors * anchor_ball;
  pt_bas.cost =
      global.cost + kCost.count_array * num_nodes * threads +
      global.matches / threads *
          (anchors * kCost.bfs *
               (anchor_ball + kCost.anchor_ball * ball.bfs_scans * growth) +
           kCost.check * anchor_ball * (anchors - 1));

  std::vector<EngineEstimate> estimates = {nd_bas, nd_pvot, pt_bas};
  std::stable_sort(estimates.begin(), estimates.end(),
                   [](const EngineEstimate& a, const EngineEstimate& b) {
                     return a.cost < b.cost;
                   });
  return estimates;
}

std::string Millis(double ns) {
  char text[32];
  std::snprintf(text, sizeof text, "%.3g ms", ns * 1e-6);
  return text;
}

}  // namespace

std::string CensusPlan::EngineName() const {
  return fast_path ? "fastpath" : ToLower(CensusAlgorithmName(census.algorithm));
}

CensusPlan PlanCensus(const AnalyzedQuery::CountItem& item,
                      const QueryEngine::Options& options, const Graph& graph,
                      std::span<const NodeId> focal,
                      const LabelTotals& labels) {
  CensusPlan plan;
  CensusOptions& census = plan.census;
  census = options.census;
  census.k = item.spec->neighborhood.k;
  census.subpattern = item.spec->count_subpattern ? item.spec->subpattern : "";
  const Pattern& pattern = *item.pattern;

  std::string declined;
  if (census.fast_path != FastPathMode::kOff) {
    const internal::FastPathDecision route =
        internal::DecideFastPath(graph, pattern, census);
    if (route.routed || census.fast_path == FastPathMode::kForce) {
      // A forced census the fast path cannot answer fails in RunCensus.
      plan.fast_path = route.routed;
      plan.reason = route.routed
                        ? std::string("fast path: ") + ShapeName(route.shape.id)
                        : std::string("fast path forced: ") +
                              route.reject_reason;
      return plan;
    }
    declined = std::string("; fast path declined: ") + route.reject_reason;
  }
  if (!options.auto_algorithm) {
    plan.reason = "algorithm pinned by the request" + declined;
    return plan;
  }

  const BallSample ball = SampleBalls(graph, focal, census.k);
  plan.sampled_balls = ball.balls;
  plan.mean_ball = ball.nodes;
  plan.estimates = PriceEngines(
      pattern, census, static_cast<double>(focal.size()),
      ResolveNumThreads(census.num_threads), ball,
      graph.NumNodes(), labels);
  census.algorithm = plan.estimates.front().algorithm;
  census.fast_path = FastPathMode::kOff;
  plan.reason = "cheapest of";
  const char* separator = " ";
  for (const EngineEstimate& estimate : plan.estimates) {
    plan.reason += separator;
    plan.reason += CensusAlgorithmName(estimate.algorithm);
    plan.reason += " " + Millis(estimate.cost);
    separator = ", ";
  }
  plan.reason += declined;
  return plan;
}

}  // namespace egocensus
