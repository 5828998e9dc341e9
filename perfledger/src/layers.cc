#include "layers.h"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "census/census.h"
#include "graph/bfs.h"
#include "graph/distance_index.h"
#include "graph/io.h"
#include "graph/profile_index.h"
#include "lang/analyzer.h"
#include "lang/engine.h"
#include "lang/query_parser.h"
#include "match/cn_matcher.h"
#include "util/timer.h"

namespace ledger {

using namespace egocensus;

namespace {

// Distinct queries replayed per workload, and focal nodes per query whose
// balls are measured.
constexpr std::size_t kMaxQueries = 8;
constexpr std::size_t kMaxBallSources = 200;
// Repetitions of the whole-graph builds and of the microsecond-scale calls.
constexpr int kBuildReps = 3;
constexpr int kMicroReps = 20;

template <typename Fn>
double TimeMs(SpanRecorder* spans, const std::string& name, std::size_t parent,
              Fn&& fn) {
  ScopedSpan span(spans, name, parent);
  Timer timer;
  fn();
  return timer.ElapsedMillis();
}

template <typename Fn>
double MedianMs(SpanRecorder* spans, const std::string& name,
                std::size_t parent, int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) ms.push_back(TimeMs(spans, name, parent, fn));
  return Median(ms);
}

/// Every `step`-th element, at most `limit` of them.
template <typename T>
std::vector<T> EvenSample(const std::vector<T>& items, std::size_t limit) {
  std::vector<T> out;
  std::size_t step = std::max<std::size_t>(1, items.size() / limit);
  for (std::size_t i = 0; i < items.size() && out.size() < limit; i += step) {
    out.push_back(items[i]);
  }
  return out;
}

/// The engine choice QueryEngine makes for an aggregate (PT-OPT for
/// selective patterns, ND-PVOT otherwise, shared indexes, no center index
/// for a census the fast path will take), so RunCensus is timed with the
/// options the daemon uses.
CensusOptions AutoCensusOptions(const AnalyzedQuery::CountItem& item,
                                const GraphIndexes& indexes,
                                std::uint32_t threads) {
  const Pattern& pattern = *item.pattern;
  bool selective = !pattern.Predicates().empty();
  for (int v = 0; v < pattern.NumNodes(); ++v) {
    selective = selective || pattern.LabelConstraint(v).has_value();
  }
  CensusOptions census;
  census.num_threads = threads;
  census.k = item.spec->neighborhood.k;
  census.algorithm =
      selective ? CensusAlgorithm::kPtOpt : CensusAlgorithm::kNdPvot;
  census.profile_index = &indexes.profiles;
  if (!item.shape.eligible() && selective) {
    census.center_index = &indexes.centers;
  }
  return census;
}

struct QueryLayers {
  double parse_us = 0, analyze_us = 0, execute_ms = 0, csv_ms = 0;
  double census_ms = 0, match_ms = 0, index_ms = 0, count_ms = 0;
  double census_1t_ms = 0, census_4t_ms = 0;
  double nodes_expanded = 0, containment_checks = 0;
  double pending = 0, focal = 0;
  bool routed = false;
  double global_match_ms = 0, matches = 0, candidates = 0, extension_checks = 0;
  double useful_matches = 0;
  double ball_nodes_sum = 0, ball_sources = 0;
};

QueryLayers MeasureQuery(const Inputs& in, const QuerySpec& spec,
                         const GraphIndexes& indexes, SpanRecorder* spans,
                         std::size_t parent, RunResult* result) {
  QueryLayers out;
  ScopedSpan query_span(spans, "query/" + spec.name, parent);
  const std::size_t qid = query_span.id();

  std::vector<double> parse_us;
  Result<Query> query = Status::Internal("unparsed");
  for (int i = 0; i < kMicroReps; ++i) {
    parse_us.push_back(1e3 * TimeMs(spans, "lang/parse", qid, [&] {
      query = ParseQuery(spec.text);
    }));
  }
  if (!query.ok()) {
    result->Fail("parse: " + query.status().ToString());
    return out;
  }
  std::vector<double> analyze_us;
  Result<AnalyzedQuery> analyzed = Status::Internal("unanalyzed");
  for (int i = 0; i < kMicroReps; ++i) {
    analyze_us.push_back(1e3 * TimeMs(spans, "lang/analyze", qid, [&] {
      analyzed = AnalyzeQuery(*query, {});
    }));
  }
  if (!analyzed.ok() || analyzed->counts.size() != 1) {
    result->Fail("analyze: " + analyzed.status().ToString());
    return out;
  }
  out.parse_us = Median(parse_us);
  out.analyze_us = Median(analyze_us);
  const AnalyzedQuery::CountItem& item = analyzed->counts[0];
  const Pattern& pattern = *item.pattern;
  const std::uint32_t k = item.spec->neighborhood.k;

  // lang: the whole query over the shared indexes, then its CSV rendering.
  QueryEngine engine(in.graph, &indexes);
  QueryEngine::Options options;
  options.census.num_threads = in.threads;
  Result<ResultTable> table = Status::Internal("unexecuted");
  out.execute_ms = TimeMs(spans, "lang/execute", qid, [&] {
    table = engine.ExecuteParsed(*query, options);
  });
  if (!table.ok()) {
    result->Fail("execute: " + table.status().ToString());
    return out;
  }
  std::ostringstream csv;
  out.csv_ms = TimeMs(spans, "lang/csv", qid, [&] { table->WriteCsv(csv); });

  // census: RunCensus as the engine configures it, at the workload's thread
  // count, then at the other of 1 and 4 threads for the speed-up. Counters
  // come from the 1-thread run, where they are exact.
  std::vector<NodeId> focal;
  for (NodeId n = spec.lo; n < spec.hi; ++n) focal.push_back(n);
  auto run = [&](std::uint32_t threads, const std::string& name,
                 Result<CensusResult>* census_result) {
    CensusOptions census = AutoCensusOptions(item, indexes, threads);
    return TimeMs(spans, name, qid, [&] {
      *census_result = RunCensus(in.graph, pattern, focal, census);
    });
  };
  Result<CensusResult> main_run = Status::Internal("unrun");
  Result<CensusResult> other_run = Status::Internal("unrun");
  out.census_ms = run(in.threads, "census/run", &main_run);
  const std::uint32_t other = in.threads == 1 ? 4 : 1;
  double other_ms = run(other, "census/run_" + std::to_string(other) + "t",
                        &other_run);
  if (!main_run.ok() || !other_run.ok()) {
    result->Fail("census failed");
    return out;
  }
  out.census_1t_ms = in.threads == 1 ? out.census_ms : other_ms;
  out.census_4t_ms = in.threads == 1 ? other_ms : out.census_ms;
  const CensusStats& stats = main_run->stats;
  out.match_ms = stats.match_seconds * 1e3;
  out.index_ms = stats.index_seconds * 1e3;
  out.count_ms = stats.census_seconds * 1e3;
  out.routed = stats.fastpath_routed != 0;
  const CensusResult& serial = in.threads == 1 ? *main_run : *other_run;
  out.nodes_expanded = static_cast<double>(serial.stats.nodes_expanded);
  out.containment_checks = static_cast<double>(serial.stats.containment_checks);
  out.focal = static_cast<double>(focal.size());
  for (NodeId n : focal) {
    out.pending += serial.focal_state[n] == FocalState::kPending;
  }

  // match: the CN matcher over the whole graph, and which of its matches
  // could count for some focal node (all anchors inside the union of the
  // focal k-balls).
  CnMatcher matcher(&indexes.profiles);
  MatchSet matches;
  out.global_match_ms = TimeMs(spans, "match/find", qid, [&] {
    matches = matcher.FindMatches(in.graph, pattern);
  });
  out.matches = static_cast<double>(matches.size());
  out.candidates = static_cast<double>(matcher.stats().initial_candidates);
  out.extension_checks = static_cast<double>(matcher.stats().extension_checks);
  {
    ScopedSpan span(spans, "graph/balls", qid);
    std::vector<char> in_ball(in.graph.NumNodes(), 0);
    BfsWorkspace bfs;
    const bool all = spec.lo == 0 && spec.hi == in.graph.NumNodes();
    if (all) std::fill(in_ball.begin(), in_ball.end(), 1);
    std::vector<NodeId> sources = EvenSample(focal, kMaxBallSources);
    for (NodeId n : all ? sources : focal) {
      const std::vector<NodeId>& ball = bfs.Run(in.graph, n, k);
      if (!all) {
        for (NodeId m : ball) in_ball[m] = 1;
      }
      if (all || std::binary_search(sources.begin(), sources.end(), n)) {
        out.ball_nodes_sum += static_cast<double>(ball.size());
        out.ball_sources += 1;
      }
    }
    for (std::size_t m = 0; m < matches.size(); ++m) {
      bool inside = true;
      for (NodeId image : matches.Match(m)) inside = inside && in_ball[image];
      out.useful_matches += inside;
    }
  }
  return out;
}

/// Per-focal time of the fast path on the workload's focal windows: its
/// routed queries, or the unlabeled triangle at k=1 when it has none.
double FastPathFocalUs(const Inputs& in, const std::vector<std::size_t>& sample,
                       const std::vector<QueryLayers>& measured,
                       const GraphIndexes& indexes, SpanRecorder* spans,
                       std::size_t parent) {
  std::vector<double> us;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (measured[i].routed && measured[i].focal > 0) {
      us.push_back(measured[i].census_ms * 1e3 / measured[i].focal);
    }
  }
  if (!us.empty()) return Mean(us);
  for (std::size_t index : sample) {
    const QuerySpec& spec = in.pool[index];
    auto query = ParseQuery(CountQuery(kTriangle, 1, spec.lo,
                                       spec.hi, in.graph.NumNodes()));
    if (!query.ok()) continue;
    auto analyzed = AnalyzeQuery(*query, {});
    if (!analyzed.ok()) continue;
    std::vector<NodeId> focal;
    for (NodeId n = spec.lo; n < spec.hi; ++n) focal.push_back(n);
    CensusOptions census = AutoCensusOptions(analyzed->counts[0], indexes, 1);
    double ms = TimeMs(spans, "fastpath/triangle", parent, [&] {
      auto result =
          RunCensus(in.graph, *analyzed->counts[0].pattern, focal, census);
      (void)result;
    });
    us.push_back(ms * 1e3 / static_cast<double>(focal.size()));
  }
  return Mean(us);
}

}  // namespace

std::map<std::size_t, double> MeasureLayers(const Inputs& in,
                                            SpanRecorder* spans,
                                            RunResult* result) {
  ScopedSpan root(spans, "layers");
  const std::size_t rid = root.id();

  // graph: load, the two daemon indexes, and (below) k-ball sizes.
  double load_ms = MedianMs(spans, "graph/load", rid, kBuildReps, [&] {
    auto graph = LoadGraph(in.graph_path);
    if (!graph.ok()) result->Fail("load: " + graph.status().ToString());
  });
  double profile_ms = MedianMs(spans, "graph/profile_index", rid, kBuildReps,
                               [&] { (void)ProfileIndex::Build(in.graph); });
  double center_ms =
      MedianMs(spans, "graph/center_index", rid, kBuildReps, [&] {
        (void)CenterDistanceIndex::Build(
            in.graph, PickHighestDegreeCenters(in.graph, 24));
      });
  GraphIndexes indexes = GraphIndexes::Build(in.graph);

  std::vector<std::size_t> pool_indexes(in.pool.size());
  std::iota(pool_indexes.begin(), pool_indexes.end(), std::size_t{0});
  const std::vector<std::size_t> sample = EvenSample(pool_indexes, kMaxQueries);
  std::vector<QueryLayers> measured;
  std::map<std::size_t, double> execute_ms;
  for (std::size_t index : sample) {
    measured.push_back(
        MeasureQuery(in, in.pool[index], indexes, spans, rid, result));
    execute_ms[index] = measured.back().execute_ms;
  }
  auto mean_of = [&](double QueryLayers::*field) {
    std::vector<double> values;
    for (const QueryLayers& q : measured) values.push_back(q.*field);
    return Mean(values);
  };
  auto sum_of = [&](double QueryLayers::*field) {
    double sum = 0;
    for (const QueryLayers& q : measured) sum += q.*field;
    return sum;
  };
  std::vector<double> overhead_ms, unattributed_ms;
  double routed = 0;
  for (const QueryLayers& q : measured) {
    overhead_ms.push_back(q.execute_ms - q.census_ms);
    unattributed_ms.push_back(q.census_ms - q.match_ms - q.index_ms -
                              q.count_ms);
    routed += q.routed;
  }
  const std::uint64_t nq = measured.size();

  result->Add("graph.load_ms", load_ms, "ms", kBuildReps);
  result->Add("graph.profile_index_ms", profile_ms, "ms", kBuildReps);
  result->Add("graph.center_index_ms", center_ms, "ms", kBuildReps);
  const double ball_sources = sum_of(&QueryLayers::ball_sources);
  result->Add("graph.ball_nodes",
              sum_of(&QueryLayers::ball_nodes_sum) /
                  std::max(1.0, ball_sources),
              "count", static_cast<std::uint64_t>(ball_sources));

  result->Add("lang.parse_us", mean_of(&QueryLayers::parse_us), "us", nq);
  result->Add("lang.analyze_us", mean_of(&QueryLayers::analyze_us), "us", nq);
  result->Add("lang.execute_ms", mean_of(&QueryLayers::execute_ms), "ms", nq);
  result->Add("lang.overhead_ms", Mean(overhead_ms), "ms", nq);
  result->Add("lang.csv_ms", mean_of(&QueryLayers::csv_ms), "ms", nq);

  result->Add("match.ms", mean_of(&QueryLayers::global_match_ms), "ms", nq);
  result->Add("match.matches", mean_of(&QueryLayers::matches), "count", nq);
  result->Add("match.candidates", mean_of(&QueryLayers::candidates), "count",
              nq);
  result->Add("match.extension_checks",
              mean_of(&QueryLayers::extension_checks), "count", nq);
  const double all_matches = sum_of(&QueryLayers::matches);
  result->Add("match.useful_frac",
              all_matches > 0
                  ? sum_of(&QueryLayers::useful_matches) / all_matches
                  : 1.0,
              "ratio", static_cast<std::uint64_t>(all_matches));

  result->Add("census.ms", mean_of(&QueryLayers::census_ms), "ms", nq);
  // CensusStats' match and index phases are exactly zero when the fast path
  // runs, so they are ledger detail; their sum with the count phase is the
  // per-layer metric.
  result->Add("census.attributed_ms",
              mean_of(&QueryLayers::match_ms) +
                  mean_of(&QueryLayers::index_ms) +
                  mean_of(&QueryLayers::count_ms),
              "ms", nq);
  result->Add("census.count_ms", mean_of(&QueryLayers::count_ms), "ms", nq);
  result->Add("census.unattributed_ms", Mean(unattributed_ms), "ms", nq);
  result->Detail("census.match_ms", mean_of(&QueryLayers::match_ms), "ms", nq);
  result->Detail("census.index_ms", mean_of(&QueryLayers::index_ms), "ms", nq);
  result->Add("census.nodes_expanded", mean_of(&QueryLayers::nodes_expanded),
              "count", nq);
  result->Add("census.containment_checks",
              mean_of(&QueryLayers::containment_checks), "count", nq);
  const double t4 = sum_of(&QueryLayers::census_4t_ms);
  result->Add("census.speedup_4t",
              t4 > 0 ? sum_of(&QueryLayers::census_1t_ms) / t4 : 0, "ratio",
              nq);
  const double focal = sum_of(&QueryLayers::focal);
  result->Add("census.pending_frac",
              focal > 0 ? sum_of(&QueryLayers::pending) / focal : 0, "ratio",
              static_cast<std::uint64_t>(focal));

  result->Add("fastpath.routed_frac",
              nq > 0 ? routed / static_cast<double>(nq) : 0, "ratio", nq);
  result->Add("fastpath.focal_us",
              FastPathFocalUs(in, sample, measured, indexes, spans, rid), "us",
              nq);

  // dynamic: one edge update at a time on the overlay, then what the daemon
  // does after each UPDATE batch — re-materialize and re-index.
  DynamicGraph dynamic(in.graph);
  std::vector<double> apply_us;
  for (const GraphUpdate& update : in.updates) {
    apply_us.push_back(1e3 * TimeMs(spans, "dynamic/apply", rid, [&] {
      auto applied = dynamic.Apply(update);
      if (!applied.ok()) result->Fail("apply: " + applied.status().ToString());
    }));
  }
  Graph snapshot;
  double materialize_ms =
      MedianMs(spans, "dynamic/materialize", rid, kBuildReps,
               [&] { snapshot = dynamic.Materialize(); });
  double reindex_ms = MedianMs(spans, "dynamic/reindex", rid, kBuildReps,
                               [&] { (void)GraphIndexes::Build(snapshot); });
  result->Add("dynamic.apply_us", Median(apply_us), "us", apply_us.size());
  result->Add("dynamic.materialize_ms", materialize_ms, "ms", kBuildReps);
  result->Add("dynamic.reindex_ms", reindex_ms, "ms", kBuildReps);
  return execute_ms;
}

CodecTimes MeasureFrameCodec(
    const std::vector<std::pair<net::Message, net::Message>>& exchanges,
    SpanRecorder* spans) {
  std::vector<double> encode_us, decode_us;
  ScopedSpan root(spans, "net/codec");
  for (const auto& [request, response] : exchanges) {
    std::vector<std::uint8_t> request_bytes, response_bytes;
    encode_us.push_back(1e3 * MedianMs(spans, "net/encode", root.id(), 5, [&] {
      request_bytes = net::EncodeFrame(request);
      response_bytes = net::EncodeFrame(response);
    }));
    decode_us.push_back(1e3 * MedianMs(spans, "net/decode", root.id(), 5, [&] {
      for (const auto* bytes : {&request_bytes, &response_bytes}) {
        net::Message message;
        std::size_t consumed = 0;
        std::string error;
        (void)net::TryDecodeFrame(bytes->data(), bytes->size(), &message,
                                  &consumed, &error);
      }
    }));
  }
  return {Median(encode_us), Median(decode_us)};
}

}  // namespace ledger
