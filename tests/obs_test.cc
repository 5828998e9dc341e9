#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "census/census.h"
#include "census/pairwise.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_census.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/catalog.h"

namespace egocensus {
namespace {

using obs::HistogramBucket;
using obs::HistogramBucketLow;
using obs::HistogramSnapshot;
using obs::MetricsSnapshot;
using obs::Registry;
using obs::Tracer;

TEST(HistogramBucketTest, BucketBoundaries) {
  EXPECT_EQ(HistogramBucket(0), 0u);
  EXPECT_EQ(HistogramBucket(1), 1u);
  EXPECT_EQ(HistogramBucket(2), 2u);
  EXPECT_EQ(HistogramBucket(3), 2u);
  EXPECT_EQ(HistogramBucket(4), 3u);
  EXPECT_EQ(HistogramBucket(7), 3u);
  EXPECT_EQ(HistogramBucket(8), 4u);
  EXPECT_EQ(HistogramBucket(~0ull), obs::kHistogramBuckets - 1);
}

TEST(HistogramBucketTest, LowIsInclusiveBound) {
  EXPECT_EQ(HistogramBucketLow(0), 0u);
  EXPECT_EQ(HistogramBucketLow(1), 1u);
  EXPECT_EQ(HistogramBucketLow(2), 2u);
  EXPECT_EQ(HistogramBucketLow(3), 4u);
  // Every value lands in the bucket whose [low, next_low) range contains it.
  for (std::uint64_t v : {0ull, 1ull, 5ull, 100ull, 1ull << 40}) {
    std::size_t b = HistogramBucket(v);
    EXPECT_GE(v, HistogramBucketLow(b));
    if (b + 1 < obs::kHistogramBuckets) {
      EXPECT_LT(v, HistogramBucketLow(b + 1));
    }
  }
}

TEST(HistogramSnapshotTest, MergeSumsBucketsMaxesMax) {
  HistogramSnapshot a;
  a.count = 2;
  a.sum = 10;
  a.max = 8;
  a.buckets[3] = 2;
  HistogramSnapshot b;
  b.count = 1;
  b.sum = 100;
  b.max = 100;
  b.buckets[7] = 1;
  a.Merge(b);
  EXPECT_EQ(a.count, 3u);
  EXPECT_EQ(a.sum, 110u);
  EXPECT_EQ(a.max, 100u);
  EXPECT_EQ(a.buckets[3], 2u);
  EXPECT_EQ(a.buckets[7], 1u);
}

TEST(HistogramSnapshotTest, MeanAndPercentile) {
  HistogramSnapshot h;
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ApproxPercentile(0.5), 0u);
  h.count = 4;
  h.sum = 20;
  h.max = 17;
  h.buckets[HistogramBucket(1)] += 3;
  h.buckets[HistogramBucket(17)] += 1;
  EXPECT_DOUBLE_EQ(h.Mean(), 5.0);
  // p50 falls in the bucket of the 1s; p99 in the bucket of 17.
  EXPECT_LE(h.ApproxPercentile(0.5), 1u);
  EXPECT_GE(h.ApproxPercentile(0.99), 17u);
}

/// Fixture: observability on, registry/tracer cleared, and off again after
/// (other tests must not observe instrumentation state).
class ObsRuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    Registry::Global().Reset();
    Tracer::Global().Reset();
  }
  void TearDown() override {
    obs::SetEnabled(false);
    Registry::Global().Reset();
    Tracer::Global().Reset();
  }
};

TEST_F(ObsRuntimeTest, CountersGaugesHistograms) {
  obs::CounterAdd("test/counter", 2);
  obs::CounterAdd("test/counter", 3);
  obs::GaugeMax("test/gauge", 7);
  obs::GaugeMax("test/gauge", 4);  // below current max: ignored
  obs::HistogramRecord("test/hist", 5);
  obs::HistogramRecord("test/hist", 9);

  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("test/counter"), 5u);
  EXPECT_EQ(snap.gauges.at("test/gauge"), 7u);
  const HistogramSnapshot& h = snap.histograms.at("test/hist");
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 14u);
  EXPECT_EQ(h.max, 9u);
}

TEST_F(ObsRuntimeTest, MacrosRecord) {
  for (int i = 0; i < 3; ++i) {
    EGO_COUNTER_ADD("test/macro_counter", 1);
    EGO_GAUGE_MAX("test/macro_gauge", static_cast<std::uint64_t>(i));
    EGO_HIST_RECORD("test/macro_hist", 2);
  }
  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("test/macro_counter"), 3u);
  EXPECT_EQ(snap.gauges.at("test/macro_gauge"), 2u);
  EXPECT_EQ(snap.histograms.at("test/macro_hist").count, 3u);
}

TEST_F(ObsRuntimeTest, DisabledRecordsNothing) {
  obs::SetEnabled(false);
  obs::CounterAdd("test/off", 1);
  EGO_COUNTER_ADD("test/off_macro", 1);
  obs::SetEnabled(true);
  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counters.count("test/off"), 0u);
  EXPECT_EQ(snap.counters.count("test/off_macro"), 0u);
}

TEST_F(ObsRuntimeTest, ZeroValuedMetricsOmitted) {
  // Interned but never recorded: must not clutter exports.
  obs::CounterHandle handle("test/never_recorded");
  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counters.count("test/never_recorded"), 0u);
}

TEST_F(ObsRuntimeTest, ShardsOfExitedThreadsSurvive) {
  // Values recorded by short-lived threads (the worker-pool lifecycle) must
  // fold into the retired accumulator and still appear in snapshots.
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        obs::CounterAdd("test/mt_counter", 1);
        obs::GaugeMax("test/mt_gauge", static_cast<std::uint64_t>(i));
        obs::HistogramRecord("test/mt_hist", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::CounterAdd("test/mt_counter", 1);  // this thread's live shard too

  MetricsSnapshot snap = Registry::Global().Snapshot();
  EXPECT_EQ(snap.counters.at("test/mt_counter"), 401u);
  EXPECT_EQ(snap.gauges.at("test/mt_gauge"), 99u);
  EXPECT_EQ(snap.histograms.at("test/mt_hist").count, 400u);
}

TEST_F(ObsRuntimeTest, ResetClearsValuesKeepsIds) {
  obs::CounterHandle handle("test/reset_counter");
  handle.Add(5);
  Registry::Global().Reset();
  EXPECT_TRUE(Registry::Global().Snapshot().empty());
  handle.Add(2);  // interned id stays valid across Reset
  EXPECT_EQ(Registry::Global().Snapshot().counters.at("test/reset_counter"),
            2u);
}

TEST_F(ObsRuntimeTest, JsonAndCsvExports) {
  obs::CounterAdd("test/c", 1);
  obs::GaugeMax("test/g", 2);
  obs::HistogramRecord("test/h", 3);
  MetricsSnapshot snap = Registry::Global().Snapshot();

  std::ostringstream json;
  snap.WriteJson(json);
  std::string j = json.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"test/c\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  EXPECT_NE(j.find("\"buckets\""), std::string::npos);

  std::ostringstream csv;
  snap.WriteCsv(csv);
  std::string c = csv.str();
  EXPECT_NE(c.find("metric,kind,count,sum,mean,max"), std::string::npos);
  EXPECT_NE(c.find("test/c,counter"), std::string::npos);
  EXPECT_NE(c.find("test/h,histogram"), std::string::npos);
}

TEST_F(ObsRuntimeTest, SpansRecordAndExportChromeTrace) {
  {
    EGO_SPAN("test/outer", 42);
    EGO_SPAN("test/inner");
  }
  obs::ScopedSpan manual("test/manual");
  manual.End();
  manual.End();  // idempotent

  auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);

  std::ostringstream os;
  Tracer::Global().WriteChromeTrace(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"name\": \"test/outer\""), std::string::npos);
  EXPECT_NE(out.find("\"value\": 42"), std::string::npos);
  EXPECT_EQ(out.find("test/never"), std::string::npos);
}

TEST_F(ObsRuntimeTest, SpanStartedDisabledNotRecorded) {
  obs::SetEnabled(false);
  {
    EGO_SPAN("test/while_off");
  }
  obs::SetEnabled(true);
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
}

// The tracer holds at most kMaxSpans spans and counts every span it
// refuses, here from two threads racing to the cap; the resets clear both
// and free the cap again.
TEST_F(ObsRuntimeTest, TracerKeepsCapSpansAndCountsTheRest) {
  constexpr std::size_t kExtra = 5;
  auto record = [](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      Tracer::Global().Record("test/span", 0, 1, 0, false);
    }
  };
  std::thread other(record, obs::kMaxSpans / 2 + kExtra);
  record(obs::kMaxSpans - obs::kMaxSpans / 2);
  other.join();
  EXPECT_EQ(Tracer::Global().Snapshot().size(), obs::kMaxSpans);
  EXPECT_EQ(Tracer::Dropped(), kExtra);

  Tracer::Global().Reset();
  Registry::Global().Reset();
  EXPECT_TRUE(Tracer::Global().Snapshot().empty());
  EXPECT_EQ(Tracer::Dropped(), 0u);
  record(1);
  EXPECT_EQ(Tracer::Global().Snapshot().size(), 1u);
}

/// End-to-end: a census run populates matcher + engine metrics and phase
/// spans, for both the CN and the GQL matcher, whether it matches the whole
/// graph or inside each extracted region.
TEST_F(ObsRuntimeTest, CensusPopulatesMetricsForBothMatchers) {
  GeneratorOptions gen;
  gen.num_nodes = 200;
  gen.edges_per_node = 5;
  gen.num_labels = 1;
  gen.seed = 11;
  Graph graph = GeneratePreferentialAttachment(gen);
  Pattern pattern = MakeTriangle(false);
  auto focal = AllNodes(graph);

  CensusOptions options;
  options.algorithm = CensusAlgorithm::kPtBas;
  // This test observes the matchers' metrics, so the fast path (which
  // skips matching entirely) must not take the census.
  options.fast_path = FastPathMode::kOff;
  options.k = 1;

  auto cn = RunCensus(graph, pattern, focal, options);
  ASSERT_TRUE(cn.ok());
  ASSERT_GT(cn->stats.num_matches, 0u);  // metrics below depend on matches
  MetricsSnapshot cn_snap = Registry::Global().Snapshot();
  EXPECT_GT(cn_snap.histograms.at("match/cn/candidate_set_size").count, 0u);
  EXPECT_GT(cn_snap.histograms.at("census/neighborhood_size").count, 0u);
  EXPECT_EQ(cn_snap.counters.at("census/pt-bas/num_matches"),
            cn->stats.num_matches);

  Registry::Global().Reset();
  options.use_gql_matcher = true;
  auto gql = RunCensus(graph, pattern, focal, options);
  ASSERT_TRUE(gql.ok());
  MetricsSnapshot gql_snap = Registry::Global().Snapshot();
  EXPECT_GT(gql_snap.histograms.at("match/gql/candidate_set_size").count, 0u);
  EXPECT_EQ(gql_snap.histograms.count("match/cn/candidate_set_size"), 0u);

  // Same matches either way (GQL is the baseline matcher, not an
  // approximation), and the census phases appear as spans.
  EXPECT_EQ(gql->stats.num_matches, cn->stats.num_matches);
  EXPECT_EQ(gql->counts, cn->counts);
  bool saw_match = false;
  bool saw_count = false;
  for (const auto& span : Tracer::Global().Snapshot()) {
    if (std::string(span.name) == "census/match") saw_match = true;
    if (std::string(span.name) == "census/count") saw_count = true;
  }
  EXPECT_TRUE(saw_match);
  EXPECT_TRUE(saw_count);

  // Whole-pattern ND-BAS, single node and pairwise, matches inside each
  // extracted region instead of the whole graph, and so does a maintained
  // census's batch; the choice reaches that matcher too.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId n = 0; n + 1 < graph.NumNodes(); n += 2) {
    pairs.emplace_back(n, n + 1);
  }
  auto samples = [](const char* name) -> std::uint64_t {
    MetricsSnapshot snap = Registry::Global().Snapshot();
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0 : it->second.count;
  };
  using Run = std::function<std::vector<std::uint64_t>(bool)>;
  const std::pair<const char*, Run> region_matchers[] = {
      {"nd-bas",
       [&](bool use_gql) {
         CensusOptions nd = options;
         nd.algorithm = CensusAlgorithm::kNdBas;
         nd.use_gql_matcher = use_gql;
         auto r = RunCensus(graph, pattern, focal, nd);
         EXPECT_TRUE(r.ok());
         return r.ok() ? r->counts : std::vector<std::uint64_t>{};
       }},
      {"pairwise nd-bas",
       [&](bool use_gql) {
         PairwiseCensusOptions pairwise;
         pairwise.k = 1;
         pairwise.use_gql_matcher = use_gql;
         auto r = RunPairwiseNdBas(graph, pattern, pairs, pairwise);
         EXPECT_TRUE(r.ok());
         return r.ok() ? *r : std::vector<std::uint64_t>{};
       }},
      {"maintained batch", [&](bool use_gql) {
         DynamicGraph dynamic(graph);
         CensusOptions maintained = options;
         maintained.use_gql_matcher = use_gql;
         auto census = IncrementalCensus::Create(&dynamic, pattern, maintained);
         EXPECT_TRUE(census.ok());
         if (!census.ok()) return std::vector<std::uint64_t>{};
         // Only the batch's matching is observed, not the initial census.
         Registry::Global().Reset();
         const std::vector<GraphUpdate> updates = {
             GraphUpdate::AddEdge(150, 199), GraphUpdate::AddEdge(0, 199),
             GraphUpdate::RemoveEdge(0, 1), GraphUpdate::AddNode()};
         EXPECT_TRUE(census->ApplyBatch(updates).ok());
         return census->counts();
       }}};
  for (const auto& [name, run] : region_matchers) {
    SCOPED_TRACE(name);
    Registry::Global().Reset();
    const std::vector<std::uint64_t> cn_counts = run(false);
    EXPECT_GT(samples("match/cn/candidate_set_size"), 0u);
    EXPECT_EQ(samples("match/gql/candidate_set_size"), 0u);

    Registry::Global().Reset();
    const std::vector<std::uint64_t> gql_counts = run(true);
    EXPECT_GT(samples("match/gql/candidate_set_size"), 0u);
    EXPECT_EQ(samples("match/cn/candidate_set_size"), 0u);
    EXPECT_EQ(gql_counts, cn_counts);
  }
}

TEST_F(ObsRuntimeTest, ParallelCensusRecordsWorkerSpansAndPoolCounters) {
  GeneratorOptions gen;
  gen.num_nodes = 400;
  gen.edges_per_node = 4;
  gen.num_labels = 1;
  gen.seed = 5;
  Graph graph = GeneratePreferentialAttachment(gen);
  Pattern pattern = MakeTriangle(false);
  auto focal = AllNodes(graph);

  CensusOptions options;
  options.algorithm = CensusAlgorithm::kNdBas;
  options.k = 1;
  options.num_threads = 4;
  auto parallel = RunCensus(graph, pattern, focal, options);
  ASSERT_TRUE(parallel.ok());

  MetricsSnapshot snap = Registry::Global().Snapshot();
  // Every chunk is either owned or stolen; together they cover the job.
  std::uint64_t chunks = snap.counters.at("pool/chunks_own");
  auto stolen = snap.counters.find("pool/chunks_stolen");
  if (stolen != snap.counters.end()) chunks += stolen->second;
  EXPECT_EQ(snap.histograms.at("pool/chunks_per_worker").sum, chunks);

  std::uint64_t workers_seen = 0;
  for (const auto& span : Tracer::Global().Snapshot()) {
    if (std::string(span.name) == "pool/worker") ++workers_seen;
  }
  EXPECT_EQ(workers_seen, 4u);

  // Parallel instrumentation observes, never perturbs: counts match a
  // serial run with observability off.
  obs::SetEnabled(false);
  options.num_threads = 1;
  auto serial = RunCensus(graph, pattern, focal, options);
  obs::SetEnabled(true);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(parallel->counts, serial->counts);
}

}  // namespace
}  // namespace egocensus
