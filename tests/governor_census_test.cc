// Governed census execution: partial results, per-focal completion state,
// degradation, and the deterministic cancel-at-checkpoint-#i failpoint
// sweep. The sweep is the core robustness contract: for EVERY checkpoint i
// (strided) of all six engines, and of ND-BAS's subpattern path, at 1 and
// 8 threads, cancelling at exactly checkpoint i must (a) not crash or leak
// (this binary runs under ASan and TSan in CI), (b) leave every kComplete
// focal count bit-identical to the uninterrupted run, and (c) report
// accurate partial-result flags. Top-K and the four pairwise engines,
// which stop all or nothing, must return CANCELLED at every checkpoint and
// the ungoverned result when the cancel comes after the last.

#include "census/census.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "census/pairwise.h"
#include "census/topk.h"
#include "dynamic/dynamic_graph.h"
#include "dynamic/incremental_census.h"
#include "exec/failpoints.h"
#include "exec/governor.h"
#include "graph/generators.h"
#include "match/cn_matcher.h"
#include "pattern/catalog.h"
#include "pattern/pattern_parser.h"
#include "tests/test_util.h"
#include "util/parallel_for.h"

namespace egocensus {
namespace {

using testing::MakeGraph;

/// This file exercises the generic engines' governance contracts (their
/// checkpoint sites, charge sizes, and all-or-nothing semantics), so the
/// fast path — which would otherwise take these small unlabeled patterns —
/// is pinned off. Its own governed sweeps live in fastpath_property_test.
CensusOptions GenericOptions() {
  CensusOptions opts;
  opts.fast_path = FastPathMode::kOff;
  return opts;
}

Graph SweepGraph() {
  GeneratorOptions gen;
  gen.num_nodes = 120;
  gen.edges_per_node = 3;
  gen.seed = 17;
  return GeneratePreferentialAttachment(gen);
}

/// The per-unit-of-work failpoint of an algorithm: ND engines checkpoint
/// per focal node, PT engines per match cluster.
const char* CheckpointSite(CensusAlgorithm algorithm) {
  switch (algorithm) {
    case CensusAlgorithm::kPtBas:
    case CensusAlgorithm::kPtOpt:
    case CensusAlgorithm::kPtRnd:
      return "census/cluster";
    default:
      return "census/focal";
  }
}

class GovernorCensusTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(GovernorCensusTest, UngovernedRunMarksEveryFocalComplete) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  for (auto algorithm :
       {CensusAlgorithm::kNdBas, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kNdPvot, CensusAlgorithm::kPtBas,
        CensusAlgorithm::kPtOpt, CensusAlgorithm::kPtRnd}) {
    SCOPED_TRACE(CensusAlgorithmName(algorithm));
    CensusOptions opts = GenericOptions();
    opts.algorithm = algorithm;
    opts.k = 2;
    auto r = RunCensus(g, tri, focal, opts);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->complete());
    ASSERT_EQ(r->focal_state.size(), g.NumNodes());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_EQ(r->focal_state[n], FocalState::kComplete);
    }
  }
}

TEST_F(GovernorCensusTest, ExpiredDeadlineReturnsPartialResult) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  for (auto algorithm :
       {CensusAlgorithm::kNdBas, CensusAlgorithm::kNdDiff,
        CensusAlgorithm::kNdPvot, CensusAlgorithm::kPtBas,
        CensusAlgorithm::kPtOpt}) {
    Governor gov;
    gov.SetDeadline(Deadline::AtMicros(1));  // long past
    CensusOptions opts = GenericOptions();
    opts.algorithm = algorithm;
    opts.k = 2;
    opts.governor = &gov;
    auto r = RunCensus(g, tri, focal, opts);
    // Partial result as a VALUE, not an error.
    ASSERT_TRUE(r.ok()) << CensusAlgorithmName(algorithm);
    EXPECT_EQ(r->exec_status.code(), StatusCode::kDeadlineExceeded)
        << CensusAlgorithmName(algorithm);
    EXPECT_FALSE(r->complete());
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_EQ(r->focal_state[n], FocalState::kPending);
      EXPECT_EQ(r->counts[n], 0u);
    }
  }
}

TEST_F(GovernorCensusTest, TinyMemoryBudgetStopsWithResourceExhausted) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  gov.SetMemoryLimitBytes(64);  // smaller than any candidate set charge
  CensusOptions opts = GenericOptions();
  opts.algorithm = CensusAlgorithm::kNdBas;
  opts.k = 2;
  opts.governor = &gov;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(gov.memory_charged_bytes(), 64u);
}

TEST_F(GovernorCensusTest, PairwisePtResultIsChargedToTheBudget) {
  // Tens of thousands of covered pairs outgrow a 256 KiB budget although
  // the engines' per-unit scratch fits it: the PairCounts result is
  // charged too. Without a limit the pairs are the ungoverned ones.
  GeneratorOptions gen;
  gen.num_nodes = 400;
  gen.edges_per_node = 3;
  gen.seed = 5;
  Graph g = GeneratePreferentialAttachment(gen);
  Pattern edge = MakeSingleEdge();
  using Engine = Result<PairCounts> (*)(const Graph&, const Pattern&,
                                        const PairwiseCensusOptions&);
  for (Engine engine : {&RunPairwisePtBas, &RunPairwisePtOpt}) {
    for (auto neighborhood :
         {PairNeighborhood::kIntersection, PairNeighborhood::kUnion}) {
      PairwiseCensusOptions opts;
      opts.k = 2;
      opts.neighborhood = neighborhood;
      auto ungoverned = engine(g, edge, opts);
      ASSERT_TRUE(ungoverned.ok()) << ungoverned.status().ToString();

      Governor unlimited;
      opts.governor = &unlimited;
      auto unlimited_pairs = engine(g, edge, opts);
      ASSERT_TRUE(unlimited_pairs.ok());
      EXPECT_EQ(*unlimited_pairs, *ungoverned);

      Governor budget;
      budget.SetMemoryLimitBytes(256 << 10);
      opts.governor = &budget;
      auto limited = engine(g, edge, opts);
      ASSERT_FALSE(limited.ok());
      EXPECT_EQ(limited.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST_F(GovernorCensusTest, DegradeToApproxCoversInterruptedFocals) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  gov.SetDeadline(Deadline::AtMicros(1));
  CensusOptions opts = GenericOptions();
  opts.algorithm = CensusAlgorithm::kNdPvot;
  opts.k = 2;
  opts.governor = &gov;
  opts.degrade_to_approx = true;
  opts.degrade_sample_rate = 1.0;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  // Still reported as interrupted — estimates are not exact results...
  EXPECT_EQ(r->exec_status.code(), StatusCode::kDeadlineExceeded);
  // ...but no focal is left as a hole: every unfinished one is re-covered.
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_NE(r->focal_state[n], FocalState::kPending) << n;
  }
}

TEST_F(GovernorCensusTest, ExplicitCancelDoesNotDegrade) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  gov.RequestCancel();  // the user asked out: degradation must not run
  CensusOptions opts = GenericOptions();
  opts.algorithm = CensusAlgorithm::kNdPvot;
  opts.k = 2;
  opts.governor = &gov;
  opts.degrade_to_approx = true;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kCancelled);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_NE(r->focal_state[n], FocalState::kApprox);
  }
}

TEST_F(GovernorCensusTest, CancelAtEveryCheckpointSweep) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  // COUNTSP: ND-BAS counts the global match set instead of matching inside
  // each ball.
  auto tri_edge = ParsePattern(
      "PATTERN tri {?A-?B; ?B-?C; ?C-?A; SUBPATTERN edge {?A; ?B;}}");
  ASSERT_TRUE(tri_edge.ok()) << tri_edge.status().ToString();
  auto focal = AllNodes(g);
  struct Case {
    CensusAlgorithm algorithm;
    const char* subpattern;
  };
  for (const Case& c : {Case{CensusAlgorithm::kNdBas, ""},
                        Case{CensusAlgorithm::kNdBas, "edge"},
                        Case{CensusAlgorithm::kNdPvot, ""},
                        Case{CensusAlgorithm::kNdDiff, ""},
                        Case{CensusAlgorithm::kPtBas, ""},
                        Case{CensusAlgorithm::kPtOpt, ""},
                        Case{CensusAlgorithm::kPtRnd, ""}}) {
    const CensusAlgorithm algorithm = c.algorithm;
    const Pattern& pattern = *c.subpattern == '\0' ? tri : *tri_edge;
    const char* site = CheckpointSite(algorithm);
    for (std::uint32_t threads : {1u, 8u}) {
      CensusOptions opts = GenericOptions();
      opts.algorithm = algorithm;
      opts.k = 2;
      opts.num_threads = threads;
      opts.subpattern = c.subpattern;

      // Uninterrupted reference run (the bit-identity oracle).
      auto baseline = RunCensus(g, pattern, focal, opts);
      ASSERT_TRUE(baseline.ok());
      ASSERT_TRUE(baseline->complete());

      // Observe pass: count how many times the site is hit end-to-end.
      failpoints::Arm(site, 0, nullptr);
      {
        Governor gov;
        CensusOptions governed = opts;
        governed.governor = &gov;
        ASSERT_TRUE(RunCensus(g, pattern, focal, governed).ok());
      }
      const std::uint64_t hits = failpoints::Hits(site);
      failpoints::DisarmAll();
      ASSERT_GT(hits, 0u) << CensusAlgorithmName(algorithm);

      // Cancel at checkpoint #i for all i (strided to bound test time).
      const std::uint64_t stride = std::max<std::uint64_t>(1, hits / 20);
      for (std::uint64_t i = 1; i <= hits; i += stride) {
        SCOPED_TRACE(std::string(CensusAlgorithmName(algorithm)) + " " +
                     c.subpattern + " threads=" + std::to_string(threads) +
                     " cancel@" + std::to_string(i) + "/" +
                     std::to_string(hits));
        Governor gov;
        failpoints::Arm(site, i, [&gov] { gov.RequestCancel(); });
        CensusOptions governed = opts;
        governed.governor = &gov;
        auto r = RunCensus(g, pattern, focal, governed);
        failpoints::DisarmAll();
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r->exec_status.code(), StatusCode::kCancelled);
        EXPECT_FALSE(r->complete());
        std::size_t pending = 0;
        for (NodeId n = 0; n < g.NumNodes(); ++n) {
          switch (r->focal_state[n]) {
            case FocalState::kComplete:
              // The invariant: a flag saying "complete" means the count is
              // bit-identical to the uninterrupted run.
              EXPECT_EQ(r->counts[n], baseline->counts[n]) << "node " << n;
              break;
            case FocalState::kPending:
              ++pending;
              EXPECT_LE(r->counts[n], baseline->counts[n]) << "node " << n;
              break;
            case FocalState::kApprox:
              ADD_FAILURE() << "unexpected kApprox at node " << n;
              break;
          }
        }
        // The focal/cluster whose checkpoint observed the cancel was not
        // recorded, so at least one unit is pending.
        EXPECT_GE(pending, 1u);
      }

      // Arming past the last hit: the run completes untouched.
      {
        Governor gov;
        failpoints::Arm(site, hits + 1, [&gov] { gov.RequestCancel(); });
        CensusOptions governed = opts;
        governed.governor = &gov;
        auto r = RunCensus(g, pattern, focal, governed);
        failpoints::DisarmAll();
        ASSERT_TRUE(r.ok());
        EXPECT_TRUE(r->complete());
        EXPECT_EQ(r->counts, baseline->counts);
      }
    }
  }
}

/// A pairwise result in one comparable form: the sorted (pair, count)
/// entries.
std::vector<std::uint64_t> Flatten(const PairCounts& counts) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries(
      counts.begin(), counts.end());
  std::sort(entries.begin(), entries.end());
  std::vector<std::uint64_t> flat;
  for (const auto& [pair, count] : entries) {
    flat.push_back(pair);
    flat.push_back(count);
  }
  return flat;
}

// The other census entry points stop all or nothing: cancelling at any hit
// of their unit failpoint returns CANCELLED, and arming past the last hit
// returns the ungoverned result.
TEST_F(GovernorCensusTest, CancelAtEveryCheckpointSweepOfTopKAndPairwise) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto tri_edge = ParsePattern(
      "PATTERN tri {?A-?B; ?B-?C; ?C-?A; SUBPATTERN edge {?A; ?B;}}");
  ASSERT_TRUE(tri_edge.ok()) << tri_edge.status().ToString();
  auto focal = AllNodes(g);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId n = 0; n + 7 < g.NumNodes(); n += 3) pairs.emplace_back(n, n + 7);

  using Run = std::function<Result<std::vector<std::uint64_t>>(Governor*)>;
  struct Case {
    std::string name;
    const char* site;
    Run run;
  };
  std::vector<Case> cases;
  struct Query {
    const Pattern* pattern;
    const char* subpattern;
  };
  for (const Query& q : {Query{&tri, ""}, Query{&*tri_edge, "edge"}}) {
    const Pattern& pattern = *q.pattern;
    const std::string subpattern = q.subpattern;
    cases.push_back(
        {"top-k " + subpattern, "census/focal", [&, subpattern](Governor* gov)
             -> Result<std::vector<std::uint64_t>> {
           TopKOptions opts;
           opts.k = 2;
           opts.subpattern = subpattern;
           opts.governor = gov;
           auto r = RunTopKCensus(g, pattern, focal, opts);
           if (!r.ok()) return r.status();
           std::vector<std::uint64_t> flat;
           for (const auto& [n, count] : r->top) {
             flat.push_back(n);
             flat.push_back(count);
           }
           return flat;
         }});
    for (auto neighborhood :
         {PairNeighborhood::kIntersection, PairNeighborhood::kUnion}) {
      PairwiseCensusOptions opts;
      opts.k = 2;
      opts.subpattern = subpattern;
      opts.neighborhood = neighborhood;
      const std::string suffix =
          subpattern + (neighborhood == PairNeighborhood::kUnion ? " union"
                                                                 : " inter");
      auto governed = [opts](Governor* gov) {
        PairwiseCensusOptions o = opts;
        o.governor = gov;
        return o;
      };
      cases.push_back({"pt-opt " + suffix, "census/cluster",
                       [&, governed](Governor* gov)
                           -> Result<std::vector<std::uint64_t>> {
                         auto r = RunPairwisePtOpt(g, pattern, governed(gov));
                         if (!r.ok()) return r.status();
                         return Flatten(*r);
                       }});
      cases.push_back({"pt-bas " + suffix, "census/cluster",
                       [&, governed](Governor* gov)
                           -> Result<std::vector<std::uint64_t>> {
                         auto r = RunPairwisePtBas(g, pattern, governed(gov));
                         if (!r.ok()) return r.status();
                         return Flatten(*r);
                       }});
      cases.push_back({"nd-bas " + suffix, "census/focal",
                       [&, governed](Governor* gov) {
                         return RunPairwiseNdBas(g, pattern, pairs,
                                                 governed(gov));
                       }});
      cases.push_back({"nd-pvot " + suffix, "census/focal",
                       [&, governed](Governor* gov) {
                         return RunPairwiseNdPvot(g, pattern, pairs,
                                                  governed(gov));
                       }});
    }
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto baseline = c.run(nullptr);
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

    failpoints::Arm(c.site, 0, nullptr);
    {
      Governor gov;
      ASSERT_TRUE(c.run(&gov).ok());
    }
    const std::uint64_t hits = failpoints::Hits(c.site);
    failpoints::DisarmAll();
    ASSERT_GT(hits, 0u);

    const std::uint64_t stride = std::max<std::uint64_t>(1, hits / 20);
    for (std::uint64_t i = 1; i <= hits; i += stride) {
      SCOPED_TRACE("cancel@" + std::to_string(i) + "/" +
                   std::to_string(hits));
      Governor gov;
      failpoints::Arm(c.site, i, [&gov] { gov.RequestCancel(); });
      auto r = c.run(&gov);
      failpoints::DisarmAll();
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
    }

    Governor gov;
    failpoints::Arm(c.site, hits + 1, [&gov] { gov.RequestCancel(); });
    auto r = c.run(&gov);
    failpoints::DisarmAll();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, *baseline);
  }
}

TEST_F(GovernorCensusTest, MatcherCancellationLeavesAllFocalsPending) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  // Cancel inside the global match phase (PT engines match once up front):
  // a partial match set would undercount every focal, so the engine must
  // skip counting entirely.
  failpoints::Arm("match/extend", 1, [&gov] { gov.RequestCancel(); });
  CensusOptions opts = GenericOptions();
  opts.algorithm = CensusAlgorithm::kPtOpt;
  opts.k = 2;
  opts.governor = &gov;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kCancelled);
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->focal_state[n], FocalState::kPending);
    EXPECT_EQ(r->counts[n], 0u);
  }
}

TEST_F(GovernorCensusTest, StopDuringClusteringEndsPtOptBeforeCounting) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  // PT-OPT's first checkpoints are the matcher's; the one after them is the
  // first of K-means, which clusters the matches before any is counted.
  Governor match_governor;
  MatchOptions match_options;
  match_options.governor = &match_governor;
  CnMatcher().FindMatches(g, tri, match_options);
  const std::uint64_t match_checkpoints = match_governor.checkpoints();

  for (auto algorithm : {CensusAlgorithm::kPtOpt, CensusAlgorithm::kPtRnd}) {
    SCOPED_TRACE(CensusAlgorithmName(algorithm));
    CensusOptions opts = GenericOptions();
    opts.algorithm = algorithm;
    opts.k = 2;
    auto baseline = RunCensus(g, tri, focal, opts);
    ASSERT_TRUE(baseline.ok());

    // A governor that never stops leaves the clustering, and so the
    // traversal counters, exactly as ungoverned.
    Governor idle;
    opts.governor = &idle;
    auto governed = RunCensus(g, tri, focal, opts);
    ASSERT_TRUE(governed.ok());
    EXPECT_EQ(governed->counts, baseline->counts);
    EXPECT_EQ(governed->stats.nodes_expanded, baseline->stats.nodes_expanded);
    EXPECT_EQ(governed->stats.reinsertions, baseline->stats.reinsertions);

    Governor gov;
    failpoints::Arm("exec/checkpoint", match_checkpoints + 1,
                    [&gov] { gov.RequestCancel(); });
    failpoints::Arm("census/cluster", 0, nullptr);
    opts.governor = &gov;
    auto r = RunCensus(g, tri, focal, opts);
    const std::uint64_t clusters_entered = failpoints::Hits("census/cluster");
    failpoints::DisarmAll();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->exec_status.code(), StatusCode::kCancelled);
    EXPECT_EQ(clusters_entered, 0u)
        << "the stop must end the census inside K-means";
    for (NodeId n = 0; n < g.NumNodes(); ++n) {
      EXPECT_EQ(r->focal_state[n], FocalState::kPending);
      EXPECT_EQ(r->counts[n], 0u);
    }
  }
}

TEST_F(GovernorCensusTest, BudgetExhaustionMidMergeIsAllOrNothing) {
  Graph g = SweepGraph();
  Pattern tri = MakeTriangle(false);
  auto focal = AllNodes(g);
  Governor gov;
  gov.SetMemoryLimitBytes(1ull << 30);
  // Blow the budget at the first merge step: PT completion is
  // all-or-nothing, so every focal must stay pending (counts are lower
  // bounds) even though most of the counting work finished.
  failpoints::Arm("census/merge", 1,
                  [&gov] { gov.ChargeMemory(1ull << 31); });
  CensusOptions opts = GenericOptions();
  opts.algorithm = CensusAlgorithm::kPtOpt;
  opts.k = 2;
  opts.num_threads = 4;
  opts.governor = &gov;
  auto r = RunCensus(g, tri, focal, opts);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec_status.code(), StatusCode::kResourceExhausted);
  CensusOptions ungoverned = GenericOptions();
  ungoverned.algorithm = CensusAlgorithm::kPtOpt;
  ungoverned.k = 2;
  auto baseline = RunCensus(g, tri, focal, ungoverned);
  ASSERT_TRUE(baseline.ok());
  for (NodeId n = 0; n < g.NumNodes(); ++n) {
    EXPECT_EQ(r->focal_state[n], FocalState::kPending);
    EXPECT_LE(r->counts[n], baseline->counts[n]);
  }
}

TEST_F(GovernorCensusTest, PoolChunkCancellationPropagatesToSiblings) {
  Governor gov;
  std::atomic<std::size_t> processed{0};
  failpoints::Arm("pool/chunk", 5, [&gov] { gov.RequestCancel(); });
  // The chunk body checkpoints like every governed engine chunk does: the
  // cancel becomes a recorded stop at the next checkpoint, and the per-pop
  // stopped() check then propagates it to every sibling worker.
  ParallelFor(4, 0, 10'000, /*grain=*/1, &gov,
              [&processed, &gov](std::size_t begin, std::size_t end,
                                 unsigned) {
                if (gov.Checkpoint() != StopReason::kNone) return;
                processed.fetch_add(end - begin, std::memory_order_relaxed);
              });
  EXPECT_TRUE(gov.stopped());
  EXPECT_EQ(gov.reason(), StopReason::kCancelled);
  // With 10k single-item chunks and a cancel at chunk #5, most of the
  // range must be left unprocessed.
  EXPECT_LT(processed.load(), 10'000u);
}

TEST_F(GovernorCensusTest, DynamicBatchAbortsAtUpdateBoundary) {
  Graph g = MakeGraph(6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}});
  DynamicGraph dg(std::move(g));
  Governor gov;
  CensusOptions opts;
  opts.k = 1;
  opts.governor = &gov;
  auto census = IncrementalCensus::Create(&dg, MakeTriangle(false), opts);
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  const auto counts_before = census->counts();

  // Cancel at the third per-update checkpoint: updates 1-2 apply (prefix
  // stays applied), update 3 does not.
  failpoints::Arm("dynamic/update", 3, [&gov] { gov.RequestCancel(); });
  std::vector<GraphUpdate> updates = {
      GraphUpdate::AddEdge(3, 0),   // applies
      GraphUpdate::AddEdge(4, 2),   // applies
      GraphUpdate::AddEdge(4, 0),   // aborted
  };
  auto stats = census->ApplyBatch(updates);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);

  // The maintained counts equal a from-scratch census over the prefix.
  Graph expected = MakeGraph(
      6, {{0, 1}, {1, 2}, {2, 0}, {2, 3}, {3, 4}, {3, 0}, {4, 2}});
  CensusOptions copts = GenericOptions();
  copts.algorithm = CensusAlgorithm::kNdBas;
  copts.k = 1;
  auto reference = RunCensus(expected, MakeTriangle(false),
                             AllNodes(expected), copts);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(census->counts(), reference->counts);
  EXPECT_NE(census->counts(), counts_before);
}

TEST_F(GovernorCensusTest, DynamicExpiredDeadlineLeavesCountsUntouched) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}});
  DynamicGraph dg(std::move(g));
  Governor gov;
  CensusOptions opts;
  opts.k = 1;
  opts.governor = &gov;
  auto census = IncrementalCensus::Create(&dg, MakeTriangle(false), opts);
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  const auto counts_before = census->counts();
  // The governor also governs the initial census, so the deadline expires
  // only once the maintainer exists.
  gov.SetDeadline(Deadline::AtMicros(1));
  std::vector<GraphUpdate> updates = {GraphUpdate::AddEdge(0, 3)};
  auto stats = census->ApplyBatch(updates);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(census->counts(), counts_before);
}

}  // namespace
}  // namespace egocensus
