#ifndef EGOCENSUS_LANG_ENGINE_H_
#define EGOCENSUS_LANG_ENGINE_H_

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "census/census.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "graph/profile_index.h"
#include "lang/analyzer.h"
#include "lang/ast.h"
#include "lang/result_table.h"
#include "util/status.h"

namespace egocensus {

/// The expensive per-graph indexes a QueryEngine consults: the node profile
/// index (matcher candidate filtering), the 24-degree-center distance index
/// (PT-OPT seeding/clustering) and the per-label totals the census plan
/// prices match steps with. Building them costs O(V + C*(V+E));
/// a long-running service builds them once per resident graph and hands a
/// const pointer to every per-request engine, so concurrent requests share
/// the indexes without sharing any mutable engine state (the daemon's
/// re-entrancy model, docs/SERVER.md). Immutable after Build.
struct GraphIndexes {
  ProfileIndex profiles;
  CenterDistanceIndex centers;
  LabelTotals labels;

  static GraphIndexes Build(const Graph& graph);
};

/// Result column names of `query`, in SELECT order: `ID` (`<alias>.ID` in
/// pairwise queries) and `COUNTP(p,k)` / `COUNTSP(s,p,k)`.
std::vector<std::string> ColumnNames(const Query& query);

/// Sorts `table` by the query's ORDER BY ordinals, then applies its LIMIT.
void ApplyOrderByLimit(const Query& query, ResultTable* table);

/// One engine the census plan priced, in the units of the census counters:
/// the matches its match step materializes (num_matches), the ball nodes
/// its counting phase visits (nodes_expanded), and `cost`, the weighted
/// work (about nanoseconds on the calibration host) the plan compares.
struct EngineEstimate {
  CensusAlgorithm algorithm = CensusAlgorithm::kNdBas;
  double matches = 0;
  double expanded = 0;
  double cost = 0;
};

/// What PlanCensus decided for one aggregate: the options its census runs
/// with, whether the fast path answers it, a one-line reason, and, when the
/// cost rule chose the engine, the balls it sampled and the estimates it
/// compared (cheapest first).
struct CensusPlan {
  CensusOptions census;
  bool fast_path = false;
  std::string reason;
  std::uint32_t sampled_balls = 0;
  double mean_ball = 0;  // mean |S(n, k)| over the sampled balls
  std::vector<EngineEstimate> estimates;

  /// "fastpath" or the engine's lower-case name ("nd-bas", ...), as in the
  /// census/<engine>/ counters.
  std::string EngineName() const;
};

/// What one census aggregate of a query did: its plan, its census's stats,
/// its exec status and the per-focal completion tally. A governed query
/// that hits its deadline or budget still produces a table; this is where
/// callers learn it is partial and how partial.
struct AggregateExec {
  CensusPlan plan;
  CensusStats stats;
  Status status;  // OK, or kDeadlineExceeded/kResourceExhausted/kCancelled
  std::uint64_t complete = 0;  // focal nodes with exact counts
  std::uint64_t approx = 0;    // focal nodes with degraded estimates
  std::uint64_t pending = 0;   // focal nodes with lower-bound counts
  bool interrupted() const { return !status.ok(); }
};

/// What one query did: its result table and one AggregateExec per census
/// aggregate, in SELECT order. Pairwise queries report no aggregates: a
/// stopped pairwise census makes the query fail with the governor's status
/// instead of returning a table.
struct QueryRun {
  ResultTable table;
  std::vector<AggregateExec> aggregates;

  /// The aggregates summed: stats merged by CensusStats::Merge, focal
  /// tallies added, and the first non-OK status (the CLI exits non-zero on
  /// it even though the run produced a partial table). A run without
  /// aggregates is OK and used no threads.
  [[nodiscard]] AggregateExec Total() const;
};

/// Executes pattern census queries against a graph: parse -> analyze ->
/// plan (PlanCensus, per aggregate) -> evaluate, returning what ran as a
/// QueryRun.
///
/// Pairwise result contract: rows are emitted only for ordered pairs
/// (n1, n2), n1 != n2, with a nonzero count for at least one aggregate that
/// satisfy the WHERE clause; zero-count pairs and the diagonal are omitted
/// (the cross product is quadratic, and censuses are consumed top-K).
class QueryEngine {
 public:
  explicit QueryEngine(const Graph& graph) : graph_(graph) {}

  /// Engine borrowing pre-built shared indexes instead of lazily building
  /// its own. `shared` (and `graph`) must outlive the engine and must have
  /// been built over this exact graph. One engine still serves one request
  /// at a time (its lazy index caches are unsynchronized); re-entrancy
  /// comes from constructing one cheap engine per request over the same
  /// shared indexes.
  QueryEngine(const Graph& graph, const GraphIndexes* shared)
      : graph_(graph), shared_indexes_(shared) {}

  /// Registers a library pattern usable by name in queries (inline PATTERN
  /// blocks shadow registered ones). The pattern must be prepared.
  void RegisterPattern(Pattern pattern) {
    registered_.push_back(std::move(pattern));
  }

  struct Options {
    /// Every census the query runs, as PlanCensus adapts it per aggregate;
    /// pairwise aggregates take its CensusCommon and PtOptions slices, so
    /// one governor stops both.
    CensusOptions census;
    /// False once a request pins `census.algorithm`; true lets the plan
    /// step pick each aggregate's engine.
    bool auto_algorithm = true;
    /// Seed for WHERE RND() draws (deterministic per node scan order).
    std::uint64_t rnd_seed = 99;
  };

  /// Parses, analyzes, plans and evaluates `query_text`.
  [[nodiscard]] Result<QueryRun> RunQuery(std::string_view query_text,
                                          const Options& options);

  /// RunQuery's result table alone.
  [[nodiscard]] Result<ResultTable> Execute(std::string_view query_text,
                                            const Options& options);
  [[nodiscard]] Result<ResultTable> Execute(std::string_view query_text) {
    return Execute(query_text, Options());
  }
  [[nodiscard]] Result<ResultTable> ExecuteParsed(const Query& query,
                                                  const Options& options);

 private:
  [[nodiscard]] Result<QueryRun> RunParsed(const Query& query,
                                           const Options& options);
  [[nodiscard]] Result<QueryRun> RunSingle(const AnalyzedQuery& analyzed,
                                           const Options& options);
  [[nodiscard]] Result<QueryRun> RunPairwise(const AnalyzedQuery& analyzed,
                                             const Options& options);

  /// Lazily built per-graph indexes, shared across queries on this engine:
  /// the node profile index (matcher candidate filtering), a
  /// 24-degree-center distance index (PT-OPT seeding/clustering) and the
  /// per-label totals (the census plan).
  const ProfileIndex& CachedProfiles();
  const CenterDistanceIndex& CachedCenters();
  const LabelTotals& CachedLabels();

  const Graph& graph_;
  const GraphIndexes* shared_indexes_ = nullptr;
  std::vector<Pattern> registered_;
  std::optional<ProfileIndex> profiles_cache_;
  std::optional<CenterDistanceIndex> centers_cache_;
  std::optional<LabelTotals> labels_cache_;
};

/// The plan step for single-node, pairwise and maintained censuses alike:
/// the census that evaluates aggregate `item` over `focal` in `graph` under
/// the query-wide `options`. It sets the aggregate's radius k and COUNTSP
/// subpattern, then picks what runs it:
///  - the fast path, for every census it can answer (an eligible <= 4-node
///    shape under fast_path auto or force), before any sampling. It runs
///    no match step, and on the ledger's templates, the whole-graph
///    triangle at k = 2 among them, no pinned engine is faster
///    (docs/FAST_PATH.md, "Routing");
///  - the request's engine, when it pinned `algorithm`;
///  - otherwise the cheapest of ND-BAS, ND-PVOT and PT-BAS by a cost rule
///    (Fig. 4(e): node-driven work grows with |focal| and the ball volume,
///    pattern-driven work is the match step plus a count over the matches).
///    It prices each from |focal|, the resolved thread count, the k-balls
///    of at most 16 evenly spaced focal nodes, `labels` (the graph's
///    per-label totals) and the pattern, and passes fast_path off so
///    RunCensus runs the engine it chose.
/// PT-OPT, PT-RND and ND-DIFF run only when pinned. Pairwise censuses take
/// only the plan's CensusCommon and PtOptions slices.
CensusPlan PlanCensus(const AnalyzedQuery::CountItem& item,
                      const QueryEngine::Options& options, const Graph& graph,
                      std::span<const NodeId> focal,
                      const LabelTotals& labels);

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_ENGINE_H_
