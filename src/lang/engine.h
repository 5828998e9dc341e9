#ifndef EGOCENSUS_LANG_ENGINE_H_
#define EGOCENSUS_LANG_ENGINE_H_

#include <optional>
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
/// index (matcher candidate filtering) and the 24-degree-center distance
/// index (PT-OPT seeding/clustering). Building them costs O(V + C*(V+E));
/// a long-running service builds them once per resident graph and hands a
/// const pointer to every per-request engine, so concurrent requests share
/// the indexes without sharing any mutable engine state (the daemon's
/// re-entrancy model, docs/SERVER.md). Immutable after Build.
struct GraphIndexes {
  ProfileIndex profiles;
  CenterDistanceIndex centers;

  static GraphIndexes Build(const Graph& graph);
};

/// Result column names of `query`, in SELECT order: `ID` (`<alias>.ID` in
/// pairwise queries) and `COUNTP(p,k)` / `COUNTSP(s,p,k)`.
std::vector<std::string> ColumnNames(const Query& query);

/// Sorts `table` by the query's ORDER BY ordinals, then applies its LIMIT.
void ApplyOrderByLimit(const Query& query, ResultTable* table);

/// Executes pattern census queries against a graph: parse -> analyze ->
/// plan (algorithm selection) -> evaluate.
///
/// Planning: with `auto_algorithm` (default) single-node censuses use
/// AutoCensusAlgorithm (census/census.h); pairwise censuses always use the
/// pattern-driven evaluator. Setting auto_algorithm=false uses
/// census_options.algorithm verbatim.
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
  /// at a time (Execute mutates last_stats_/last_exec_); re-entrancy comes
  /// from constructing one cheap engine per request over the same shared
  /// indexes.
  QueryEngine(const Graph& graph, const GraphIndexes* shared)
      : graph_(graph), shared_indexes_(shared) {}

  /// Registers a library pattern usable by name in queries (inline PATTERN
  /// blocks shadow registered ones). The pattern must be prepared.
  void RegisterPattern(Pattern pattern) {
    registered_.push_back(std::move(pattern));
  }

  struct Options {
    /// Every census the query runs; pairwise aggregates take its
    /// CensusCommon and PtOptions slices, so one governor stops both.
    CensusOptions census;
    bool auto_algorithm = true;
    /// Seed for WHERE RND() draws (deterministic per node scan order).
    std::uint64_t rnd_seed = 99;
  };

  /// Execution outcome of one census aggregate of the last single-table
  /// query: its exec status plus the per-focal completion tally. A governed
  /// query that hits its deadline/budget still produces a table; this is
  /// where callers learn it is partial and how partial.
  struct AggregateExec {
    Status status;  // OK, or kDeadlineExceeded/kResourceExhausted/kCancelled
    std::uint64_t complete = 0;  // focal nodes with exact counts
    std::uint64_t approx = 0;    // focal nodes with degraded estimates
    std::uint64_t pending = 0;   // focal nodes with lower-bound counts
    bool interrupted() const { return !status.ok(); }
  };

  [[nodiscard]] Result<ResultTable> Execute(std::string_view query_text,
                              const Options& options);
  [[nodiscard]] Result<ResultTable> Execute(std::string_view query_text) {
    return Execute(query_text, Options());
  }
  [[nodiscard]] Result<ResultTable> ExecuteParsed(const Query& query,
                                    const Options& options);
  [[nodiscard]] Result<ResultTable> ExecuteParsed(const Query& query) {
    return ExecuteParsed(query, Options());
  }

  /// Census statistics of the aggregates of the last single-table query, in
  /// SELECT order.
  const std::vector<CensusStats>& last_stats() const { return last_stats_; }

  /// Execution outcomes of the aggregates of the last single-table query,
  /// in SELECT order (empty for pairwise queries: a stopped pairwise census
  /// makes Execute return the governor's status instead of a table).
  const std::vector<AggregateExec>& last_exec() const { return last_exec_; }

  /// First non-OK aggregate exec status of the last query, or OK. The CLI
  /// exits non-zero on this even though Execute returned a (partial) table.
  [[nodiscard]] Status last_exec_status() const {
    for (const AggregateExec& exec : last_exec_) {
      if (!exec.status.ok()) return exec.status;
    }
    return Status::Ok();
  }

 private:
  [[nodiscard]] Result<ResultTable> ExecuteSingle(const AnalyzedQuery& analyzed,
                                    const Options& options);
  [[nodiscard]] Result<ResultTable> ExecutePairwise(const AnalyzedQuery& analyzed,
                                      const Options& options);

  /// Lazily built per-graph indexes, shared across queries on this engine:
  /// the node profile index (matcher candidate filtering) and a
  /// 24-degree-center distance index (PT-OPT seeding/clustering).
  const ProfileIndex& CachedProfiles();
  const CenterDistanceIndex& CachedCenters();

  const Graph& graph_;
  const GraphIndexes* shared_indexes_ = nullptr;
  std::vector<Pattern> registered_;
  std::vector<CensusStats> last_stats_;
  std::vector<AggregateExec> last_exec_;
  std::optional<ProfileIndex> profiles_cache_;
  std::optional<CenterDistanceIndex> centers_cache_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_ENGINE_H_
