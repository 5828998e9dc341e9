#include "lang/engine.h"

#include <algorithm>
#include <optional>

#include "census/pairwise.h"
#include "lang/query_parser.h"
#include "lang/where_eval.h"
#include "util/rng.h"

namespace egocensus {

std::vector<std::string> ColumnNames(const Query& query) {
  std::vector<std::string> names;
  for (const auto& item : query.select) {
    if (item.kind == SelectItem::Kind::kId) {
      names.push_back(item.alias.empty() ? "ID" : item.alias + ".ID");
    } else {
      std::string name =
          item.count.count_subpattern
              ? "COUNTSP(" + item.count.subpattern + "," + item.count.pattern
              : "COUNTP(" + item.count.pattern;
      name += "," + std::to_string(item.count.neighborhood.k) + ")";
      names.push_back(std::move(name));
    }
  }
  return names;
}

void ApplyOrderByLimit(const Query& query, ResultTable* table) {
  if (!query.order_by.empty()) {
    std::vector<std::pair<std::size_t, bool>> keys;
    for (const auto& order : query.order_by) {
      keys.emplace_back(order.column - 1, order.descending);
    }
    table->SortByColumns(keys);
  }
  if (query.limit.has_value()) table->Truncate(*query.limit);
}

AggregateExec QueryRun::Total() const {
  AggregateExec total;
  total.stats.threads_used = 0;
  for (const AggregateExec& aggregate : aggregates) {
    total.stats.Merge(aggregate.stats);
    if (total.status.ok()) total.status = aggregate.status;
    total.complete += aggregate.complete;
    total.approx += aggregate.approx;
    total.pending += aggregate.pending;
  }
  return total;
}

Result<QueryRun> QueryEngine::RunQuery(std::string_view query_text,
                                       const Options& options) {
  auto query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return RunParsed(*query, options);
}

Result<ResultTable> QueryEngine::Execute(std::string_view query_text,
                                         const Options& options) {
  auto run = RunQuery(query_text, options);
  if (!run.ok()) return run.status();
  return std::move(run->table);
}

Result<ResultTable> QueryEngine::ExecuteParsed(const Query& query,
                                               const Options& options) {
  auto run = RunParsed(query, options);
  if (!run.ok()) return run.status();
  return std::move(run->table);
}

GraphIndexes GraphIndexes::Build(const Graph& graph) {
  GraphIndexes indexes;
  indexes.profiles = ProfileIndex::Build(graph);
  indexes.centers = CenterDistanceIndex::Build(
      graph, PickHighestDegreeCenters(graph, 24));
  indexes.labels = LabelTotals::Build(graph);
  return indexes;
}

const ProfileIndex& QueryEngine::CachedProfiles() {
  if (shared_indexes_ != nullptr) return shared_indexes_->profiles;
  if (!profiles_cache_.has_value()) {
    profiles_cache_ = ProfileIndex::Build(graph_);
  }
  return *profiles_cache_;
}

const CenterDistanceIndex& QueryEngine::CachedCenters() {
  if (shared_indexes_ != nullptr) return shared_indexes_->centers;
  if (!centers_cache_.has_value()) {
    centers_cache_ = CenterDistanceIndex::Build(
        graph_, PickHighestDegreeCenters(graph_, 24));
  }
  return *centers_cache_;
}

const LabelTotals& QueryEngine::CachedLabels() {
  if (shared_indexes_ != nullptr) return shared_indexes_->labels;
  if (!labels_cache_.has_value()) labels_cache_ = LabelTotals::Build(graph_);
  return *labels_cache_;
}

Result<QueryRun> QueryEngine::RunParsed(const Query& query,
                                        const Options& options) {
  auto analyzed = AnalyzeQuery(query, registered_);
  if (!analyzed.ok()) return analyzed.status();
  auto run = analyzed->pairwise ? RunPairwise(*analyzed, options)
                                : RunSingle(*analyzed, options);
  if (run.ok()) ApplyOrderByLimit(query, &run->table);
  return run;
}

Result<QueryRun> QueryEngine::RunSingle(const AnalyzedQuery& analyzed,
                                        const Options& options) {
  const Query& query = *analyzed.query;

  const std::vector<NodeId> focal =
      SelectFocal(graph_, query, options.rnd_seed);

  // Run each census aggregate.
  QueryRun run;
  std::vector<std::vector<std::uint64_t>> count_columns;
  std::vector<std::vector<FocalState>> state_columns;
  for (const auto& item : analyzed.counts) {
    CensusPlan plan = PlanCensus(item, options, graph_, focal, CachedLabels());
    // Share the engine's per-graph indexes across queries; only the
    // engines that seed from centers pay the center index's first build.
    CensusOptions census = plan.census;
    if (census.profile_index == nullptr) {
      census.profile_index = &CachedProfiles();
    }
    if (census.center_index == nullptr && !plan.fast_path &&
        (census.algorithm == CensusAlgorithm::kPtOpt ||
         census.algorithm == CensusAlgorithm::kPtRnd)) {
      census.center_index = &CachedCenters();
    }
    auto result = RunCensus(graph_, *item.pattern, focal, census);
    if (!result.ok()) return result.status();
    AggregateExec& exec = run.aggregates.emplace_back();
    exec.plan = std::move(plan);
    exec.stats = result->stats;
    exec.status = result->exec_status;
    for (NodeId n : focal) {
      switch (result->focal_state[n]) {
        case FocalState::kComplete: ++exec.complete; break;
        case FocalState::kApprox: ++exec.approx; break;
        case FocalState::kPending: ++exec.pending; break;
      }
    }
    state_columns.push_back(std::move(result->focal_state));
    count_columns.push_back(std::move(result->counts));
  }

  // Interrupted aggregates get a trailing "<aggregate>.state" string column
  // (complete / approx / pending per focal node). Trailing, not adjacent,
  // so ORDER BY ordinals and the COUNT column layout stay stable whether or
  // not the query ran to completion.
  std::vector<std::string> names = ColumnNames(query);
  std::vector<std::size_t> state_of_count;  // count idx -> interrupted or ~0
  {
    std::size_t count_idx = 0;
    for (std::size_t i = 0; i < query.select.size(); ++i) {
      if (query.select[i].kind == SelectItem::Kind::kId) continue;
      if (run.aggregates[count_idx].interrupted()) {
        state_of_count.push_back(count_idx);
        names.push_back(names[i] + ".state");
      }
      ++count_idx;
    }
  }

  ResultTable table(std::move(names));
  for (NodeId n : focal) {
    std::vector<AttributeValue> row;
    std::size_t count_idx = 0;
    for (const auto& item : query.select) {
      if (item.kind == SelectItem::Kind::kId) {
        row.emplace_back(static_cast<std::int64_t>(n));
      } else {
        row.emplace_back(
            static_cast<std::int64_t>(count_columns[count_idx][n]));
        ++count_idx;
      }
    }
    for (std::size_t idx : state_of_count) {
      row.emplace_back(std::string(FocalStateName(state_columns[idx][n])));
    }
    table.AddRow(std::move(row));
  }
  run.table = std::move(table);
  return run;
}

Result<QueryRun> QueryEngine::RunPairwise(const AnalyzedQuery& analyzed,
                                          const Options& options) {
  const Query& query = *analyzed.query;

  std::vector<PairCounts> pair_columns;
  for (const auto& item : analyzed.counts) {
    const CensusOptions census =
        PlanCensus(item, options, graph_, {}, CachedLabels()).census;
    PairwiseCensusOptions pairwise;
    static_cast<CensusCommon&>(pairwise) = census;
    static_cast<PtOptions&>(pairwise) = census;
    pairwise.neighborhood =
        item.spec->neighborhood.kind == NeighborhoodSpec::Kind::kIntersection
            ? PairNeighborhood::kIntersection
            : PairNeighborhood::kUnion;
    if (pairwise.profile_index == nullptr) {
      pairwise.profile_index = &CachedProfiles();
    }
    if (pairwise.center_index == nullptr) {
      pairwise.center_index = &CachedCenters();
    }
    auto counts = RunPairwisePtOpt(graph_, *item.pattern, pairwise);
    if (!counts.ok()) return counts.status();
    pair_columns.push_back(std::move(counts).value());
  }

  // Union of nonzero pairs across all aggregates.
  std::vector<std::uint64_t> keys;
  {
    std::unordered_map<std::uint64_t, char> seen;
    for (const auto& column : pair_columns) {
      for (const auto& [key, count] : column) {
        if (seen.emplace(key, 1).second) keys.push_back(key);
      }
    }
  }
  std::sort(keys.begin(), keys.end());

  Rng rng(options.rnd_seed);
  RowBinding binding;
  binding.aliases = &query.from_aliases;
  QueryRun run{ResultTable(ColumnNames(query)), {}};
  auto emit = [&](NodeId n1, NodeId n2, std::uint64_t key) {
    binding.n1 = n1;
    binding.n2 = n2;
    if (!EvalWhere(graph_, query.where.get(), binding, &rng)) return;
    std::vector<AttributeValue> row;
    std::size_t count_idx = 0;
    for (const auto& item : query.select) {
      if (item.kind == SelectItem::Kind::kId) {
        NodeId n = item.alias == query.from_aliases[0] ? n1 : n2;
        row.emplace_back(static_cast<std::int64_t>(n));
      } else {
        auto it = pair_columns[count_idx].find(key);
        row.emplace_back(static_cast<std::int64_t>(
            it == pair_columns[count_idx].end() ? 0 : it->second));
        ++count_idx;
      }
    }
    run.table.AddRow(std::move(row));
  };
  for (std::uint64_t key : keys) {
    auto [a, b] = UnpackPair(key);
    emit(a, b, key);
    emit(b, a, key);
  }
  return run;
}

}  // namespace egocensus
