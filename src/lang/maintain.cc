#include "lang/maintain.h"

#include <utility>

#include "lang/analyzer.h"
#include "lang/engine.h"
#include "lang/query_parser.h"
#include "lang/where_eval.h"

namespace egocensus {

Result<MaintainSession> MaintainSession::Create(
    DynamicGraph* graph, std::string_view query_text,
    const QueryEngine::Options& options, std::span<const Pattern> registered) {
  if (graph == nullptr) {
    return Status::InvalidArgument("MaintainSession: graph is null");
  }
  auto query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  auto analyzed = AnalyzeQuery(*query, registered);
  if (!analyzed.ok()) return analyzed.status();
  if (analyzed->pairwise) {
    return Status::Unimplemented(
        "MAINTAIN mode supports single-table queries only");
  }
  if (analyzed->counts.size() != 1) {
    return Status::Unimplemented(
        "MAINTAIN mode requires exactly one COUNT aggregate (got " +
        std::to_string(analyzed->counts.size()) + ")");
  }
  const AnalyzedQuery::CountItem& item = analyzed->counts.front();

  // Fix the focal set now, against the current dynamic topology and
  // attributes, by the static engine's focal step.
  std::vector<NodeId> focal = SelectFocal(*graph, *query, options.rnd_seed);

  // Plan over a static graph that holds every focal id, nodes the overlay
  // added included: a dirty overlay is compacted first (the graph it
  // describes is unchanged), so the plan and the initial census read the
  // same base CSR.
  if (graph->DeltaSize() != 0 ||
      graph->NumNodes() != graph->base().NumNodes()) {
    graph->Compact();
  }
  const Graph& base = graph->base();
  CensusPlan plan =
      PlanCensus(item, options, base, focal, LabelTotals::Build(base));
  auto census = IncrementalCensus::Create(graph, *item.pattern,
                                          std::move(plan.census),
                                          std::move(focal));
  if (!census.ok()) return census.status();
  // `item` points into *query; move the query only after its last use.
  return MaintainSession(graph, std::move(census).value(),
                         std::move(query).value());
}

MaintainBatch MaintainSession::ApplyBatch(
    std::span<const GraphUpdate> updates) {
  std::vector<CountDelta> deltas;
  MaintainBatch batch{ResultTable({"ID", "OLD", "NEW", "DELTA"}),
                      census_.ApplyBatch(updates, &deltas).status()};
  for (const CountDelta& delta : deltas) {
    batch.deltas.AddRow(
        {AttributeValue(static_cast<std::int64_t>(delta.node)),
         AttributeValue(static_cast<std::int64_t>(delta.new_count) -
                        delta.delta),
         AttributeValue(static_cast<std::int64_t>(delta.new_count)),
         AttributeValue(delta.delta)});
  }
  return batch;
}

ResultTable MaintainSession::CountsTable() const {
  ResultTable table(ColumnNames(query_));
  const std::vector<std::uint64_t>& counts = census_.counts();
  for (NodeId n = 0; n < counts.size(); ++n) {
    if (!census_.IsFocal(n)) continue;
    std::vector<AttributeValue> row;
    for (const SelectItem& item : query_.select) {
      row.emplace_back(static_cast<std::int64_t>(
          item.kind == SelectItem::Kind::kId ? n : counts[n]));
    }
    table.AddRow(std::move(row));
  }
  ApplyOrderByLimit(query_, &table);
  return table;
}

}  // namespace egocensus
