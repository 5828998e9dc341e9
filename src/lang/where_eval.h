#ifndef EGOCENSUS_LANG_WHERE_EVAL_H_
#define EGOCENSUS_LANG_WHERE_EVAL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "graph/attributes.h"
#include "graph/types.h"
#include "lang/ast.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace egocensus {

/// Binding of table aliases to concrete nodes for WHERE evaluation.
struct RowBinding {
  const std::vector<std::string>* aliases = nullptr;
  NodeId n1 = kInvalidNode;
  NodeId n2 = kInvalidNode;

  std::optional<NodeId> Resolve(const std::string& alias) const {
    if (alias.empty() || alias == (*aliases)[0]) return n1;
    if (aliases->size() > 1 && alias == (*aliases)[1]) return n2;
    return std::nullopt;
  }
};

/// WHERE evaluation is a template over the graph type so the same
/// implementation serves the static QueryEngine (Graph) and the MAINTAIN
/// mode (DynamicGraph); `GraphT` must expose GetNodeAttribute(n, name).
template <typename GraphT>
std::optional<AttributeValue> WhereOperandValue(const GraphT& graph,
                                                const WhereOperand& operand,
                                                const RowBinding& binding,
                                                Rng* rng) {
  switch (operand.kind) {
    case WhereOperand::Kind::kConst:
      return operand.value;
    case WhereOperand::Kind::kRand:
      return AttributeValue(rng->NextDouble());
    case WhereOperand::Kind::kAttr: {
      auto node = binding.Resolve(operand.alias);
      if (!node.has_value()) return std::nullopt;
      return graph.GetNodeAttribute(*node, operand.attr);
    }
  }
  return std::nullopt;
}

template <typename GraphT>
bool EvalWhere(const GraphT& graph, const WhereExpr* expr,
               const RowBinding& binding, Rng* rng) {
  if (expr == nullptr) return true;
  switch (expr->kind) {
    case WhereExpr::Kind::kAnd:
      return EvalWhere(graph, expr->left.get(), binding, rng) &&
             EvalWhere(graph, expr->right.get(), binding, rng);
    case WhereExpr::Kind::kOr:
      return EvalWhere(graph, expr->left.get(), binding, rng) ||
             EvalWhere(graph, expr->right.get(), binding, rng);
    case WhereExpr::Kind::kNot:
      return !EvalWhere(graph, expr->left.get(), binding, rng);
    case WhereExpr::Kind::kCompare: {
      auto lhs = WhereOperandValue(graph, expr->lhs, binding, rng);
      auto rhs = WhereOperandValue(graph, expr->rhs, binding, rng);
      if (!lhs.has_value() || !rhs.has_value()) return false;
      auto cmp = CompareAttributeValues(*lhs, *rhs);
      if (!cmp.has_value()) return false;
      switch (expr->op) {
        case PredicateOp::kEq:
          return *cmp == 0;
        case PredicateOp::kNe:
          return *cmp != 0;
        case PredicateOp::kLt:
          return *cmp < 0;
        case PredicateOp::kLe:
          return *cmp <= 0;
        case PredicateOp::kGt:
          return *cmp > 0;
        case PredicateOp::kGe:
          return *cmp >= 0;
      }
      return false;
    }
  }
  return false;
}

/// Node ids as sorted, disjoint half-open intervals [first, second).
using IdRanges = std::vector<std::pair<NodeId, NodeId>>;

/// The ids in [0, num_nodes) a single-table WHERE clause can admit: no id
/// outside the returned intervals satisfies `where`. `ID` (bare or as
/// `<from_alias>.ID`) compared with a numeric constant, in either operand
/// order, narrows to the ids the comparison admits; AND intersects and OR
/// unites. NOT and every other term admit every id, and so does a clause
/// that draws RND() anywhere, so that its draws keep scan order.
IdRanges FocalCandidates(const WhereExpr* where, const std::string& from_alias,
                         NodeId num_nodes);

/// The focal step of a single-table query: the live nodes of `graph` that
/// satisfy its WHERE clause, in ascending id order, with RND() seeded by
/// `rnd_seed`. EvalWhere runs on the FocalCandidates ids only, in
/// ascending order, so the list equals a scan of every node by
/// construction. `GraphT` is Graph or DynamicGraph, whose removed nodes
/// are skipped.
template <typename GraphT>
std::vector<NodeId> SelectFocal(const GraphT& graph, const Query& query,
                                std::uint64_t rnd_seed) {
  EGO_SPAN("lang/focal");
  Rng rng(rnd_seed);
  RowBinding binding;
  binding.aliases = &query.from_aliases;
  std::vector<NodeId> focal;
  std::uint64_t evaluated = 0;
  for (auto [begin, end] : FocalCandidates(
           query.where.get(), query.from_aliases[0], graph.NumNodes())) {
    for (NodeId n = begin; n < end; ++n) {
      if constexpr (requires { graph.NodeRemoved(n); }) {
        if (graph.NodeRemoved(n)) continue;
      }
      binding.n1 = n;
      ++evaluated;
      if (EvalWhere(graph, query.where.get(), binding, &rng)) {
        focal.push_back(n);
      }
    }
  }
  EGO_COUNTER_ADD("lang/focal/evaluated", evaluated);
  return focal;
}

}  // namespace egocensus

#endif  // EGOCENSUS_LANG_WHERE_EVAL_H_
