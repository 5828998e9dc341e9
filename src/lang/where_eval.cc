#include "lang/where_eval.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <variant>

#include "util/strings.h"

namespace egocensus {

namespace {

IdRanges AllIds(NodeId num_nodes) {
  if (num_nodes == 0) return {};
  return {{0, num_nodes}};
}

/// The ids n in [0, num_nodes) with `n op c`, compared as EvalWhere
/// compares them: as doubles, which hold every id exactly. Bounds are
/// clamped in double, so a constant far outside the id range, or
/// infinite, cannot overflow a NodeId.
IdRanges CompareId(PredicateOp op, double c, NodeId num_nodes) {
  const double end = num_nodes;
  auto range = [end](double lo, double hi) -> IdRanges {
    lo = std::clamp(lo, 0.0, end);
    hi = std::clamp(hi, 0.0, end);
    if (lo >= hi) return {};
    return {{static_cast<NodeId>(lo), static_cast<NodeId>(hi)}};
  };
  const bool integral = c == std::floor(c);
  switch (op) {
    case PredicateOp::kLt:
      return range(0, std::ceil(c));
    case PredicateOp::kLe:
      return range(0, std::floor(c) + 1);
    case PredicateOp::kGt:
      return range(std::floor(c) + 1, end);
    case PredicateOp::kGe:
      return range(std::ceil(c), end);
    case PredicateOp::kEq:
      return integral ? range(c, c + 1) : IdRanges{};
    case PredicateOp::kNe: {
      if (!integral) return AllIds(num_nodes);
      IdRanges below = range(0, c);
      IdRanges above = range(c + 1, end);
      below.insert(below.end(), above.begin(), above.end());
      return below;
    }
  }
  return AllIds(num_nodes);
}

/// `c op ID` as `ID op' c`.
PredicateOp Mirror(PredicateOp op) {
  switch (op) {
    case PredicateOp::kLt: return PredicateOp::kGt;
    case PredicateOp::kLe: return PredicateOp::kGe;
    case PredicateOp::kGt: return PredicateOp::kLt;
    case PredicateOp::kGe: return PredicateOp::kLe;
    default: return op;
  }
}

/// True if `operand` reads the focal node's id: RowBinding::Resolve maps
/// both the bare form and the FROM alias to it.
bool IsFocalId(const WhereOperand& operand, const std::string& from_alias) {
  return operand.kind == WhereOperand::Kind::kAttr &&
         EqualsIgnoreCase(operand.attr, "ID") &&
         (operand.alias.empty() || operand.alias == from_alias);
}

/// A numeric constant's value; nullopt for strings, attributes, RND()
/// and NaN (which CompareAttributeValues reports equal to every number).
std::optional<double> NumericConst(const WhereOperand& operand) {
  if (operand.kind != WhereOperand::Kind::kConst) return std::nullopt;
  if (const auto* i = std::get_if<std::int64_t>(&operand.value)) {
    return static_cast<double>(*i);
  }
  const auto* d = std::get_if<double>(&operand.value);
  if (d == nullptr || std::isnan(*d)) return std::nullopt;
  return *d;
}

IdRanges Intersect(const IdRanges& a, const IdRanges& b) {
  IdRanges out;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const NodeId lo = std::max(a[i].first, b[j].first);
    const NodeId hi = std::min(a[i].second, b[j].second);
    if (lo < hi) out.emplace_back(lo, hi);
    if (a[i].second < b[j].second) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

IdRanges Unite(const IdRanges& a, const IdRanges& b) {
  IdRanges merged;
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(merged));
  IdRanges out;
  for (const auto& [lo, hi] : merged) {
    if (!out.empty() && lo <= out.back().second) {
      out.back().second = std::max(out.back().second, hi);
    } else {
      out.emplace_back(lo, hi);
    }
  }
  return out;
}

IdRanges Narrow(const WhereExpr& expr, const std::string& from_alias,
                NodeId num_nodes) {
  switch (expr.kind) {
    case WhereExpr::Kind::kAnd:
      return Intersect(Narrow(*expr.left, from_alias, num_nodes),
                       Narrow(*expr.right, from_alias, num_nodes));
    case WhereExpr::Kind::kOr:
      return Unite(Narrow(*expr.left, from_alias, num_nodes),
                   Narrow(*expr.right, from_alias, num_nodes));
    case WhereExpr::Kind::kNot:
      return AllIds(num_nodes);
    case WhereExpr::Kind::kCompare:
      if (IsFocalId(expr.lhs, from_alias)) {
        if (auto c = NumericConst(expr.rhs)) {
          return CompareId(expr.op, *c, num_nodes);
        }
      }
      if (IsFocalId(expr.rhs, from_alias)) {
        if (auto c = NumericConst(expr.lhs)) {
          return CompareId(Mirror(expr.op), *c, num_nodes);
        }
      }
      return AllIds(num_nodes);
  }
  return AllIds(num_nodes);
}

bool DrawsRandom(const WhereExpr* expr) {
  if (expr == nullptr) return false;
  if (expr->kind == WhereExpr::Kind::kCompare) {
    return expr->lhs.kind == WhereOperand::Kind::kRand ||
           expr->rhs.kind == WhereOperand::Kind::kRand;
  }
  return DrawsRandom(expr->left.get()) || DrawsRandom(expr->right.get());
}

}  // namespace

IdRanges FocalCandidates(const WhereExpr* where, const std::string& from_alias,
                         NodeId num_nodes) {
  if (where == nullptr || DrawsRandom(where)) return AllIds(num_nodes);
  return Narrow(*where, from_alias, num_nodes);
}

}  // namespace egocensus
