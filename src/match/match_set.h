#ifndef EGOCENSUS_MATCH_MATCH_SET_H_
#define EGOCENSUS_MATCH_MATCH_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pattern/pattern.h"

namespace egocensus {

/// The set of matches M of a pattern P in a graph G. Each match stores the
/// image of every pattern node, indexed by *pattern node index* (not search
/// order), flat-packed for locality. Matches are distinct subgraphs:
/// matchers enforce the pattern's symmetry-breaking conditions so automorphic
/// re-mappings are not produced.
class MatchSet {
 public:
  explicit MatchSet(int arity = 0) : arity_(arity) {}

  int arity() const { return arity_; }
  std::size_t size() const {
    return arity_ == 0 ? 0 : nodes_.size() / arity_;
  }

  /// Appends a match; `images[v]` is the database node matched to pattern
  /// node v.
  void Add(std::span<const NodeId> images) {
    nodes_.insert(nodes_.end(), images.begin(), images.end());
  }

  /// Images of match `index`, by pattern node index.
  std::span<const NodeId> Match(std::size_t index) const {
    return {nodes_.data() + index * arity_, static_cast<std::size_t>(arity_)};
  }

  /// Image of pattern node v in match `index` (the paper's mu(v, M)).
  NodeId Image(std::size_t index, int v) const {
    return nodes_[index * arity_ + v];
  }

 private:
  int arity_;
  std::vector<NodeId> nodes_;
};

/// Checks the non-structural constraints of a full assignment: negated
/// edges must be absent and all attribute predicates must hold. `graph`
/// supplies attribute data. Positive-edge structure and injectivity are the
/// matcher's responsibility and are not re-checked here.
bool MatchSatisfiesConstraints(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> assignment);

/// Evaluates one predicate against an assignment.
bool EvaluatePredicate(const Graph& graph, const PatternPredicate& predicate,
                       std::span<const NodeId> assignment);

}  // namespace egocensus

#endif  // EGOCENSUS_MATCH_MATCH_SET_H_
