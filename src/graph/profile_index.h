#ifndef EGOCENSUS_GRAPH_PROFILE_INDEX_H_
#define EGOCENSUS_GRAPH_PROFILE_INDEX_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace egocensus {

/// Node profile index (Section III-A): for each database node, the number of
/// neighbors per label, `P(n) = <|N^l1(n)|, ..., |N^lL(n)|>`. A database
/// node n is a candidate for pattern node v iff P(v) is contained in P(n).
/// Profiles are computed once per graph and kept as a flat row-major matrix.
///
/// Profiles use the undirected neighbor view so they remain a sound filter
/// for directed patterns as well.
class ProfileIndex {
 public:
  ProfileIndex() = default;

  /// Computes the profile of every node of `graph`.
  static ProfileIndex Build(const Graph& graph);

  /// Number of neighbors of `n` with label `l`.
  std::uint32_t Count(NodeId n, Label l) const {
    return counts_[static_cast<std::size_t>(n) * num_labels_ + l];
  }

  std::uint32_t num_labels() const { return num_labels_; }

 private:
  std::uint32_t num_labels_ = 0;
  std::vector<std::uint32_t> counts_;
};

/// Per-label node counts and degree moments of a node population: a whole
/// graph (built once with its indexes), or the mean of the k-balls a census
/// plan samples. They bound the candidate volume of a match step and give
/// its configuration-model estimate of |M| (lang/plan.cc).
struct LabelTotals {
  std::vector<double> nodes;           // nodes with the label
  std::vector<double> degree_sum;      // sum of their degrees
  std::vector<double> degree_pairs;    // sum of d(d-1): ordered neighbor pairs
  std::vector<double> degree_triples;  // sum of d(d-1)(d-2)

  /// Totals over every node of `graph`, in the undirected neighbor view.
  static LabelTotals Build(const Graph& graph);

  /// Adds one node of label `l` and degree `d`, growing the arrays.
  void Add(Label l, double d);
  /// Multiplies every total by `factor` (a sum of samples into their mean).
  void Scale(double factor);

  /// The falling-factorial degree moment of order `j` (0: nodes, 1: degree
  /// sum, 2: ordered neighbor pairs, 3: ordered triples; higher orders
  /// extrapolate geometrically from 2 and 3) over label `l`, or over every
  /// label when `l` is unset.
  double Moment(std::optional<Label> l, int j) const;
};

}  // namespace egocensus

#endif  // EGOCENSUS_GRAPH_PROFILE_INDEX_H_
