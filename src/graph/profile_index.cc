#include "graph/profile_index.h"

#include <algorithm>
#include <cmath>

namespace egocensus {

ProfileIndex ProfileIndex::Build(const Graph& graph) {
  ProfileIndex index;
  index.num_labels_ = graph.NumLabels();
  index.counts_.assign(
      static_cast<std::size_t>(graph.NumNodes()) * index.num_labels_, 0);
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    std::size_t base = static_cast<std::size_t>(n) * index.num_labels_;
    for (NodeId nbr : graph.Neighbors(n)) {
      ++index.counts_[base + graph.label(nbr)];
    }
  }
  return index;
}

LabelTotals LabelTotals::Build(const Graph& graph) {
  LabelTotals totals;
  for (NodeId n = 0; n < graph.NumNodes(); ++n) {
    totals.Add(graph.label(n), graph.Degree(n));
  }
  return totals;
}

void LabelTotals::Add(Label l, double d) {
  if (l >= nodes.size()) {
    nodes.resize(l + 1, 0);
    degree_sum.resize(l + 1, 0);
    degree_pairs.resize(l + 1, 0);
    degree_triples.resize(l + 1, 0);
  }
  nodes[l] += 1;
  degree_sum[l] += d;
  degree_pairs[l] += d * (d - 1);
  degree_triples[l] += d * (d - 1) * std::max(d - 2, 0.0);
}

void LabelTotals::Scale(double factor) {
  for (std::vector<double>* totals :
       {&nodes, &degree_sum, &degree_pairs, &degree_triples}) {
    for (double& total : *totals) total *= factor;
  }
}

double LabelTotals::Moment(std::optional<Label> l, int j) const {
  auto sum = [&](const std::vector<double>& totals) {
    if (l.has_value()) return *l < totals.size() ? totals[*l] : 0.0;
    double all = 0;
    for (double total : totals) all += total;
    return all;
  };
  if (j == 0) return sum(nodes);
  if (j == 1) return sum(degree_sum);
  if (j == 2) return sum(degree_pairs);
  const double third = sum(degree_triples);
  if (j == 3) return third;
  const double second = sum(degree_pairs);
  return second > 0 ? third * std::pow(third / second, j - 3) : 0;
}

}  // namespace egocensus
