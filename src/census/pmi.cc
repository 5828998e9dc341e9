#include "census/pmi.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace egocensus {

[[nodiscard]] Result<std::vector<int>> CheckCensusInputs(
    const Graph& graph, const Pattern& pattern, const std::string& subpattern,
    std::span<const NodeId> ids, std::vector<char>* is_focal) {
  if (!pattern.prepared()) {
    return Status::InvalidArgument("pattern must be prepared");
  }
  if (!graph.finalized()) {
    return Status::InvalidArgument("graph must be finalized");
  }
  std::vector<int> anchors(pattern.NumNodes());
  std::iota(anchors.begin(), anchors.end(), 0);
  if (!subpattern.empty()) {
    const std::vector<int>* members = pattern.FindSubpattern(subpattern);
    if (members == nullptr) {
      return Status::NotFound("pattern " + pattern.name() +
                              " has no subpattern named " + subpattern);
    }
    anchors = *members;
  }
  if (is_focal != nullptr) is_focal->assign(graph.NumNodes(), 0);
  // egolint: no-checkpoint(O(|focal|) range checks and flag stores)
  for (NodeId n : ids) {
    if (n >= graph.NumNodes()) {
      return Status::OutOfRange("focal node out of range");
    }
    if (is_focal != nullptr) {
      if ((*is_focal)[n]) {
        return Status::InvalidArgument("focal node " + std::to_string(n) +
                                       " is repeated");
      }
      (*is_focal)[n] = 1;
    }
  }
  return anchors;
}

PatternMatchIndex PatternMatchIndex::BuildOnNode(const MatchSet& matches,
                                                 int v) {
  PatternMatchIndex index;
  // egolint: no-checkpoint(single linear index-build pass; engines poll)
  for (std::size_t i = 0; i < matches.size(); ++i) {
    index.index_[matches.Image(i, v)].push_back(
        static_cast<std::uint32_t>(i));
  }
  return index;
}

PatternMatchIndex PatternMatchIndex::BuildOnAnchors(
    const MatchAnchors& anchors) {
  PatternMatchIndex index;
  // egolint: no-checkpoint(single linear index-build pass; engines poll)
  for (std::size_t i = 0; i < anchors.NumMatches(); ++i) {
    for (int j = 0; j < anchors.NumAnchors(); ++j) {
      // Anchor images within a match are distinct (matches are injective),
      // so no per-match deduplication is needed.
      index.index_[anchors.Anchor(i, j)].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  return index;
}

PivotIndex::PivotIndex(const Pattern& pattern, const MatchAnchors& anchors)
    : anchors_(&anchors) {
  const std::vector<int>& nodes = anchors.anchor_nodes();
  int pivot = nodes[0];
  max_v_ = Pattern::kUnreachable;
  for (int x : nodes) {
    std::uint32_t ecc = 0;
    for (int y : nodes) ecc = std::max(ecc, pattern.Distance(x, y));
    if (ecc < max_v_) {
      max_v_ = ecc;
      pivot = x;
    }
  }
  distant_.resize(max_v_ + 1);
  for (std::uint32_t i = 1; i <= max_v_; ++i) {
    for (int j = 0; j < anchors.NumAnchors(); ++j) {
      if (pattern.Distance(pivot, nodes[j]) >= i) distant_[i].push_back(j);
    }
  }
  pmi_ = PatternMatchIndex::BuildOnNode(anchors.matches(), pivot);
}

std::uint64_t PivotIndex::Count(const BfsWorkspace& ball, std::uint32_t k,
                                std::uint64_t* checks) const {
  auto distance = [&ball](NodeId n) { return ball.DistanceTo(n); };
  auto inside = [&ball](NodeId n) { return ball.Reached(n); };
  std::uint64_t count = 0;
  for (NodeId n : ball.visited()) {
    count += CountAt(n, distance, k, inside, checks);
  }
  return count;
}

std::uint64_t PivotIndex::Bound(const BfsWorkspace& ball, std::uint32_t k,
                                bool* exact) const {
  std::uint64_t bound = 0;
  *exact = true;
  for (NodeId n : ball.visited()) {
    const std::size_t pivoted = pmi_.MatchesAt(n).size();
    if (pivoted == 0) continue;
    bound += pivoted;
    if (ball.DistanceTo(n) + max_v_ > k) *exact = false;
  }
  return bound;
}

}  // namespace egocensus
