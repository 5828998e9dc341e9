#ifndef EGOCENSUS_CENSUS_PMI_H_
#define EGOCENSUS_CENSUS_PMI_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/bfs.h"
#include "graph/graph.h"
#include "match/match_set.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// The "anchor" view of a match set: the pattern nodes whose images must lie
/// inside the search neighborhood. For plain COUNTP queries the anchors are
/// all pattern nodes; for COUNTSP they are the subpattern's nodes (the
/// appendix's mu(V_SP, M) generalization). All census engines are written
/// against this view.
class MatchAnchors {
 public:
  /// `anchor_nodes` are pattern node indices (sorted, distinct).
  MatchAnchors(const MatchSet* matches, std::vector<int> anchor_nodes)
      : matches_(matches), anchor_nodes_(std::move(anchor_nodes)) {}

  std::size_t NumMatches() const { return matches_->size(); }
  int NumAnchors() const { return static_cast<int>(anchor_nodes_.size()); }
  const std::vector<int>& anchor_nodes() const { return anchor_nodes_; }
  const MatchSet& matches() const { return *matches_; }

  /// Image of the j-th anchor in match `index`.
  NodeId Anchor(std::size_t index, int j) const {
    return matches_->Image(index, anchor_nodes_[j]);
  }

  /// Copies the anchor images of match `index` into `out`.
  void Get(std::size_t index, std::vector<NodeId>* out) const {
    out->clear();
    for (int j = 0; j < NumAnchors(); ++j) out->push_back(Anchor(index, j));
  }

  /// The brute-force count of one region (ND-BAS with a subpattern, single
  /// node or pair): the matches whose anchors all satisfy `inside`. Each
  /// anchor test adds one to *checks.
  template <typename Inside>
  std::uint64_t CountInside(const Inside& inside,
                            std::uint64_t* checks) const {
    std::uint64_t count = 0;
    for (std::size_t m = 0; m < NumMatches(); ++m) {
      int j = 0;
      for (; j < NumAnchors(); ++j) {
        ++*checks;
        if (!inside(Anchor(m, j))) break;
      }
      if (j == NumAnchors()) ++count;
    }
    return count;
  }

 private:
  const MatchSet* matches_;
  std::vector<int> anchor_nodes_;
};

/// The input check every census entry point shares: `pattern` must be
/// prepared, `graph` finalized and every id in `ids` (focal nodes or pair
/// endpoints) below NumNodes. Returns the anchor pattern nodes: all pattern
/// nodes when `subpattern` is empty, otherwise the named subpattern's nodes.
/// With `is_focal`, `ids` is a focal set: a repeated id is INVALID_ARGUMENT
/// (pair endpoints may repeat), and *is_focal becomes its bitmap over the
/// graph's nodes.
[[nodiscard]] Result<std::vector<int>> CheckCensusInputs(
    const Graph& graph, const Pattern& pattern, const std::string& subpattern,
    std::span<const NodeId> ids, std::vector<char>* is_focal = nullptr);

/// Pattern match index (Section IV-A1): maps a database node to the ids of
/// the matches anchored at it. ND-PVOT indexes on the pivot's images only;
/// ND-DIFF indexes every match under each of its anchor images.
/// Immutable once built; lookups are const and safe to share across census
/// workers without synchronization.
class PatternMatchIndex {
 public:
  /// PMI_v: index matches by the image of the single pattern node `v`.
  static PatternMatchIndex BuildOnNode(const MatchSet& matches, int v);

  /// PMI: index each match under every distinct anchor image.
  static PatternMatchIndex BuildOnAnchors(const MatchAnchors& anchors);

  /// Ids of matches indexed at node n (empty span when none).
  std::span<const std::uint32_t> MatchesAt(NodeId n) const {
    auto it = index_.find(n);
    if (it == index_.end()) return {};
    return it->second;
  }

 private:
  std::unordered_map<NodeId, std::vector<std::uint32_t>> index_;
};

/// The pivot machinery of ND-PVOT (Section IV-A1 / Algorithm 2): the matches
/// are indexed by the image of a pivot pattern node, and a region's count
/// sums the indexed matches over the region's nodes, skipping containment
/// checks whenever the triangle bound d(n, n') + max_v <= k guarantees
/// containment. The pivot is the anchor of least eccentricity max_v among
/// the anchors. When the bound fails, only the anchors u with
/// d_P(pivot, u) >= k - d + 1 (the "distant" sets) need explicit checks,
/// because pattern distances upper-bound match distances in the graph.
///
/// With a subpattern, the pivot is chosen among the subpattern nodes and all
/// distances are measured to subpattern nodes only (Appendix B).
///
/// ND-PVOT, pairwise ND-PVOT, the top-K census and the approximate census
/// all count through this index. It keeps a pointer to `anchors`, which
/// must outlive it; once built it is read-only and safe to share across
/// census workers.
class PivotIndex {
 public:
  PivotIndex(const Pattern& pattern, const MatchAnchors& anchors);

  /// Counts the matches pivoted at `node` whose anchors all satisfy the
  /// region predicate `inside(n)`. `distance(node)` is the node's distance
  /// d from the focal region: its BFS distance, or for a pair the max
  /// (intersection) or min (union) of its two distances. It is asked only
  /// when `node` pivots a match. Each anchor test adds one to *checks.
  template <typename Distance, typename Inside>
  std::uint64_t CountAt(NodeId node, const Distance& distance,
                        std::uint32_t k, const Inside& inside,
                        std::uint64_t* checks) const {
    std::span<const std::uint32_t> mids = pmi_.MatchesAt(node);
    if (mids.empty()) return 0;
    const std::uint32_t d = distance(node);
    if (d + max_v_ <= k) return mids.size();
    const std::vector<int>& check_set = distant_[k - d + 1];
    std::uint64_t count = 0;
    for (std::uint32_t mid : mids) {
      bool all_inside = true;
      for (int j : check_set) {
        ++*checks;
        if (!inside(anchors_->Anchor(mid, j))) {
          all_inside = false;
          break;
        }
      }
      if (all_inside) ++count;
    }
    return count;
  }

  /// CountAt over every node of the BFS ball S(n, k) last run in `ball`.
  std::uint64_t Count(const BfsWorkspace& ball, std::uint32_t k,
                      std::uint64_t* checks) const;

  /// Check-free upper bound on Count(ball, k): every match pivoted in the
  /// ball. *exact is set when no pivot image needed a check, i.e. the bound
  /// is the count.
  std::uint64_t Bound(const BfsWorkspace& ball, std::uint32_t k,
                      bool* exact) const;

 private:
  const MatchAnchors* anchors_;
  std::uint32_t max_v_ = 0;
  /// distant_[i] = anchor positions u with d_P(pivot, u) >= i, i in [1, max_v].
  std::vector<std::vector<int>> distant_;
  PatternMatchIndex pmi_;
};

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_PMI_H_
