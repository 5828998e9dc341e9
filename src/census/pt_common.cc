#include "census/pt_common.h"

#include <algorithm>

#include "census/kmeans.h"
#include "obs/trace.h"
#include "util/rng.h"
#include "util/timer.h"

namespace egocensus::internal {

namespace {
// The paper's K-means parameters: features are the distances to the first
// 12 centers, and Lloyd's algorithm runs 10 iterations.
constexpr std::uint32_t kClusterCenters = 12;
constexpr std::uint32_t kKMeansIterations = 10;
}  // namespace

PtSetup BuildPtSetup(const Graph& graph, const Pattern& pattern,
                     const MatchAnchors& anchors, const PtOptions& options,
                     std::uint32_t k, Governor* governor) {
  EGO_SPAN("census/index");
  PtSetup setup;
  const std::size_t num_matches = anchors.NumMatches();
  const int t = anchors.NumAnchors();

  // Center distance index.
  Timer timer;
  const std::uint32_t centers_needed = std::max(
      options.num_centers,
      options.clustering == ClusteringMode::kKMeans ? kClusterCenters : 0);
  setup.center_index = options.center_index;
  if (setup.center_index == nullptr && centers_needed > 0) {
    setup.local_index = CenterDistanceIndex::Build(
        graph, PickHighestDegreeCenters(graph, centers_needed));
    setup.center_index = &setup.local_index;
  }
  setup.index_seconds = timer.ElapsedSeconds();
  setup.expander.k = k;
  setup.expander.centers = setup.center_index;
  setup.expander.num_centers = options.num_centers;
  setup.expander.seed = options.seed + 2;

  // Pattern-distance shortcut matrix between anchor positions.
  const auto& anchor_nodes = anchors.anchor_nodes();
  setup.anchor_dist.assign(static_cast<std::size_t>(t) * t, k + 1);
  for (int j = 0; j < t; ++j) {
    for (int l = 0; l < t; ++l) {
      std::uint32_t d = pattern.Distance(anchor_nodes[j], anchor_nodes[l]);
      setup.anchor_dist[static_cast<std::size_t>(j) * t + l] =
          std::min(d, k + 1);
    }
  }

  if (num_matches == 0) return setup;

  // Cluster the matches.
  Rng rng(options.seed + 1);
  std::uint32_t num_clusters = options.num_clusters;
  if (num_clusters == 0) {
    // Paper default: |M| / 4; capped so Lloyd's O(M * K * dim) stays
    // tractable when M is large.
    num_clusters = static_cast<std::uint32_t>(
        std::clamp<std::size_t>(num_matches / 4, 1, 1024));
  }
  num_clusters = std::min<std::uint32_t>(
      num_clusters, static_cast<std::uint32_t>(num_matches));

  std::vector<std::uint32_t> assignment(num_matches, 0);
  bool clustered = false;
  switch (options.clustering) {
    case ClusteringMode::kNone:
      break;
    case ClusteringMode::kRandom:
      // egolint: no-checkpoint(one RNG draw per match; the count polls)
      for (std::size_t m = 0; m < num_matches; ++m) {
        assignment[m] =
            static_cast<std::uint32_t>(rng.NextBounded(num_clusters));
      }
      clustered = true;
      break;
    case ClusteringMode::kKMeans: {
      const CenterDistanceIndex* feature_index =
          options.cluster_center_index != nullptr
              ? options.cluster_center_index
              : setup.center_index;
      const std::size_t feature_centers =
          feature_index == nullptr
              ? 0
              : std::min<std::size_t>(kClusterCenters,
                                      feature_index->NumCenters());
      if (feature_centers == 0) break;  // no features: degenerate to none
      const std::size_t dim = feature_centers * static_cast<std::size_t>(t);
      std::vector<float> features(num_matches * dim);
      for (std::size_t m = 0; m < num_matches; ++m) {
        // Stopped while building the features: the callers see the stop
        // and count nothing.
        if (governor != nullptr && m % 64 == 0 &&
            governor->Checkpoint() != StopReason::kNone) {
          return setup;
        }
        float* f = features.data() + m * dim;
        for (std::size_t c = 0; c < feature_centers; ++c) {
          for (int j = 0; j < t; ++j) {
            std::uint16_t d = feature_index->Distance(c, anchors.Anchor(m, j));
            f[c * t + j] = static_cast<float>(std::min<std::uint16_t>(d, 255));
          }
        }
      }
      assignment = KMeansCluster(features, num_matches, dim, num_clusters,
                                 kKMeansIterations, &rng, governor);
      clustered = true;
      break;
    }
  }

  if (!clustered) {
    setup.clusters.resize(num_matches);
    // egolint: no-checkpoint(one store per match; the count polls)
    for (std::uint32_t m = 0; m < num_matches; ++m) {
      setup.clusters[m].push_back(m);
    }
  } else {
    setup.clusters.resize(num_clusters);
    // egolint: no-checkpoint(one store per match; the count polls)
    for (std::uint32_t m = 0; m < num_matches; ++m) {
      setup.clusters[assignment[m]].push_back(m);
    }
    setup.clusters.erase(
        std::remove_if(setup.clusters.begin(), setup.clusters.end(),
                       [](const auto& g) { return g.empty(); }),
        setup.clusters.end());
  }
  return setup;
}

}  // namespace egocensus::internal
