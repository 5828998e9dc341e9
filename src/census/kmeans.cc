#include "census/kmeans.h"

#include <algorithm>
#include <limits>

namespace egocensus {

std::vector<std::uint32_t> KMeansCluster(const std::vector<float>& features,
                                         std::size_t num_points,
                                         std::size_t dim, std::uint32_t k,
                                         std::uint32_t iterations, Rng* rng,
                                         Governor* governor) {
  std::vector<std::uint32_t> assignment(num_points, 0);
  if (num_points == 0 || k == 0) return assignment;
  k = std::min<std::uint32_t>(k, static_cast<std::uint32_t>(num_points));
  if (k == 1) return assignment;

  // Initialize centroids from k distinct random points.
  std::vector<float> centroids(static_cast<std::size_t>(k) * dim);
  {
    auto picks = rng->SampleWithoutReplacement(
        static_cast<std::uint32_t>(num_points), k);
    for (std::uint32_t c = 0; c < k; ++c) {
      std::copy_n(features.begin() + static_cast<std::size_t>(picks[c]) * dim,
                  dim, centroids.begin() + static_cast<std::size_t>(c) * dim);
    }
  }

  std::vector<float> sums(static_cast<std::size_t>(k) * dim);
  std::vector<std::uint32_t> sizes(k);
  for (std::uint32_t iter = 0; iter < iterations; ++iter) {
    bool moved = false;
    for (std::size_t p = 0; p < num_points; ++p) {
      // A pass costs O(points * k * dim): poll once per 64 points.
      if (governor != nullptr && p % 64 == 0 &&
          governor->Checkpoint() != StopReason::kNone) {
        return assignment;
      }
      const float* f = features.data() + p * dim;
      float best = std::numeric_limits<float>::max();
      std::uint32_t best_c = 0;
      for (std::uint32_t c = 0; c < k; ++c) {
        const float* cent = centroids.data() + static_cast<std::size_t>(c) * dim;
        float d2 = 0;
        for (std::size_t j = 0; j < dim; ++j) {
          float diff = f[j] - cent[j];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          best_c = c;
        }
      }
      if (assignment[p] != best_c) {
        assignment[p] = best_c;
        moved = true;
      }
    }
    if (!moved) break;
    std::fill(sums.begin(), sums.end(), 0.f);
    std::fill(sizes.begin(), sizes.end(), 0u);
    for (std::size_t p = 0; p < num_points; ++p) {
      std::uint32_t c = assignment[p];
      ++sizes[c];
      const float* f = features.data() + p * dim;
      float* s = sums.data() + static_cast<std::size_t>(c) * dim;
      for (std::size_t j = 0; j < dim; ++j) s[j] += f[j];
    }
    for (std::uint32_t c = 0; c < k; ++c) {
      if (sizes[c] == 0) continue;  // keep previous centroid
      float inv = 1.f / static_cast<float>(sizes[c]);
      float* cent = centroids.data() + static_cast<std::size_t>(c) * dim;
      const float* s = sums.data() + static_cast<std::size_t>(c) * dim;
      for (std::size_t j = 0; j < dim; ++j) cent[j] = s[j] * inv;
    }
  }
  return assignment;
}

}  // namespace egocensus
