#ifndef EGOCENSUS_CENSUS_KMEANS_H_
#define EGOCENSUS_CENSUS_KMEANS_H_

#include <cstdint>
#include <vector>

#include "exec/governor.h"
#include "util/rng.h"

namespace egocensus {

/// Lloyd's K-means over dense row-major float feature vectors, used to
/// cluster pattern matches by their center-distance feature vectors
/// F(M) = <d(c_1, m_1), ..., d(c_|C|, m_|V_P|)> (Section IV-B5).
///
/// Returns the cluster assignment of each point. Clusters that become empty
/// keep their previous centroid. Deterministic given the Rng seed.
/// `governor` (optional) is polled every 64 points of each pass; after a
/// stop the assignment is incomplete and must be discarded.
std::vector<std::uint32_t> KMeansCluster(const std::vector<float>& features,
                                         std::size_t num_points,
                                         std::size_t dim, std::uint32_t k,
                                         std::uint32_t iterations, Rng* rng,
                                         Governor* governor = nullptr);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_KMEANS_H_
