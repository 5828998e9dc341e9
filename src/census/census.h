#ifndef EGOCENSUS_CENSUS_CENSUS_H_
#define EGOCENSUS_CENSUS_CENSUS_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "exec/governor.h"
#include "graph/distance_index.h"
#include "graph/graph.h"
#include "graph/profile_index.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace egocensus {

/// The six query evaluation algorithms of Sections IV and V.
enum class CensusAlgorithm {
  kNdBas,   // node-driven baseline: extract S(n,k), match inside
  kNdPvot,  // node-driven pivot indexing (Algorithm 2)
  kNdDiff,  // node-driven differential counting (Algorithm 3)
  kPtBas,   // pattern-driven baseline
  kPtOpt,   // pattern-driven, all optimizations (Algorithm 4)
  kPtRnd,   // PT-OPT with random instead of best-first queue order
};

const char* CensusAlgorithmName(CensusAlgorithm algorithm);

/// Routing of the combinatorial fast path for <= 4-node unlabeled patterns
/// (src/census/fastpath/, docs/FAST_PATH.md). kAuto routes eligible
/// censuses to the closed-form kernels (counts stay bit-identical to the
/// generic engines; stats.num_matches is 0 because no matcher runs);
/// kForce errors with InvalidArgument when the census is ineligible;
/// kOff always dispatches CensusOptions::algorithm.
enum class FastPathMode : std::uint8_t { kAuto = 0, kForce, kOff };

const char* FastPathModeName(FastPathMode mode);

/// Pattern-match clustering mode for the pattern-driven algorithms
/// (Section IV-B5 / Fig. 4(g)).
enum class ClusteringMode {
  kNone,    // NO-CLUST: process each match independently
  kRandom,  // RND-CLUST: random assignment into num_clusters groups
  kKMeans,  // OPT-CLUST: K-means over center-distance feature vectors
};

/// The parameters every census reads, single-node, pairwise, top-K and
/// approximate alike: the query's radius and anchor set, and how its one
/// whole-graph match step runs and is governed.
struct CensusCommon {
  /// Neighborhood radius k of SUBGRAPH(ID, k).
  std::uint32_t k = 1;

  /// COUNTSP subpattern name; empty means count the whole pattern (COUNTP).
  std::string subpattern;

  /// Match with the GQL baseline matcher instead of the CN matcher. The
  /// match sets are identical (both are exact); this exists so the
  /// CN-vs-GQL cost gap (candidate-set scans vs candidate-neighbor
  /// intersections) is observable end-to-end, e.g. via
  /// `ecensus query --matcher gql --metrics -`.
  bool use_gql_matcher = false;

  /// Optional prebuilt node-profile index for the matcher (amortizes
  /// profile computation across repeated censuses on the same graph; the
  /// QueryEngine caches and supplies one automatically).
  const ProfileIndex* profile_index = nullptr;

  /// Optional resource governor (docs/ROBUSTNESS.md), polled by the
  /// matcher and every counting loop. On a stop RunCensus returns its
  /// partial result with per-focal state and a non-OK exec_status; the
  /// other entry points return the governor's status. Null = ungoverned.
  Governor* governor = nullptr;
};

/// The pattern-driven parameters (PT-OPT / PT-RND and pairwise PT-OPT):
/// center seeding and match clustering (Section IV-B, Fig. 4(f-g)). The
/// K-means features use the first 12 centers and Lloyd's algorithm runs
/// 10 iterations, the paper's values (census/pt_common.cc).
struct PtOptions {
  /// Number of centers used for PMD initialization (paper default: 12;
  /// 0 disables center seeding). Fig. 4(f) sweeps this.
  std::uint32_t num_centers = 12;

  ClusteringMode clustering = ClusteringMode::kKMeans;

  /// Number of clusters; 0 = auto (num_matches / 4, capped at 1024 to keep
  /// Lloyd's algorithm tractable; the paper uses num_matches / 4).
  std::uint32_t num_clusters = 0;

  std::uint64_t seed = 7;

  /// Optional prebuilt center index (must have at least max(num_centers,
  /// 12) centers). When null the engine builds one over the
  /// highest-degree nodes (DEG-CNTR); its build time is reported in
  /// stats.index_seconds. A RND-CNTR index comes from PickRandomCenters.
  const CenterDistanceIndex* center_index = nullptr;

  /// Optional separate index supplying the K-means feature centers. When
  /// null, features use center_index. Fig. 4(f) sweeps num_centers while
  /// keeping the clustering features pinned to a fixed index, isolating the
  /// PMD-initialization effect from clustering quality.
  const CenterDistanceIndex* cluster_center_index = nullptr;
};

/// Options of a single-node census (RunCensus): the common and PT slices
/// plus engine selection, parallelism and graceful degradation.
struct CensusOptions : CensusCommon, PtOptions {
  /// The engine. A query's plan step (PlanCensus, lang/engine.h) picks it
  /// unless the request pins one.
  CensusAlgorithm algorithm = CensusAlgorithm::kNdPvot;

  /// Combinatorial fast-path routing (see FastPathMode). `algorithm` is
  /// the engine used when the fast path does not take the census.
  FastPathMode fast_path = FastPathMode::kAuto;

  /// Worker threads for the counting phase (the matching phase is always
  /// single-threaded). 1 = serial (default), 0 = hardware concurrency,
  /// n > 1 = exactly n workers. Per-node counts and num_matches are
  /// bit-identical for every value; see docs/PARALLEL.md for the reduction
  /// argument.
  std::uint32_t num_threads = 1;

  /// On a deadline/budget stop (not an explicit cancel), re-cover the focal
  /// nodes the exact engine did not finish with the sampling-based
  /// approximate census (src/census/approx.*): their counts become
  /// estimates and their state kApprox, so the query degrades instead of
  /// leaving holes. The degraded pass runs ungoverned and re-runs the
  /// whole-graph match, so only its counting scales with the sample rate.
  bool degrade_to_approx = false;

  /// Match-sampling rate for the degraded pass.
  double degrade_sample_rate = 0.1;
};

/// Completion state of one focal node's count in a (possibly interrupted)
/// census. Ungoverned and uninterrupted runs mark every focal kComplete.
enum class FocalState : std::uint8_t {
  kPending = 0,   // not finished: count is a lower bound (possibly 0)
  kComplete = 1,  // exact: bit-identical to an uninterrupted run
  kApprox = 2,    // degraded: sampling-based estimate
};

const char* FocalStateName(FocalState state);

struct CensusStats {
  /// |M| found by the matcher: the global match set, or, for
  /// whole-pattern ND-BAS (single node or pairwise), the matches summed
  /// over the regions it extracted, which equals the sum of its counts.
  std::uint64_t num_matches = 0;
  double match_seconds = 0;          // pattern-match time
  double index_seconds = 0;          // PMI / center-index build time
  double census_seconds = 0;         // neighborhood counting time
  std::uint64_t nodes_expanded = 0;  // BFS visits (ND) or queue pops (PT)
  std::uint64_t reinsertions = 0;    // PT: re-pops of an already-processed
                                     // node (the cost best-first minimizes)
  std::uint64_t containment_checks = 0;

  /// Censuses answered by the combinatorial fast path (0 or 1 per run;
  /// sums across aggregates/merges). Lets callers — the daemon's per-graph
  /// routing counters, the stats CSV — see which engine actually ran.
  std::uint64_t fastpath_routed = 0;

  // ---- Peak metrics (max-merged, not summed) ----

  /// Worker threads used by the counting phase.
  std::uint32_t threads_used = 1;
  /// Query attribution: pattern size and neighborhood radius of the census
  /// that produced these stats, so per-request telemetry (docs/SERVER.md,
  /// "Request telemetry") reports shape/k without re-parsing the query.
  /// Max-merged: worker shards inherit the run's values, and a
  /// degraded-pass merge keeps the exact pass's attribution.
  std::uint32_t pattern_nodes = 0;
  std::uint32_t k = 0;
  /// Largest per-unit working set seen: the biggest k-hop neighborhood
  /// (node-driven) or simultaneous-expansion footprint (pattern-driven).
  std::uint64_t peak_neighborhood = 0;

  double TotalSeconds() const {
    return match_seconds + index_seconds + census_seconds;
  }

  /// Accumulates `other` into this: counters and times are summed, peak
  /// metrics are max-ed. Used by the parallel per-worker reduction (worker
  /// stats carry zero match/index time, so the sums stay correct) and by
  /// benchmark aggregation across repeated runs.
  void Merge(const CensusStats& other) {
    num_matches += other.num_matches;
    match_seconds += other.match_seconds;
    index_seconds += other.index_seconds;
    census_seconds += other.census_seconds;
    nodes_expanded += other.nodes_expanded;
    reinsertions += other.reinsertions;
    containment_checks += other.containment_checks;
    fastpath_routed += other.fastpath_routed;
    if (other.threads_used > threads_used) threads_used = other.threads_used;
    if (other.pattern_nodes > pattern_nodes) pattern_nodes = other.pattern_nodes;
    if (other.k > k) k = other.k;
    if (other.peak_neighborhood > peak_neighborhood) {
      peak_neighborhood = other.peak_neighborhood;
    }
  }
};

struct CensusResult {
  /// counts[n] = number of matches whose anchor images lie in S(n, k);
  /// sized NumNodes, zero for non-focal nodes.
  std::vector<std::uint64_t> counts;
  CensusStats stats;

  /// Per-node completion state, sized NumNodes (non-focal nodes stay
  /// kPending with count 0). On an uninterrupted run every focal node is
  /// kComplete; after a governor stop, kComplete nodes' counts are still
  /// bit-identical to an uninterrupted run, kPending nodes' counts are
  /// lower bounds, kApprox nodes carry degraded estimates.
  std::vector<FocalState> focal_state;

  /// OK for a complete census; kDeadlineExceeded / kResourceExhausted /
  /// kCancelled when a governor stopped it early (counts/focal_state then
  /// hold the partial result — RunCensus returns the partial result as a
  /// value, not as an error, so callers keep what was computed).
  Status exec_status;

  bool complete() const { return exec_status.ok(); }
};

/// Runs an ego-centric pattern census: for every focal node n, counts the
/// matches of `pattern` whose anchor images are contained in the k-hop
/// neighborhood S(n, k). `pattern` must be prepared.
[[nodiscard]] Result<CensusResult> RunCensus(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> focal,
                               const CensusOptions& options);

/// Convenience: the full node set [0, NumNodes).
std::vector<NodeId> AllNodes(const Graph& graph);

}  // namespace egocensus

#endif  // EGOCENSUS_CENSUS_CENSUS_H_
