#ifndef PERFLEDGER_INPUTS_H_
#define PERFLEDGER_INPUTS_H_

// Seeded workload inputs. Everything a workload sends — the graph file, the
// query texts, the update bodies — is generated here, so one seed always
// yields the same inputs and the programs under test receive nothing else.
// Each workload's graph comes from a fixed seed: PT-OPT's clustering runs a
// graph-dependent number of Lloyd iterations, so the same query costs up to
// 2x more on one generated graph than on another, which would swamp any
// regression bound. The run seed generates the traffic over that graph:
// focal windows, request order and update streams.

#include <cstdint>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "graph/graph.h"
#include "util/status.h"

namespace ledger {

enum class Workload { kEgoDrilldown, kFullCensus, kUpdateMix };

/// Every workload, in the order `--workload all` runs them.
inline constexpr Workload kAllWorkloads[] = {
    Workload::kEgoDrilldown, Workload::kFullCensus, Workload::kUpdateMix};

const char* WorkloadName(Workload workload);

/// One census query of a workload's pool.
struct QuerySpec {
  std::string name;  // template, e.g. "tri_k1"
  std::string text;
  egocensus::NodeId lo = 0;  // focal nodes are the ids [lo, hi)
  egocensus::NodeId hi = 0;
};

struct Inputs {
  egocensus::Graph graph;
  std::string graph_path;  // the same graph, as the file the programs load
  std::vector<QuerySpec> pool;  // the distinct queries the workload sends
  std::uint32_t threads = 1;    // the QUERY `threads` header
  /// Edge updates, each applicable in order: inserts of fresh non-edges
  /// alternating with deletes of edges inserted earlier.
  std::vector<egocensus::GraphUpdate> updates;
};

/// Generates the inputs of `workload`: its fixed graph, and the traffic
/// from `seed`. `smoke` shrinks the graphs to 2000 nodes. The
/// graph file is written to `work_dir`.
[[nodiscard]] egocensus::Result<Inputs> MakeInputs(
    Workload workload, std::uint64_t seed, bool smoke, std::size_t num_updates,
    const std::string& work_dir);

/// The unlabeled triangle, as a PATTERN body.
inline constexpr const char* kTriangle = "?A-?B; ?B-?C; ?C-?A;";

/// A census query over the focal ids [lo, hi) of an n-node graph.
std::string CountQuery(const std::string& pattern_body, int k,
                       egocensus::NodeId lo, egocensus::NodeId hi,
                       egocensus::NodeId n, const std::string& suffix = "");

/// The update-stream text (dynamic/update_stream.h) of one update.
std::string UpdateText(const egocensus::GraphUpdate& update);

}  // namespace ledger

#endif  // PERFLEDGER_INPUTS_H_
