#ifndef PERFLEDGER_WORKLOADS_H_
#define PERFLEDGER_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "inputs.h"
#include "process.h"
#include "report.h"

namespace ledger {

struct RunOptions {
  Workload workload = Workload::kEgoDrilldown;
  std::uint64_t seed = 1;
  double seconds = 30;  // length of the timed traffic window
  bool trace = false;   // per-layer run instead of the end-to-end one
  bool smoke = false;   // tiny graphs
  std::string work_dir;
  std::string ecensusd;   // the built daemon under test
  std::string trace_out;  // Chrome trace path (traced runs)
};

/// Runs one workload: generates its inputs from the seed, computes the
/// reference outputs in-process, drives the programs, checks every
/// response, and reports the end-to-end metrics (or, traced, the per-layer
/// ones).
RunResult RunWorkload(const RunOptions& options);

}  // namespace ledger

#endif  // PERFLEDGER_WORKLOADS_H_
