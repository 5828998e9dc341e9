#ifndef EGOCENSUS_BENCH_BENCH_UTIL_H_
#define EGOCENSUS_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure-reproduction benchmark binaries.
//
// Every binary prints the same series the corresponding figure of the paper
// plots. Default graph sizes are scaled down from the paper's testbed so a
// full `for b in build/bench/*; do $b; done` sweep finishes in minutes;
// set ECENSUS_SCALE (e.g. 5.0) to scale sizes back up toward the paper's.

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <span>
#include <string>

#include "census/census.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pattern/pattern.h"
#include "util/timer.h"

namespace egocensus::bench {

/// Multiplier applied to all default graph sizes (env ECENSUS_SCALE).
inline double ScaleFactor() {
  const char* env = std::getenv("ECENSUS_SCALE");
  if (env == nullptr) return 1.0;
  double v = std::atof(env);
  return v > 0 ? v : 1.0;
}

inline std::uint32_t Scaled(std::uint32_t base) {
  return static_cast<std::uint32_t>(base * ScaleFactor());
}

/// Turns observability on from the environment: ECENSUS_TRACE=FILE and/or
/// ECENSUS_METRICS=FILE enable instrumentation and register an atexit
/// export, so any bench binary can produce a Chrome trace or metrics dump
/// without its own flag plumbing. Idempotent.
inline void InitObsFromEnv() {
  static bool done = false;
  if (done) return;
  done = true;
  const char* trace = std::getenv("ECENSUS_TRACE");
  const char* metrics = std::getenv("ECENSUS_METRICS");
  if (trace == nullptr && metrics == nullptr) return;
  obs::SetEnabled(true);
  static std::string trace_path = trace == nullptr ? "" : trace;
  static std::string metrics_path = metrics == nullptr ? "" : metrics;
  std::atexit([] {
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (out) obs::Tracer::Global().WriteChromeTrace(out);
      std::cerr << "trace: " << trace_path;
      if (const std::uint64_t dropped = obs::Tracer::Dropped(); dropped > 0) {
        std::cerr << ", " << dropped << " spans dropped at the "
                  << obs::kMaxSpans << "-span cap";
      }
      std::cerr << "\n";
    }
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (out) {
        obs::Registry::Global().Snapshot().WriteJson(out);
      }
      std::cerr << "metrics: " << metrics_path << "\n";
    }
  });
}

inline void PrintHeader(const std::string& figure, const std::string& what) {
  InitObsFromEnv();
  std::cout << "==========================================================\n"
            << figure << " — " << what << "\n"
            << "(scale " << ScaleFactor()
            << "x; set ECENSUS_SCALE to change)\n"
            << "==========================================================\n";
}

/// Runs one census and returns end-to-end wall-clock seconds (match +
/// index + counting). Exits on error.
inline double TimeCensus(const Graph& graph, const Pattern& pattern,
                         std::span<const NodeId> focal,
                         const CensusOptions& options,
                         CensusStats* stats_out = nullptr) {
  Timer timer;
  auto result = RunCensus(graph, pattern, focal, options);
  double seconds = timer.ElapsedSeconds();
  if (!result.ok()) {
    std::cerr << "census failed: " << result.status().ToString() << "\n";
    std::exit(1);
  }
  if (stats_out != nullptr) *stats_out = result->stats;
  return seconds;
}

/// Runs `reps` censuses, aggregating stats across runs with
/// CensusStats::Merge (counters sum, peak metrics max). Returns the best
/// (minimum) wall-clock seconds of the repetitions.
inline double TimeCensusBestOf(const Graph& graph, const Pattern& pattern,
                               std::span<const NodeId> focal,
                               const CensusOptions& options, int reps,
                               CensusStats* stats_out = nullptr) {
  double best = 0;
  CensusStats merged;
  for (int r = 0; r < reps; ++r) {
    CensusStats stats;
    double seconds = TimeCensus(graph, pattern, focal, options, &stats);
    merged.Merge(stats);
    if (r == 0 || seconds < best) best = seconds;
  }
  if (stats_out != nullptr) *stats_out = merged;
  return best;
}

}  // namespace egocensus::bench

#endif  // EGOCENSUS_BENCH_BENCH_UTIL_H_
