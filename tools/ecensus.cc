// ecensus — command-line front end to the ego-centric pattern census
// library.
//
//   ecensus generate --type pa|er|ws|rmat --nodes N [options] --out FILE
//   ecensus info --graph FILE
//   ecensus query --graph FILE (--query "SQL" | --query-file FILE)
//                 [--algorithm nd-bas|nd-pvot|nd-diff|pt-bas|pt-opt|pt-rnd]
//                 [--threads T] [--top N] [--csv]
//   ecensus update --graph FILE --updates FILE
//                  (--query "SQL" | --query-file FILE)
//                  [--batch-size N] [--top N] [--csv]
//
// Examples:
//   ecensus generate --type pa --nodes 100000 --labels 4 --out g.graph
//   ecensus query --graph g.graph
//     --query "PATTERN t {?A-?B; ?B-?C; ?C-?A;}
//              SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes" --top 10
//   ecensus update --graph g.graph --updates stream.txt
//     --query "PATTERN t {?A-?B; ?B-?C; ?C-?A;}
//              SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/update_stream.h"
#include "exec/governor.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lang/engine.h"
#include "lang/maintain.h"
#include "lang/query_spec.h"
#include "net/client.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/build_info.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace {

using namespace egocensus;

/// Minimal --flag value parser; flags may appear in any order.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (StartsWith(arg, "--")) {
        std::string key = arg.substr(2);
        // --key=value binds inline; without '=' the next non-flag token is
        // the value. Splitting matters for correctness, not just
        // convenience: before it, "--matcher=bogus" became the key
        // "matcher=bogus", so Get("matcher") silently fell back to its
        // default instead of rejecting the unknown value.
        std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
          values_[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
          values_[key] = argv[++i];
        } else {
          values_[key] = "";  // valueless flag: the option's default value
        }
      }
    }
  }

  const std::map<std::string, std::string>& values() const { return values_; }
  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }

  /// Strict numeric values; `fallback` when the flag is absent. A malformed
  /// or out-of-range value reads as `fallback` and latches the first such
  /// error into status(), which the caller checks before acting.
  std::uint64_t GetUint(const std::string& key, std::uint64_t fallback,
                        std::uint64_t max = ~0ull) {
    return Has(key) ? Latch(key, ParseUint(values_[key], max), fallback)
                    : fallback;
  }
  double GetDouble(const std::string& key, double fallback) {
    return Has(key) ? Latch(key, ParseDouble(values_[key]), fallback)
                    : fallback;
  }
  [[nodiscard]] const Status& status() const { return status_; }

 private:
  template <typename T>
  T Latch(const std::string& key, const Result<T>& value, T fallback) {
    if (value.ok()) return *value;
    if (status_.ok()) {
      status_ = Status::InvalidArgument("--" + key + ": " +
                                        value.status().message());
    }
    return fallback;
  }

  std::map<std::string, std::string> values_;
  Status status_;
};

/// Single exit path for every failing subcommand: renders the Status and
/// picks the exit code from its class (2 for usage/argument errors, 1 for
/// everything else — parse failures, I/O failures, governor stops).
int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return status.code() == StatusCode::kInvalidArgument ? 2 : 1;
}

/// sysexits.h EX_TEMPFAIL: the daemon was busy (or draining) and the
/// request never ran — retrying later is expected to succeed.
constexpr int kExitTempFail = 75;

int Usage() {
  std::cerr <<
      "usage:\n"
      "  ecensus generate --type pa|er|ws|rmat --nodes N [--edges-per-node M]\n"
      "                   [--edges E] [--labels L] [--seed S] --out FILE\n"
      "  ecensus info --graph FILE\n"
      "  ecensus query --graph FILE (--query SQL | --query-file FILE)\n"
      "                [--algorithm nd-bas|nd-pvot|nd-diff|pt-bas|pt-opt|pt-rnd]\n"
      "                [--matcher cn|gql] [--threads T (0 = all cores)]\n"
      "                [--fast-path auto|force|off]\n"
      "                [--top N] [--csv] [--seed S]\n"
      "                [--timeout-ms MS] [--memory-budget-mb MB]\n"
      "                [--degrade-approx [RATE]]\n"
      "                [--trace FILE.json] [--metrics FILE.json|.csv]\n"
      "  ecensus stats --graph FILE (--query SQL | --query-file FILE)\n"
      "                [query options] (runs the query, prints metric tables)\n"
      "  ecensus update --graph FILE --updates FILE\n"
      "                 (--query SQL | --query-file FILE)\n"
      "                 [--batch-size N] [--top N] [--csv] [--seed S]\n"
      "                 [--timeout-ms MS] [--memory-budget-mb MB]\n"
      "                 [--trace FILE.json] [--metrics FILE.json|.csv]\n"
      "  ecensus remote query --connect HOST:PORT --graph NAME\n"
      "                 (--query SQL | --query-file FILE) [query options]\n"
      "  ecensus remote update --connect HOST:PORT --graph NAME\n"
      "                 --updates FILE [--timeout-ms MS]\n"
      "  ecensus remote status|shutdown --connect HOST:PORT\n"
      "                 [--slow-trace [ID|latest]] (status only)\n"
      "  ecensus remote metrics --connect HOST:PORT\n"
      "  ecensus remote load --connect HOST:PORT --name NAME --path FILE\n"
      "  ecensus remote unload --connect HOST:PORT --name NAME\n"
      "  (remote verbs accept --request-id ID; the daemon echoes it in the\n"
      "   response and its telemetry — docs/OBSERVABILITY.md. Also:\n"
      "   --tenant NAME (fair-queue tenant tag),\n"
      "   --connect-timeout-ms MS (default 5000), --io-timeout-ms MS,\n"
      "   --retries N --retry-budget-ms MS (backoff honoring the daemon's\n"
      "   retry_after_ms hint; off by default, and for update only with\n"
      "   --idempotent). BUSY exits 75 (EX_TEMPFAIL).)\n"
      "  ecensus --version\n"
      "\n"
      "Governed runs (--timeout-ms / --memory-budget-mb) that stop early\n"
      "still print their partial results — with per-focal .state columns on\n"
      "interrupted aggregates — and exit non-zero with the stop reason.\n"
      "--degrade-approx re-covers interrupted focal nodes with sampled\n"
      "estimates (optional RATE in (0,1], default 0.1).\n"
      "--fast-path controls the combinatorial <= 4-node kernels\n"
      "(docs/FAST_PATH.md): auto routes eligible censuses, force errors when\n"
      "ineligible, off always runs the generic engine. Default: auto, or off\n"
      "when --algorithm/--matcher picked an engine explicitly.\n";
  return 2;
}

/// --trace / --metrics export destinations. Requesting either turns the
/// instrumentation on for the whole run.
struct ObsExport {
  std::string trace_path;
  std::string metrics_path;

  bool requested() const {
    return !trace_path.empty() || !metrics_path.empty();
  }
};

ObsExport ObsFromArgs(const Args& args) {
  ObsExport o;
  o.trace_path = args.Get("trace", "");
  o.metrics_path = args.Get("metrics", "");
  if (o.requested()) obs::SetEnabled(true);
  return o;
}

/// Writes the Chrome trace and/or the metrics dump (JSON, or CSV when the
/// path ends in .csv). Returns non-zero if an output file cannot be opened.
int WriteObsExports(const ObsExport& o) {
  if (!o.trace_path.empty()) {
    std::ofstream out(o.trace_path);
    if (!out) {
      return Fail(Status::Internal("cannot open trace output: " +
                                   o.trace_path));
    }
    // egolint: allow-obs(Tracer is declared unconditionally and stubbed under EGO_OBS_ENABLED=0 — the export is an empty trace, not a build break)
    obs::Tracer::Global().WriteChromeTrace(out);
    std::cerr << "trace: " << o.trace_path
              << " (load in chrome://tracing or ui.perfetto.dev)\n";
  }
  if (!o.metrics_path.empty()) {
    std::ofstream out(o.metrics_path);
    if (!out) {
      return Fail(Status::Internal("cannot open metrics output: " +
                                   o.metrics_path));
    }
    // egolint: allow-obs(MetricsSnapshot / Registry are declared unconditionally and stubbed under EGO_OBS_ENABLED=0 — the export is empty, not a build break)
    obs::MetricsSnapshot snap = obs::Registry::Global().Snapshot();
    if (EndsWith(o.metrics_path, ".csv")) {
      snap.WriteCsv(out);
    } else {
      snap.WriteJson(out);
    }
    std::cerr << "metrics: " << o.metrics_path << "\n";
  }
  return 0;
}

/// Arms `governor` with the spec's deadline and memory budget; true when
/// either is set (callers then thread the governor through).
bool GovernorFromSpec(const QuerySpec& spec, Governor* governor) {
  if (spec.deadline_ms > 0) {
    governor->SetDeadline(Deadline::AfterMillis(spec.deadline_ms));
  }
  governor->SetMemoryLimitBytes(spec.memory_budget_mb << 20);
  return spec.deadline_ms > 0 || spec.memory_budget_mb > 0;
}

/// Per-aggregate execution outcome of an interrupted query (stderr, next to
/// the partial result table on stdout).
void PrintExecSummary(const std::vector<QueryEngine::AggregateExec>& exec,
                      std::ostream& os) {
  for (std::size_t i = 0; i < exec.size(); ++i) {
    const QueryEngine::AggregateExec& e = exec[i];
    os << "aggregate " << i << ": " << e.status.ToString()
       << " (focal complete=" << e.complete << " approx=" << e.approx
       << " pending=" << e.pending << ")\n";
  }
}

/// Per-aggregate census phase stats, one CSV row per aggregate (timings,
/// threads, peak neighborhood, execution outcome). Written to stderr so
/// stdout stays a pure result table — byte-identical across thread counts
/// and repeat runs (the exec columns are OK/all-complete when ungoverned).
void WriteStatsCsv(const std::vector<CensusStats>& stats,
                   const std::vector<QueryEngine::AggregateExec>& exec,
                   std::ostream& os) {
  if (stats.empty()) return;
  os << "aggregate,num_matches,match_seconds,index_seconds,census_seconds,"
        "threads_used,peak_neighborhood,exec_status,focal_complete,"
        "focal_approx,focal_pending\n";
  for (std::size_t i = 0; i < stats.size(); ++i) {
    const CensusStats& s = stats[i];
    os << i << "," << s.num_matches << "," << s.match_seconds << ","
       << s.index_seconds << "," << s.census_seconds << "," << s.threads_used
       << "," << s.peak_neighborhood;
    if (i < exec.size()) {
      const QueryEngine::AggregateExec& e = exec[i];
      os << "," << StatusCodeName(e.status.code()) << "," << e.complete << ","
         << e.approx << "," << e.pending;
    } else {
      os << ",OK,0,0,0";
    }
    os << "\n";
  }
}

/// The whole file at `path`; NOT_FOUND naming `what` when it cannot open.
[[nodiscard]] Result<std::string> ReadFile(const std::string& path,
                                           const std::string& what) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + what + ": " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Reads --query inline text or --query-file contents.
[[nodiscard]] Result<std::string> ReadQueryArg(const Args& args) {
  std::string query = args.Get("query", "");
  if (query.empty() && args.Has("query-file")) {
    auto text = ReadFile(args.Get("query-file", ""), "query file");
    if (!text.ok()) return text.status();
    query = *text;
  }
  if (query.empty()) {
    return Status::InvalidArgument("--query or --query-file is required");
  }
  return query;
}

int RunGenerate(Args& args) {
  std::string type = args.Get("type", "pa");
  std::string out = args.Get("out", "");
  if (out.empty()) {
    return Fail(Status::InvalidArgument("generate: --out is required"));
  }
  auto nodes = static_cast<std::uint32_t>(args.GetUint("nodes", 10000, ~0u));
  auto labels = static_cast<std::uint32_t>(args.GetUint("labels", 1, ~0u));
  auto edges_per_node =
      static_cast<std::uint32_t>(args.GetUint("edges-per-node", 5, ~0u));
  std::uint64_t edges = args.GetUint("edges", nodes * 5ull);
  std::uint64_t seed = args.GetUint("seed", 42);
  double rewire = args.GetDouble("rewire", 0.1);
  if (!args.status().ok()) return Fail(args.status());
  Graph graph;
  if (type == "pa") {
    GeneratorOptions gen;
    gen.num_nodes = nodes;
    gen.edges_per_node = edges_per_node;
    gen.num_labels = labels;
    gen.seed = seed;
    graph = GeneratePreferentialAttachment(gen);
  } else if (type == "er") {
    graph = GenerateErdosRenyi(nodes, edges, labels, seed);
  } else if (type == "ws") {
    graph = GenerateWattsStrogatz(nodes, edges_per_node, rewire, labels, seed);
  } else if (type == "rmat") {
    std::uint32_t scale = 1;
    while ((1u << scale) < nodes) ++scale;
    graph = GenerateRmat(scale, edges, 0.45, 0.22, 0.22, labels, seed);
  } else {
    return Fail(Status::InvalidArgument("generate: unknown --type " + type));
  }
  Status status = SaveGraph(graph, out);
  if (!status.ok()) return Fail(status);
  std::cout << "wrote " << graph.NumNodes() << " nodes, " << graph.NumEdges()
            << " edges to " << out << "\n";
  return 0;
}

int RunInfo(const Args& args) {
  auto graph = LoadGraph(args.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  std::uint64_t degree_sum = 0;
  std::vector<std::uint32_t> degrees(graph->NumNodes());
  std::vector<std::uint64_t> label_counts(graph->NumLabels(), 0);
  for (NodeId n = 0; n < graph->NumNodes(); ++n) {
    degrees[n] = graph->Degree(n);
    degree_sum += degrees[n];
    ++label_counts[graph->label(n)];
  }
  std::sort(degrees.begin(), degrees.end());
  auto percentile = [&degrees](double p) -> std::uint32_t {
    if (degrees.empty()) return 0;
    std::size_t i = static_cast<std::size_t>(p * (degrees.size() - 1));
    return degrees[i];
  };
  std::cout << "nodes:      " << graph->NumNodes() << "\n"
            << "edges:      " << graph->NumEdges() << "\n"
            << "directed:   " << (graph->directed() ? "yes" : "no") << "\n"
            << "labels:     " << graph->NumLabels() << "\n"
            << "avg degree: "
            << (graph->NumNodes() > 0
                    ? static_cast<double>(degree_sum) / graph->NumNodes()
                    : 0)
            << "\n";
  std::cout << "degree distribution:\n"
            << "  min=" << (degrees.empty() ? 0 : degrees.front())
            << " p50=" << percentile(0.50) << " p90=" << percentile(0.90)
            << " p99=" << percentile(0.99)
            << " max=" << (degrees.empty() ? 0 : degrees.back()) << "\n";
  // Log2 histogram of degrees: bucket b covers [2^b, 2^(b+1)).
  std::vector<std::uint64_t> buckets;
  std::uint64_t zero_degree = 0;
  for (std::uint32_t d : degrees) {
    if (d == 0) {
      ++zero_degree;
      continue;
    }
    std::size_t b = 0;
    while ((1u << (b + 1)) <= d) ++b;
    if (b >= buckets.size()) buckets.resize(b + 1, 0);
    ++buckets[b];
  }
  if (zero_degree > 0) {
    std::cout << "  deg 0        : " << zero_degree << "\n";
  }
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    std::cout << "  deg [" << (1u << b) << ", " << (1u << (b + 1))
              << "): " << buckets[b] << "\n";
  }
  std::cout << "label histogram:\n";
  for (Label l = 0; l < graph->NumLabels(); ++l) {
    std::cout << "  label " << l << ": " << label_counts[l];
    if (graph->NumNodes() > 0) {
      std::cout << " ("
                << 100.0 * static_cast<double>(label_counts[l]) /
                       graph->NumNodes()
                << "%)";
    }
    std::cout << "\n";
  }
  return 0;
}

/// Prints the metrics snapshot as aligned text tables (counters, gauges,
/// histograms with approximate percentiles) — the `ecensus stats` view.
// egolint: allow-obs(MetricsSnapshot is declared unconditionally and stubbed under EGO_OBS_ENABLED=0 — stats mode prints "no metrics recorded")
void PrintMetricsTables(const obs::MetricsSnapshot& snap, std::ostream& os) {
  if (snap.empty()) {
    os << "no metrics recorded\n";
    return;
  }
  if (!snap.counters.empty() || !snap.gauges.empty()) {
    TablePrinter table({"metric", "kind", "value"});
    for (const auto& [name, value] : snap.counters) {
      table.AddRow({name, "counter", std::to_string(value)});
    }
    for (const auto& [name, value] : snap.gauges) {
      table.AddRow({name, "gauge(max)", std::to_string(value)});
    }
    table.PrintText(os);
  }
  if (!snap.histograms.empty()) {
    os << "\n";
    TablePrinter table(
        {"histogram", "count", "mean", "p50<=", "p99<=", "max"});
    for (const auto& [name, h] : snap.histograms) {
      table.AddRow({name, std::to_string(h.count),
                    TablePrinter::FormatDouble(h.Mean(), 2),
                    std::to_string(h.ApproxPercentile(0.50)),
                    std::to_string(h.ApproxPercentile(0.99)),
                    std::to_string(h.max)});
    }
    table.PrintText(os);
  }
}

int RunQuery(const Args& args, bool stats_mode) {
  auto spec = ParseQuerySpec(args.values(), OptionSurface::kCli);
  if (!spec.ok()) return Fail(spec.status());
  auto graph = LoadGraph(args.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  auto query = ReadQueryArg(args);
  if (!query.ok()) return Fail(query.status());

  ObsExport obs_export = ObsFromArgs(args);
  if (stats_mode) obs::SetEnabled(true);

  QueryEngine engine(*graph);
  QueryEngine::Options options = spec->options;
  Governor governor;
  if (GovernorFromSpec(*spec, &governor)) {
    options.census.governor = &governor;
  }
  auto result = engine.Execute(*query, options);
  if (!result.ok()) return Fail(result.status());
  // A governed run that stopped early still produced a (partial) table;
  // print it, then exit non-zero with the stop reason.
  Status exec_status = engine.last_exec_status();
  if (stats_mode) {
    // Result rows are elided: the subcommand's product is the metric view.
    std::cout << "query returned " << result->NumRows() << " rows\n\n";
    // egolint: allow-obs(Registry is declared unconditionally and stubbed under EGO_OBS_ENABLED=0 — stats mode degrades to an empty table)
    PrintMetricsTables(obs::Registry::Global().Snapshot(), std::cout);
  } else {
    WriteQueryResult(*result, *spec, std::cout);
    if (spec->format == ResultFormat::kCsv) {
      WriteStatsCsv(engine.last_stats(), engine.last_exec(), std::cerr);
    } else {
      for (std::size_t i = 0; i < engine.last_stats().size(); ++i) {
        const CensusStats& s = engine.last_stats()[i];
        std::cout << "aggregate " << i << ": "
                  << (s.fastpath_routed != 0 ? "engine=fastpath " : "")
                  << "threads=" << s.threads_used
                  << " matches=" << s.num_matches
                  << " match=" << s.match_seconds
                  << "s index=" << s.index_seconds
                  << "s census=" << s.census_seconds
                  << "s peak_neighborhood=" << s.peak_neighborhood << "\n";
      }
    }
  }
  if (!exec_status.ok()) {
    PrintExecSummary(engine.last_exec(), std::cerr);
    WriteObsExports(obs_export);
    return Fail(exec_status);
  }
  return WriteObsExports(obs_export);
}

int RunUpdate(Args& args) {
  auto spec = ParseQuerySpec(args.values(), OptionSurface::kCli);
  if (!spec.ok()) return Fail(spec.status());
  auto graph = LoadGraph(args.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  auto query = ReadQueryArg(args);
  if (!query.ok()) return Fail(query.status());
  ObsExport obs_export = ObsFromArgs(args);
  std::string updates_path = args.Get("updates", "");
  if (updates_path.empty()) {
    return Fail(Status::InvalidArgument("update: --updates is required"));
  }
  auto updates = LoadUpdateStream(updates_path);
  if (!updates.ok()) return Fail(updates.status());
  std::size_t batch_size = static_cast<std::size_t>(
      std::max<std::uint64_t>(args.GetUint("batch-size", updates->size()), 1));
  if (!args.status().ok()) return Fail(args.status());

  DynamicGraph dynamic(std::move(*graph));
  MaintainSession::Options options;
  options.rnd_seed = spec->options.rnd_seed;
  Governor governor;
  if (GovernorFromSpec(*spec, &governor)) {
    options.governor = &governor;
  }
  auto session = MaintainSession::Create(&dynamic, *query, options);
  if (!session.ok()) return Fail(session.status());

  bool csv = spec->format == ResultFormat::kCsv;
  MaintenanceStats total;
  std::span<const GraphUpdate> remaining(*updates);
  std::size_t batch_index = 0;
  while (!remaining.empty()) {
    std::size_t n = std::min(batch_size, remaining.size());
    auto deltas = session->ApplyBatch(remaining.first(n));
    if (!deltas.ok()) return Fail(deltas.status());
    remaining = remaining.subspan(n);
    total.Accumulate(session->last_stats());
    if (!csv) {
      std::cout << "batch " << batch_index << " (" << n << " updates, "
                << deltas->NumRows() << " changed counts):\n";
      if (deltas->NumRows() > 0) {
        std::cout << deltas->ToString(deltas->NumRows());
      }
    }
    ++batch_index;
  }

  ResultTable counts = session->CountsTable();
  if (!csv) std::cout << "maintained counts:\n";
  WriteQueryResult(counts, *spec, std::cout);
  if (!csv) {
    std::cout << "stats: applied=" << total.updates_applied
              << " noop=" << total.noop_updates
              << " delta_matches=" << total.delta_matches
              << " recounted=" << total.recounted_nodes
              << " adjusted=" << total.adjusted_nodes
              << " changed=" << total.changed_nodes << "\n";
    if (total.seconds > 0) {
      std::cout << "throughput: "
                << static_cast<double>(total.updates_applied +
                                       total.noop_updates) /
                       total.seconds
                << " updates/sec (" << total.seconds << "s total)\n";
    }
  }
  return WriteObsExports(obs_export);
}

/// `ecensus remote ACTION --connect HOST:PORT ...` — the same verbs against
/// a running ecensusd instead of a local graph file. Exit codes mirror the
/// local contract: the response's status crosses the wire as text and maps
/// back through the same Fail() (2 for usage errors, 1 for everything else,
/// including governed stops reported in exec_status).
int RunRemote(const std::string& action, Args& args) {
  std::string connect = args.Get("connect", "");
  if (connect.empty()) {
    std::cerr << "remote: --connect HOST:PORT is required\n";
    return Usage();
  }
  auto endpoint = net::ParseEndpoint(connect);
  if (!endpoint.ok()) {
    std::cerr << endpoint.status().ToString() << "\n";
    return Usage();
  }

  // Client-propagated request id (docs/SERVER.md, "Request telemetry"):
  // echoed in the response headers and the daemon's log/trace records, so
  // callers can correlate an invocation with the server-side telemetry.
  std::string request_id = args.Get("request-id", "");

  net::Message request;
  if (action == "query" || action == "update") {
    // Validated here so a bad value exits 2 without a round trip; the
    // daemon then parses the same strings under their wire names.
    auto spec = ParseQuerySpec(args.values(), OptionSurface::kCli);
    if (!spec.ok()) return Fail(spec.status());
    std::string graph = args.Get("graph", "");
    if (graph.empty()) {
      return Fail(Status::InvalidArgument("remote " + action +
                                          ": --graph NAME names a graph "
                                          "loaded in the daemon"));
    }
    if (action == "query") {
      auto query = ReadQueryArg(args);
      if (!query.ok()) return Fail(query.status());
      request = net::Client::QueryRequest(graph, *query);
    } else {
      std::string path = args.Get("updates", "");
      if (path.empty()) {
        return Fail(Status::InvalidArgument(
            "remote update: --updates FILE is required"));
      }
      auto updates = ReadFile(path, "update stream");
      if (!updates.ok()) return Fail(updates.status());
      request = net::Client::UpdateRequest(graph, *updates);
    }
    ForwardQueryOptions(args.values(), &request.headers);
  } else if (action == "status") {
    request = net::Client::StatusRequest();
    if (args.Has("slow-trace")) {
      // "latest" (or an empty value) dumps the newest capture; a request id
      // dumps that capture. The body is a Chrome trace JSON.
      request.headers["slow_trace"] = args.Get("slow-trace", "latest");
    }
  } else if (action == "metrics") {
    request = net::Client::MetricsRequest();
  } else if (action == "load") {
    std::string name = args.Get("name", "");
    std::string path = args.Get("path", "");
    if (name.empty() || path.empty()) {
      return Fail(Status::InvalidArgument(
          "remote load: --name NAME and --path FILE are required"));
    }
    request = net::Client::LoadRequest(name, path);
  } else if (action == "unload") {
    std::string name = args.Get("name", "");
    if (name.empty()) {
      return Fail(
          Status::InvalidArgument("remote unload: --name NAME is required"));
    }
    request = net::Client::UnloadRequest(name);
  } else if (action == "shutdown") {
    request = net::Client::ShutdownRequest();
  } else {
    std::cerr << "remote: unknown action '" << action << "'\n";
    return Usage();
  }

  if (!request_id.empty()) request.headers["request_id"] = request_id;
  // Tenant tag for the daemon's fair queue (docs/SERVER.md, "Admission and
  // queueing"). Invalid names fall back to the shared default tenant
  // server-side rather than erroring.
  if (args.Has("tenant")) request.headers["tenant"] = args.Get("tenant", "");

  constexpr std::uint64_t kMaxInt = 0x7FFFFFFF;
  net::Client::Options client_options;
  client_options.connect_timeout_ms =
      static_cast<int>(args.GetUint("connect-timeout-ms", 5000, kMaxInt));
  client_options.io_timeout_ms =
      static_cast<int>(args.GetUint("io-timeout-ms", 0, kMaxInt));
  net::RetryPolicy policy;
  policy.max_retries = static_cast<int>(args.GetUint("retries", 0, kMaxInt));
  policy.budget_ms = args.GetUint("retry-budget-ms", 15000);
  if (!args.status().ok()) return Fail(args.status());

  // Retries are opt-in, and gated for UPDATE: a retried update whose first
  // attempt actually executed (the response just never arrived) would
  // apply twice. --idempotent is the caller asserting that is safe.
  if (policy.max_retries > 0 && action == "update" &&
      !args.Has("idempotent")) {
    return Fail(Status::InvalidArgument(
        "remote update: --retries requires --idempotent (a retried update "
        "may apply twice when only the response was lost)"));
  }
  net::RetryStats retry_stats;
  auto response = net::CallWithRetry(*endpoint, request, client_options,
                                     policy, &retry_stats);
  if (!response.ok()) return Fail(response.status());
  if (retry_stats.attempts > 1) {
    std::cerr << "retried: " << retry_stats.attempts << " attempts, "
              << retry_stats.slept_ms << " ms backed off\n";
  }

  // BUSY is a temporary condition, not a failure of the request itself:
  // exit 75 (EX_TEMPFAIL) so wrappers can distinguish "try again later"
  // from a real error's exit 1.
  if (response->type == net::FrameType::kBusy) {
    net::BusyInfo busy = net::BusyInfoFromResponse(*response);
    std::cerr << net::ResponseToStatus(*response).ToString() << "\n";
    std::cerr << "busy: inflight=" << busy.inflight << "/" << busy.capacity
              << " queued=" << busy.queued
              << " retry_after_ms=" << busy.retry_after_ms
              << (busy.draining ? " (draining)" : "") << "\n";
    return kExitTempFail;
  }

  // The RESULT body is the payload (result table, JSON, or confirmation);
  // side data (stop_reason, focal tallies) goes to stderr so stdout stays
  // pipeable, exactly like the local verbs. ERROR/BUSY bodies reach stderr
  // through Fail below instead.
  if (response->type == net::FrameType::kResult) std::cout << response->body;
  if (response->HasHeader("stop_reason") &&
      response->Header("stop_reason", "none") != "none") {
    std::cerr << "stop_reason: " << response->Header("stop_reason", "none")
              << " (focal complete=" << response->Header("focal_complete", "0")
              << " approx=" << response->Header("focal_approx", "0")
              << " pending=" << response->Header("focal_pending", "0")
              << ")\n";
  }
  Status outcome = net::ResponseToStatus(*response);
  if (!outcome.ok()) return Fail(outcome);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "--version" || command == "version") {
    std::cout << BuildInfoString() << "\n";
    return 0;
  }
  if (command == "remote") {
    if (argc < 3) {
      std::cerr << "remote: an action is required "
                   "(query|update|status|metrics|load|unload|shutdown)\n";
      return Usage();
    }
    Args args(argc, argv, 3);
    return RunRemote(argv[2], args);
  }
  Args args(argc, argv, 2);
  if (command == "generate") return RunGenerate(args);
  if (command == "info") return RunInfo(args);
  if (command == "query") return RunQuery(args, /*stats_mode=*/false);
  if (command == "stats") return RunQuery(args, /*stats_mode=*/true);
  if (command == "update") return RunUpdate(args);
  std::cerr << "unknown subcommand: " << command << "\n";
  return Usage();
}
