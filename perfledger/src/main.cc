// ledger — the seeded performance ledger of ecensusd.
//
//   ledger --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//          [--smoke] [--out LEDGER.jsonl]
//          [--trace-out TRACE.json] [--work DIR]
//
// Runs the named workload (perfledger/README.md) against the built daemon,
// checks every response against an in-process reference, and prints each
// metric by name with its unit and sample count. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics, or with --trace 1 the per-layer ones. --out appends
// the run, detail rows included, as one JSON line.
// Exits 1 when any output was wrong or any operation failed, 2 on usage.

#include <cmath>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.h"
#include "util/strings.h"
#include "workloads.h"

namespace {

using namespace ledger;

int Usage(const std::string& problem) {
  std::cerr << "ledger: " << problem << "\n"
            << "usage: ledger --workload "
               "ego_drilldown|full_census|update_mix|all\n"
               "              [--seed N] [--seconds S] [--trace 0|1] "
               "[--smoke]\n"
               "              [--out LEDGER.jsonl] [--trace-out TRACE.json] "
               "[--work DIR]\n";
  return 2;
}

double Finite(double value) { return std::isfinite(value) ? value : 0.0; }

void WriteMetrics(std::ostream& os, const std::vector<Metric>& metrics,
                  bool with_samples) {
  os << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << egocensus::JsonEscape(metrics[i].name)
       << "\": {\"value\": " << Finite(metrics[i].value) << ", \"unit\": \""
       << egocensus::JsonEscape(metrics[i].unit) << "\"";
    if (with_samples) os << ", \"samples\": " << metrics[i].samples;
    os << "}";
  }
  os << "}";
}

std::string LedgerLine(const RunOptions& o, const RunResult& r) {
  std::ostringstream os;
  os << std::setprecision(10) << "{\"workload\": \"" << WorkloadName(o.workload)
     << "\", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
     << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"smoke\": " << (o.smoke ? "true" : "false")
     << ", \"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": ";
  WriteMetrics(os, r.metrics, true);
  os << ", \"detail\": ";
  WriteMetrics(os, r.detail, true);
  os << ", \"notes\": [";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << egocensus::JsonEscape(r.notes[i]) << "\"";
  }
  os << "]}";
  return os.str();
}

void PrintTable(Workload workload, const RunResult& r) {
  auto print = [&](const Metric& m) {
    std::cout << std::left << std::setw(15) << WorkloadName(workload)
              << std::setw(28) << m.name << std::right << std::setw(14)
              << std::setprecision(6) << Finite(m.value) << " " << std::left
              << std::setw(6) << m.unit << " n=" << m.samples << "\n";
  };
  for (const Metric& m : r.metrics) print(m);
  for (const Metric& m : r.detail) print(m);
  std::cout << std::left << std::setw(15) << WorkloadName(workload)
            << "attempted=" << r.attempted << " failed=" << r.failed
            << (r.correct ? " correct" : " INCORRECT") << "\n";
  for (const std::string& note : r.notes) {
    std::cerr << WorkloadName(workload) << ": " << note << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead child surfaces as a write error
  RunOptions base;
  base.ecensusd = LEDGER_ECENSUSD;
  base.work_dir = LEDGER_WORK_DIR;
  std::string workload_arg, out_path, trace_out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      base.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(arg + " needs a value");
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload_arg = value;
    } else if (arg == "--seed") {
      base.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      base.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(base.seconds > 0)) {
        return Usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      base.trace = value == "1";
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--work") {
      base.work_dir = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  std::vector<Workload> workloads;
  for (Workload w : kAllWorkloads) {
    if (workload_arg == "all" || workload_arg == WorkloadName(w)) {
      workloads.push_back(w);
    }
  }
  if (workloads.empty()) {
    return Usage("unknown --workload '" + workload_arg + "'");
  }
  std::error_code ec;
  std::filesystem::create_directories(base.work_dir, ec);
  if (ec) return Usage("cannot create " + base.work_dir + ": " + ec.message());
  base.work_dir = std::filesystem::absolute(base.work_dir).string();

  RunResult total;
  for (Workload workload : workloads) {
    RunOptions o = base;
    o.workload = workload;
    o.trace_out = !trace_out.empty() ? trace_out
                                     : o.work_dir + "/trace-" +
                                           WorkloadName(workload) + ".json";
    if (workloads.size() > 1 && !trace_out.empty()) {
      o.trace_out = trace_out + "." + WorkloadName(workload);
    }
    RunResult r = RunWorkload(o);
    PrintTable(workload, r);
    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::app);
      out << LedgerLine(o, r) << "\n";
      if (!out) std::cerr << "ledger: cannot append to " << out_path << "\n";
    }
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    const std::string prefix =
        workloads.size() > 1 ? std::string(WorkloadName(workload)) + "/" : "";
    for (Metric m : r.metrics) {
      m.name = prefix + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  std::cout << std::setprecision(10) << "{\"correct\": "
            << (total.correct ? "true" : "false")
            << ", \"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed << ", \"metrics\": ";
  WriteMetrics(std::cout, total.metrics, false);
  std::cout << "}" << std::endl;
  return total.correct && total.failed == 0 && total.attempted > 0 ? 0 : 1;
}
