// ecensusd — the census daemon: loads graphs once, then serves QUERY /
// UPDATE / STATUS / LOAD / UNLOAD / SHUTDOWN frames to concurrent clients
// over the net/frame protocol (docs/SERVER.md).
//
//   ecensusd --listen HOST:PORT [--graph NAME=FILE]... [--max-inflight N]
//            [--queue-depth N] [--queue-bytes-mb MB] [--drain-ms MS]
//            [--max-deadline-ms MS] [--max-memory-budget-mb MB]
//            [--max-threads T] [--obs] [--version]
//
// Exit codes follow the ecensus contract: 2 for usage errors, 1 for
// everything else (port in use, unreadable graph file). SIGINT shuts down
// immediately: stop accepting, hang up clients, join workers, exit 0.
// SIGTERM drains gracefully first: stop accepting, serve or BUSY-flush the
// queue within --drain-ms, then the same clean shutdown — so a rolling
// restart never drops an admitted request on the floor.

#include <csignal>
#include <iostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/server.h"
#include "obs/log.h"
#include "obs/obs.h"
#include "util/build_info.h"
#include "util/strings.h"

namespace {

using namespace egocensus;

// Signal handlers may only touch lock-free state; the main thread polls
// this and runs the actual (lock-taking) shutdown.
volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int signum) { g_signal = signum; }

int Usage() {
  std::cerr <<
      "usage:\n"
      "  ecensusd --listen HOST:PORT [--graph NAME=FILE]...\n"
      "           [--max-inflight N (default 8)]\n"
      "           [--queue-depth N (default 64; 0 = reject-on-full)]\n"
      "           [--queue-bytes-mb MB (default 32)]\n"
      "           [--drain-ms MS (default 5000; SIGTERM drain budget)]\n"
      "           [--max-deadline-ms MS] [--max-memory-budget-mb MB]\n"
      "           [--max-threads T] [--ring N] [--obs]\n"
      "           [--log-file PATH | --log-stderr] [--log-level LEVEL]\n"
      "           [--log-rate N] [--slow-query-ms MS] [--slow-ring N]\n"
      "  ecensusd --version\n"
      "\n"
      "Serves census queries over TCP (protocol: docs/SERVER.md). Graphs\n"
      "load once at startup (--graph) or at runtime (LOAD frames); QUERY\n"
      "and UPDATE requests run under per-request governors clamped by the\n"
      "--max-* caps. Beyond --max-inflight, requests wait in a per-tenant\n"
      "fair queue bounded by --queue-depth/--queue-bytes-mb; past the\n"
      "bound they get BUSY with a retry_after_ms hint. SIGTERM drains\n"
      "gracefully within --drain-ms before exiting.\n"
      "\n"
      "Request telemetry (docs/OBSERVABILITY.md): --log-file/--log-stderr\n"
      "emit one JSON line per request (level floor --log-level, at most\n"
      "--log-rate lines/s); requests slower than --slow-query-ms are\n"
      "captured into a ring of --slow-ring entries retrievable via STATUS.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  net::CensusServer::Options options;
  std::vector<std::pair<std::string, std::string>> graphs;  // name, path
  bool have_listen = false;
  bool obs_on = false;
  std::uint64_t drain_ms = 5000;
  std::string log_file;
  bool log_stderr = false;
  std::string log_level;
  std::uint64_t log_rate = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    // This flag's value as an integer in [0, max]; false (a usage error)
    // when it is missing, malformed or out of range.
    auto number = [&](std::uint64_t max, auto* out) {
      const char* v = value(arg.c_str());
      if (v == nullptr) return false;
      auto parsed = ParseUint(v, max);
      if (!parsed.ok()) {
        std::cerr << arg << ": " << parsed.status().message() << "\n";
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(*parsed);
      return true;
    };
    if (arg == "--version") {
      std::cout << BuildInfoString() << "\n";
      return 0;
    } else if (arg == "--listen") {
      const char* v = value("--listen");
      if (v == nullptr) return Usage();
      auto endpoint = net::ParseEndpoint(v);
      if (!endpoint.ok()) {
        std::cerr << endpoint.status().ToString() << "\n";
        return Usage();
      }
      options.listen = *endpoint;
      have_listen = true;
    } else if (arg == "--graph") {
      const char* v = value("--graph");
      if (v == nullptr) return Usage();
      std::string spec = v;
      std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        std::cerr << "--graph expects NAME=FILE, got '" << spec << "'\n";
        return Usage();
      }
      graphs.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--max-inflight") {
      if (!number(~0u, &options.max_inflight)) return Usage();
      if (options.max_inflight == 0) {
        std::cerr << "--max-inflight must be >= 1\n";
        return Usage();
      }
    } else if (arg == "--queue-depth") {
      if (!number(~0ull, &options.queue_depth)) return Usage();
    } else if (arg == "--queue-bytes-mb") {
      if (!number(~0ull >> 20, &options.queue_bytes)) return Usage();
      options.queue_bytes <<= 20;
    } else if (arg == "--drain-ms") {
      if (!number(~0ull, &drain_ms)) return Usage();
    } else if (arg == "--max-deadline-ms") {
      if (!number(~0ull, &options.max_deadline_ms)) return Usage();
    } else if (arg == "--max-memory-budget-mb") {
      if (!number(~0ull, &options.max_memory_budget_mb)) return Usage();
    } else if (arg == "--max-threads") {
      if (!number(~0u, &options.max_threads)) return Usage();
    } else if (arg == "--ring") {
      if (!number(~0ull, &options.ring_capacity)) return Usage();
    } else if (arg == "--obs") {
      obs_on = true;
    } else if (arg == "--log-file") {
      const char* v = value("--log-file");
      if (v == nullptr) return Usage();
      log_file = v;
    } else if (arg == "--log-stderr") {
      log_stderr = true;
    } else if (arg == "--log-level") {
      const char* v = value("--log-level");
      if (v == nullptr) return Usage();
      log_level = v;
    } else if (arg == "--log-rate") {
      if (!number(~0ull, &log_rate)) return Usage();
    } else if (arg == "--slow-query-ms") {
      if (!number(~0ull, &options.slow_query_threshold_ms)) return Usage();
    } else if (arg == "--slow-ring") {
      if (!number(~0ull, &options.slow_ring_capacity)) return Usage();
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return Usage();
    }
  }
  if (!have_listen) {
    std::cerr << "--listen is required\n";
    return Usage();
  }
  if (obs_on) obs::SetEnabled(true);

  if (!log_file.empty() && log_stderr) {
    std::cerr << "--log-file and --log-stderr are mutually exclusive\n";
    return Usage();
  }
  obs::Logger& logger = obs::Logger::Global();
  if (!log_file.empty()) {
    Status opened = logger.OpenFile(log_file);
    if (!opened.ok()) {
      std::cerr << opened.ToString() << "\n";
      return Usage();
    }
  } else if (log_stderr) {
    logger.UseStderr();
  }
  if (!log_level.empty()) {
    logger.SetMinLevel(obs::LogLevelFromName(log_level));
  }
  if (log_rate > 0) logger.SetRateLimit(log_rate);

  net::CensusServer server(options);
  for (const auto& [name, path] : graphs) {
    Status loaded = server.registry().LoadFromFile(name, path);
    if (!loaded.ok()) {
      std::cerr << loaded.ToString() << "\n";
      return 1;
    }
    std::cerr << "loaded graph '" << name << "' from " << path << "\n";
  }

  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    return 1;
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGPIPE, SIG_IGN);

  // The smoke job and scripts wait for this exact line (stdout, flushed)
  // before connecting; the printed port resolves ephemeral binds.
  std::cout << BuildInfoString() << " listening on " << options.listen.host
            << ":" << server.port() << " (" << graphs.size()
            << " graphs resident, max-inflight=" << options.max_inflight
            << ", queue-depth=" << options.queue_depth << ")" << std::endl;

  while (!server.ShutdownRequested() && g_signal == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (g_signal == SIGTERM) {
    // Graceful drain: stop accepting, serve or BUSY-flush the queue within
    // the budget, wait for in-flight responses, then shut down.
    std::cerr << "signal " << g_signal << ": draining (budget " << drain_ms
              << " ms)\n";
    net::CensusServer::DrainResult drained = server.Drain(drain_ms);
    std::cerr << "drain " << (drained.completed ? "completed" : "timed out")
              << " (" << drained.flushed << " queued requests flushed)\n";
  } else if (g_signal != 0) {
    std::cerr << "signal " << g_signal << ": shutting down\n";
  }
  server.RequestShutdown();
  server.Wait();
  std::cout << "ecensusd: clean shutdown\n";
  return 0;
}
