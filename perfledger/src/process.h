#ifndef PERFLEDGER_PROCESS_H_
#define PERFLEDGER_PROCESS_H_

// Child processes of the ledger driver: the real `ecensusd` daemon, spawned
// from its built binary so every number is measured through the program a
// user runs.

#include <sys/types.h>

#include <string>
#include <vector>

#include "net/client.h"
#include "util/status.h"

namespace ledger {

using egocensus::Result;
using egocensus::Status;

/// How a reaped child ended.
struct ExitInfo {
  int wait_status = 0;     // as returned by waitpid
  bool exited_ok() const;  // exited normally with code 0
};

/// A spawned child with its stdout piped to the driver. The destructor kills
/// and reaps a child that is still running, so no path leaves one behind.
class Child {
 public:
  /// Spawns argv[0] (a path) with argv, its stderr sent to /dev/null.
  [[nodiscard]] static Result<Child> Spawn(const std::vector<std::string>& argv);

  Child(Child&& other) noexcept;
  Child& operator=(Child&&) = delete;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  pid_t pid() const { return pid_; }

  /// Reads one '\n'-terminated stdout line, waiting at most `timeout_ms`.
  [[nodiscard]] Result<std::string> ReadLine(int timeout_ms);

  /// Waits at most `timeout_ms` for the child to exit, then SIGKILLs it.
  [[nodiscard]] Result<ExitInfo> Wait(int timeout_ms);

 private:
  Child(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}
  void KillAndReap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::string buffered_;  // stdout bytes read past the last returned line
};

/// One running ecensusd serving one graph named "g".
class Daemon {
 public:
  /// Spawns `ecensusd --listen 127.0.0.1:0 --max-inflight 4`, reads the
  /// printed port, and LOADs `graph_path` as "g". `*setup_seconds` gets the
  /// time from spawn to the LOAD frame's RESULT. A non-empty `log_path`
  /// turns on the daemon's per-request wide events.
  [[nodiscard]] static Result<Daemon> Start(const std::string& binary,
                                            const std::string& graph_path,
                                            const std::string& log_path,
                                            double* setup_seconds);

  const egocensus::net::Endpoint& endpoint() const { return endpoint_; }

  /// The daemon's peak resident set (VmHWM), in MB.
  [[nodiscard]] Result<double> PeakRssMb() const;

  /// Sends SHUTDOWN and reaps the process.
  [[nodiscard]] Status Shutdown();

 private:
  Daemon(Child child, egocensus::net::Endpoint endpoint)
      : child_(std::move(child)), endpoint_(std::move(endpoint)) {}

  Child child_;
  egocensus::net::Endpoint endpoint_;
};

}  // namespace ledger

#endif  // PERFLEDGER_PROCESS_H_
