#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "util/timer.h"

extern char** environ;

namespace ledger {

using egocensus::Timer;
namespace net = egocensus::net;

bool ExitInfo::exited_ok() const {
  return WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
}

Result<Child> Child::Spawn(const std::vector<std::string>& argv) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe2: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::Internal("spawn " + argv[0] + ": " + std::strerror(rc));
  }
  return Child(pid, fds[0]);
}

Child::Child(Child&& other) noexcept
    : pid_(other.pid_),
      stdout_fd_(other.stdout_fd_),
      buffered_(std::move(other.buffered_)) {
  other.pid_ = -1;
  other.stdout_fd_ = -1;
}

Child::~Child() {
  KillAndReap();
  if (stdout_fd_ >= 0) close(stdout_fd_);
}

void Child::KillAndReap() {
  if (pid_ <= 0) return;
  kill(pid_, SIGKILL);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

Result<std::string> Child::ReadLine(int timeout_ms) {
  Timer timer;
  while (true) {
    std::size_t eol = buffered_.find('\n');
    if (eol != std::string::npos) {
      std::string line = buffered_.substr(0, eol);
      buffered_.erase(0, eol + 1);
      return line;
    }
    int left = timeout_ms - static_cast<int>(timer.ElapsedMillis());
    if (left <= 0) return Status::DeadlineExceeded("no line from child");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (poll(&pfd, 1, left) <= 0) continue;
    char chunk[4096];
    ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n == 0) return Status::NotFound("child closed stdout");
    if (n < 0 && errno != EINTR) {
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    if (n > 0) buffered_.append(chunk, static_cast<std::size_t>(n));
  }
}

Result<ExitInfo> Child::Wait(int timeout_ms) {
  Timer timer;
  while (pid_ > 0) {
    int status = 0;
    pid_t rc = waitpid(pid_, &status, WNOHANG);
    if (rc == pid_) {
      pid_ = -1;
      return ExitInfo{status};
    }
    if (rc < 0 && errno != EINTR) {
      return Status::Internal(std::string("waitpid: ") + std::strerror(errno));
    }
    if (timer.ElapsedMillis() > timeout_ms) {
      KillAndReap();
      return Status::DeadlineExceeded("child did not exit in time; killed");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return Status::Internal("child already reaped");
}

Result<Daemon> Daemon::Start(const std::string& binary,
                             const std::string& graph_path,
                             const std::string& log_path,
                             double* setup_seconds) {
  Timer timer;
  std::vector<std::string> argv = {binary, "--listen", "127.0.0.1:0",
                                   "--max-inflight", "4"};
  if (!log_path.empty()) {
    argv.push_back("--log-file");
    argv.push_back(log_path);
  }
  auto child = Child::Spawn(argv);
  if (!child.ok()) return child.status();
  // The daemon prints "... listening on HOST:PORT (...)" once it accepts.
  net::Endpoint endpoint;
  while (true) {
    auto line = child->ReadLine(10000);
    if (!line.ok()) return line.status();
    const std::string marker = "listening on ";
    std::size_t at = line->find(marker);
    if (at == std::string::npos) continue;
    std::string rest = line->substr(at + marker.size());
    auto parsed = net::ParseEndpoint(rest.substr(0, rest.find(' ')));
    if (!parsed.ok()) return parsed.status();
    endpoint = *parsed;
    break;
  }
  auto client = net::Client::Connect(endpoint);
  if (!client.ok()) return client.status();
  auto loaded = client->Call(net::Client::LoadRequest("g", graph_path));
  if (!loaded.ok()) return loaded.status();
  if (loaded->type != net::FrameType::kResult) {
    return Status::Internal("LOAD failed: " + loaded->body);
  }
  *setup_seconds = timer.ElapsedSeconds();
  return Daemon(std::move(*child), endpoint);
}

Result<double> Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(child_.pid()) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 10, '\n');
  }
  return Status::NotFound("VmHWM missing from /proc status");
}

Status Daemon::Shutdown() {
  auto client = net::Client::Connect(endpoint_);
  if (client.ok()) {
    auto response = client->Call(net::Client::ShutdownRequest());
    (void)response;  // the daemon may hang up before answering
  }
  auto exited = child_.Wait(10000);
  if (!exited.ok()) return exited.status();
  if (!exited->exited_ok()) return Status::Internal("ecensusd exited non-zero");
  return Status::Ok();
}

}  // namespace ledger
