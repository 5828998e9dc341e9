#include "net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstring>

#include "util/strings.h"

namespace egocensus::net {

namespace {

// strerror() hands back a pointer into static storage — racy once the
// server has accept/worker threads formatting errors concurrently
// (concurrency-mt-unsafe). strerror_r is the reentrant form, but glibc's
// _GNU_SOURCE variant returns char* while the XSI variant returns int;
// overload dispatch on the actual signature keeps both building.
inline std::string StrErrorResult(char* result, const char* /*buf*/) {
  return result;  // GNU: may point into buf or immutable static storage
}
inline std::string StrErrorResult(int result, const char* buf) {
  return result == 0 ? buf : "unknown error";  // XSI: 0 = buf filled
}

std::string ErrnoMessage(int err) {
  char buf[256] = "unknown error";
  return StrErrorResult(::strerror_r(err, buf, sizeof(buf)), buf);
}

std::string Errno(const std::string& what) {
  return what + ": " + ErrnoMessage(errno);
}

/// Resolves `host` to an IPv4 address ("localhost", dotted quad, or a
/// resolvable name). Empty host = wildcard.
[[nodiscard]] Status ResolveHost(const std::string& host, in_addr* out) {
  if (host.empty()) {
    out->s_addr = htonl(INADDR_ANY);
    return Status::Ok();
  }
  if (inet_pton(AF_INET, host.c_str(), out) == 1) return Status::Ok();
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  int rc = getaddrinfo(host.c_str(), nullptr, &hints, &result);
  if (rc != 0 || result == nullptr) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + gai_strerror(rc));
  }
  *out = reinterpret_cast<sockaddr_in*>(result->ai_addr)->sin_addr;
  freeaddrinfo(result);
  return Status::Ok();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best effort: a socket that rejects TCP_NODELAY still works, just with
  // Nagle latency.
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::string Endpoint::ToString() const {
  return (host.empty() ? std::string("0.0.0.0") : host) + ":" +
         std::to_string(port);
}

[[nodiscard]] Result<Endpoint> ParseEndpoint(const std::string& text) {
  std::size_t colon = text.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("--connect target '" + text +
                                   "' is not HOST:PORT");
  }
  auto port = ParseUint(std::string_view(text).substr(colon + 1), 65535);
  if (!port.ok()) {
    return Status::InvalidArgument("--connect target '" + text +
                                   "' needs a port in [0, 65535]");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  endpoint.port = static_cast<std::uint16_t>(*port);
  return endpoint;
}

namespace {

/// Bounded connect: flip the socket non-blocking, start the handshake,
/// poll for writability, then read SO_ERROR for the actual outcome.
/// Restores blocking mode on success so the framed I/O path stays simple.
[[nodiscard]] Status ConnectWithTimeout(int fd, const sockaddr_in& addr,
                                        const Endpoint& endpoint,
                                        int timeout_ms) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Internal(Errno("fcntl O_NONBLOCK"));
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::NotFound(Errno("cannot connect to " + endpoint.ToString()));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) return Status::Internal(Errno("poll (connect)"));
    if (ready == 0) {
      return Status::DeadlineExceeded("connect to " + endpoint.ToString() +
                                      " timed out after " +
                                      std::to_string(timeout_ms) + " ms");
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Status::Internal(Errno("getsockopt SO_ERROR"));
    }
    if (err != 0) {
      return Status::NotFound("cannot connect to " + endpoint.ToString() +
                              ": " + ErrnoMessage(err));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) != 0) {
    return Status::Internal(Errno("fcntl restore flags"));
  }
  return Status::Ok();
}

}  // namespace

Result<Socket> Socket::ConnectTcp(const Endpoint& endpoint,
                                  int connect_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  Status resolved = ResolveHost(endpoint.host, &addr.sin_addr);
  if (!resolved.ok()) return resolved;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  if (connect_timeout_ms > 0) {
    Status connected = ConnectWithTimeout(fd, addr, endpoint,
                                          connect_timeout_ms);
    if (!connected.ok()) {
      ::close(fd);
      return connected;
    }
  } else if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)) != 0) {
    Status status = Status::NotFound(
        Errno("cannot connect to " + endpoint.ToString()));
    ::close(fd);
    return status;
  }
  SetNoDelay(fd);
  return Socket(fd);
}

Status Socket::SetIoTimeout(int timeout_ms) {
  if (fd_ < 0) return Status::Internal("timeout on a closed socket");
  if (timeout_ms < 0) {
    return Status::InvalidArgument("io timeout must be >= 0");
  }
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(timeout_ms % 1000) * 1000;
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal(Errno("setsockopt SO_RCVTIMEO"));
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal(Errno("setsockopt SO_SNDTIMEO"));
  }
  return Status::Ok();
}

Status Socket::SendFrame(const Message& message) {
  std::vector<std::uint8_t> frame = EncodeFrame(message);
  return SendRaw(frame.data(), frame.size());
}

Status Socket::SendRaw(const void* data, std::size_t size) {
  if (fd_ < 0) return Status::Internal("send on a closed socket");
  const std::uint8_t* bytes = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < size) {
    // MSG_NOSIGNAL: a peer that vanished mid-response yields EPIPE, not a
    // process-killing SIGPIPE.
    ssize_t n = ::send(fd_, bytes + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("send timed out (io timeout)");
      }
      return Status::Internal(Errno("send"));
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Result<Message> Socket::RecvFrame() {
  if (fd_ < 0) return Status::Internal("recv on a closed socket");
  while (true) {
    Message message;
    std::size_t consumed = 0;
    std::string error;
    DecodeResult decoded = TryDecodeFrame(buffer_.data(), buffer_.size(),
                                          &message, &consumed, &error);
    if (decoded == DecodeResult::kFrame) {
      buffer_.erase(buffer_.begin(),
                    buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return message;
    }
    if (decoded == DecodeResult::kCorrupt) {
      return Status::ParseError(error);
    }
    std::uint8_t chunk[16384];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("recv timed out (io timeout)");
      }
      return Status::Internal(Errno("recv"));
    }
    if (n == 0) {
      if (buffer_.empty()) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::ParseError(
          "peer closed the connection inside a frame (" +
          std::to_string(buffer_.size()) + " bytes of an incomplete frame)");
    }
    buffer_.insert(buffer_.end(), chunk, chunk + n);
  }
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Listener::Listen(const Endpoint& endpoint, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  Status resolved = ResolveHost(endpoint.host, &addr.sin_addr);
  if (!resolved.ok()) return resolved;

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status =
        errno == EADDRINUSE
            ? Status::ResourceExhausted("port " +
                                        std::to_string(endpoint.port) +
                                        " is already in use")
            : Status::Internal(Errno("bind " + endpoint.ToString()));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Status::Internal(Errno("listen"));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status status = Status::Internal(Errno("getsockname"));
    ::close(fd);
    return status;
  }
  fd_ = fd;
  port_ = ntohs(bound.sin_port);
  return Status::Ok();
}

Result<Socket> Listener::AcceptOnce(int timeout_ms) {
  if (fd_ < 0) return Status::Cancelled("listener closed");
  pollfd pfd{fd_, POLLIN, 0};
  int rc = ::poll(&pfd, 1, timeout_ms);
  if (rc < 0) {
    // EINTR is not a timeout: with timeout_ms == -1 a kNotFound here would
    // masquerade as a poll tick that cannot happen, and callers would spin
    // past their stop-flag check. Surface it distinctly.
    if (errno == EINTR) return Status::Interrupted("accept poll interrupted");
    return Status::Internal(Errno("poll"));
  }
  if (rc == 0) return Status::NotFound("accept timeout");
  int client = ::accept(fd_, nullptr, nullptr);
  if (client < 0) {
    // EINVAL: the listener was shut down from another thread mid-accept.
    if (errno == EINVAL) return Status::Cancelled("listener shut down");
    return Status::Internal(Errno("accept"));
  }
  SetNoDelay(client);
  return Socket(client);
}

void Listener::Close() {
  if (fd_ >= 0) {
    // shutdown() first so a concurrently blocked AcceptOnce wakes with
    // EINVAL instead of racing a reused fd number.
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace egocensus::net
