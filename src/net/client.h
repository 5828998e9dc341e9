#ifndef EGOCENSUS_NET_CLIENT_H_
#define EGOCENSUS_NET_CLIENT_H_

// Client side of the daemon protocol: one connection, synchronous
// request/response calls. Used by `ecensus remote`, the server tests, and
// bench/server_throughput — all three speak through exactly this surface,
// so the protocol has one encoder/decoder pair in the whole tree.

#include <cstdint>
#include <string>

#include "net/frame.h"
#include "net/socket.h"
#include "util/status.h"

namespace egocensus::net {

class Client {
 public:
  /// Transport knobs. The defaults match what an interactive CLI wants: a
  /// bounded connect (a blackholed server fails in seconds, not minutes)
  /// and unbounded I/O (census responses legitimately take as long as the
  /// request's own deadline allows).
  struct Options {
    int connect_timeout_ms = 5000;  ///< 0 = OS default blocking connect.
    int io_timeout_ms = 0;          ///< 0 = no send/recv timeout.
  };

  /// Connects to a running ecensusd (default Options).
  [[nodiscard]] static Result<Client> Connect(const Endpoint& endpoint);
  [[nodiscard]] static Result<Client> Connect(const Endpoint& endpoint,
                                              const Options& options);

  /// Sends one request frame and blocks for the response. Fails only on
  /// transport problems (send/recv); a server-side failure comes back as a
  /// successful Call whose message has type kError or kBusy.
  [[nodiscard]] Result<Message> Call(const Message& request);

  /// The connection's fd (tests use it to kill the link mid-request).
  int fd() const { return socket_.fd(); }

  /// Hard-closes the connection (the disconnect the server watches for).
  void Close() { socket_.Close(); }

  // -- Request builders (the header names of docs/SERVER.md) --------------

  /// QUERY against a loaded graph; `query_text` rides as the body. The
  /// optional census-shaping headers are the wire names of the option
  /// table in lang/query_spec.h; the caller adds them before Call.
  static Message QueryRequest(const std::string& graph,
                              const std::string& query_text);

  /// UPDATE: an update stream (dynamic/update_stream.h text format) as the
  /// body.
  static Message UpdateRequest(const std::string& graph,
                               const std::string& updates_text);

  static Message StatusRequest();
  static Message MetricsRequest();
  static Message LoadRequest(const std::string& name, const std::string& path);
  static Message UnloadRequest(const std::string& name);
  static Message ShutdownRequest();

 private:
  explicit Client(Socket socket) : socket_(std::move(socket)) {}

  Socket socket_;
};

/// Maps a response back to a Status using its exec_status/code headers, so
/// the remote CLI exits with the same codes the local CLI would (2 for
/// kInvalidArgument usage errors, 1 for governed stops and everything
/// else). kResult with exec_status OK maps to Ok.
[[nodiscard]] Status ResponseToStatus(const Message& response);

/// Inverse of StatusCodeName, for statuses that crossed the wire as text.
/// Unknown names map to kInternal.
StatusCode StatusCodeFromName(const std::string& name);

/// The structured admission state a BUSY response carries (docs/SERVER.md,
/// "Retry guidance"), parsed back out of its headers.
struct BusyInfo {
  std::uint64_t retry_after_ms = 0;  // server's backoff hint
  std::uint64_t inflight = 0;        // executing requests at rejection time
  std::uint64_t capacity = 0;        // execution slots
  std::uint64_t queued = 0;          // waiters in the fair queue
  bool draining = false;             // server is drain-flushing; go elsewhere
  std::string request_id;            // echoed id of the rejected request
};

/// Parses a kBusy (or load-shaped kError) response's headers. Fields the
/// server did not send stay at their zero defaults.
BusyInfo BusyInfoFromResponse(const Message& response);

/// Capped jittered exponential backoff for BUSY (and optionally transport)
/// failures. All retries off by default: max_retries = 0 reproduces a
/// plain Connect + Call.
struct RetryPolicy {
  int max_retries = 0;                  ///< additional attempts after the 1st
  std::uint64_t budget_ms = 15000;      ///< total wall-clock incl. sleeps
  std::uint64_t base_backoff_ms = 50;   ///< first sleep (doubles per retry)
  std::uint64_t max_backoff_ms = 2000;  ///< exponential cap
  bool retry_transport = false;  ///< also retry connect/send/recv failures —
                                 ///< only safe when the request is idempotent
  std::uint64_t jitter_seed = 0;  ///< 0 = clock-seeded; fixed in tests
};

/// What a CallWithRetry actually did (tests and `--verbose` reporting).
struct RetryStats {
  int attempts = 0;            // Call round-trips issued (>= 1)
  std::uint64_t slept_ms = 0;  // total backoff slept
};

/// One logical request with retries: fresh connection per attempt, backoff
/// = max(exponential, server's retry_after_ms hint) jittered to [0.5, 1.5]x
/// so synchronized clients do not re-stampede a recovering server. Returns
/// the final response (possibly still kBusy once attempts or budget run
/// out) or the final transport error.
[[nodiscard]] Result<Message> CallWithRetry(const Endpoint& endpoint,
                                            const Message& request,
                                            const Client::Options& options,
                                            const RetryPolicy& policy,
                                            RetryStats* stats = nullptr);

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_CLIENT_H_
