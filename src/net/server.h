#ifndef EGOCENSUS_NET_SERVER_H_
#define EGOCENSUS_NET_SERVER_H_

// ecensusd's engine room: a multi-client census server over the net/frame
// protocol (docs/SERVER.md).
//
// Threading model: one accept thread plus one thread per live connection —
// not an event loop, because a census request is seconds of CPU, not
// microseconds of I/O, so the bound that matters is admission control on
// in-flight work, not descriptor fan-in. Heavy requests (QUERY/UPDATE)
// pass through a bounded per-tenant fair queue (net/queue.h) feeding
// Options::max_inflight execution slots: a burst waits briefly instead of
// failing, one tenant cannot starve the rest, queue wait is charged
// against the request's deadline, and anything beyond the depth/byte
// bounds still gets a structured BUSY — now with a retry_after_ms hint —
// so the daemon never queues unboundedly. Cheap requests
// (STATUS/LOAD/UNLOAD/SHUTDOWN) bypass the queue so the daemon stays
// observable and administrable while saturated, including during a
// graceful drain (Drain): stop accepting, serve or BUSY-flush the queue
// within a budget, then shut down.
//
// Every QUERY/UPDATE runs under its own exec::Governor built from the
// request's deadline_ms / memory_budget_mb / threads headers (parsed by
// lang/query_spec.h, like every query option), each clamped by the
// server-wide caps, with a disconnect watcher polling the client
// socket: a client that vanishes mid-request cancels its census at the
// next cooperative checkpoint instead of burning the server for nothing.
//
// Graph state lives in the GraphRegistry (net/registry.h): QUERY holds an
// entry's lock shared, UPDATE exclusive, so updates serialize against
// in-flight queries per graph and queries always see a consistent
// snapshot + indexes.
//
// STATUS and METRICS render one DaemonSnapshot. Snapshot() reads the
// counters, the fair queue (under one lock), the graph summaries and the
// request rings once; STATUS serializes that value as JSON, and METRICS
// names the same facts as registry metrics (`daemon/...`) and renders them
// with the obs Prometheus exporter, so a fact reads the same in both.

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "lang/query_spec.h"
#include "net/frame.h"
#include "net/queue.h"
#include "net/registry.h"
#include "net/request_context.h"
#include "net/socket.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace egocensus::net {

class CensusServer {
 public:
  struct Options {
    /// Listen endpoint; port 0 binds an ephemeral port (read via port()).
    Endpoint listen;

    /// Admission cap: QUERY/UPDATE requests executing at once. Beyond it,
    /// requests wait in the fair queue (or get BUSY once that fills).
    std::uint32_t max_inflight = 8;

    /// Requests that may wait beyond the execution slots, across all
    /// tenants. 0 restores the legacy reject-on-full behavior.
    std::size_t queue_depth = 64;

    /// Total request payload bytes that may sit queued at once.
    std::uint64_t queue_bytes = 32ull << 20;

    /// DRR quantum: requests granted per tenant per scheduling round.
    std::uint64_t queue_quantum = 1;

    /// Queued-waiter self-check period (deadline expiry, client
    /// disconnect, drain flush).
    int queue_poll_ms = 5;

    // Server-wide caps clamping the per-request limits. 0 = uncapped: the
    // request's own header applies verbatim (and an uncapped request stays
    // uncapped).
    std::uint64_t max_deadline_ms = 0;
    std::uint64_t max_memory_budget_mb = 0;
    std::uint32_t max_threads = 0;

    /// Entries kept in the recent-request ring surfaced by STATUS.
    std::size_t ring_capacity = 64;

    /// Disconnect-watcher poll period. Small: this bounds how long a
    /// cancelled client's census keeps running.
    int disconnect_poll_ms = 5;

    /// Requests slower than this capture their span tree into the
    /// slow-query ring (docs/OBSERVABILITY.md, "Request telemetry").
    /// 0 disables capture.
    std::uint64_t slow_query_threshold_ms = 0;

    /// Entries kept in the slow-query ring.
    std::size_t slow_ring_capacity = 16;
  };

  /// Execution counters (monotone since Start).
  struct Counters {
    std::uint64_t connections = 0;        // accepted sockets
    std::uint64_t requests = 0;           // frames dispatched
    std::uint64_t completed = 0;          // responses sent
    std::uint64_t busy_rejected = 0;      // admission-control rejections
    std::uint64_t protocol_errors = 0;    // corrupt/truncated frames
    std::uint64_t disconnect_cancels = 0; // censuses cancelled by hangup
  };

  /// One recent request, as surfaced in STATUS "recent" (newest first).
  struct RequestRecord {
    std::string request_id;   // server-assigned or client-propagated id
    std::string type;         // frame-type name
    std::string graph;        // graph header ("" for STATUS/SHUTDOWN)
    std::string tenant;       // fair-queue tenant ("" for bypass verbs)
    std::string exec_status;  // StatusCodeName of the outcome
    std::string stop_reason;  // StopReasonName ("none" unless governed stop)
    std::uint64_t latency_us = 0;
    std::uint64_t queue_us = 0;   // fair-queue + graph-lock wait
    std::uint64_t bytes_in = 0;   // request payload bytes
    std::uint64_t bytes_out = 0;  // response payload bytes
  };

  /// One captured slow request: the ring entry behind STATUS
  /// "slow_queries" and the `slow_trace` Chrome-trace dump. Spans are
  /// request-local (queue wait, execute window, per-aggregate census
  /// phases), so capture never races the global tracer.
  struct SlowQueryRecord {
    std::string request_id;
    std::string type;
    std::string graph;
    std::string exec_status;
    std::string stop_reason;
    std::uint64_t received_us = 0;  // server clock at dispatch
    std::uint64_t latency_us = 0;
    std::vector<PhaseSpan> spans;
  };

  /// One read of everything STATUS and METRICS report. Snapshot() is the
  /// only code that reads the live state behind those two surfaces; both
  /// render this value, so a fact reads the same in each.
  struct DaemonSnapshot {
    std::uint64_t uptime_us = 0;
    Counters counters;
    /// Requests dispatched per request verb, in frame-type order.
    std::map<FrameType, std::uint64_t> verbs;
    QueueSnapshot queue;
    std::vector<GraphSummary> graphs;
    std::deque<RequestRecord> recent;           // newest first
    std::deque<SlowQueryRecord> slow_queries;  // newest first
  };

  explicit CensusServer(Options options);
  ~CensusServer();

  CensusServer(const CensusServer&) = delete;
  CensusServer& operator=(const CensusServer&) = delete;

  /// Binds + listens + spawns the accept thread. Fails (without leaking a
  /// thread) when the port is taken or the host does not resolve.
  [[nodiscard]] Status Start();

  /// Blocks until the server has fully shut down (RequestShutdown from any
  /// thread, or a SHUTDOWN frame).
  void Wait();

  /// Initiates shutdown: stop accepting, hang up live connections, join
  /// workers. Safe from any thread; idempotent. (Not async-signal-safe —
  /// signal handlers should set a flag and let the main thread call this;
  /// see ecensusd.)
  void RequestShutdown();

  /// Outcome of a graceful drain.
  struct DrainResult {
    bool completed = false;    // queue emptied within the budget
    std::size_t flushed = 0;   // queued requests answered BUSY instead
  };

  /// Graceful drain (the SIGTERM path): stop accepting new connections and
  /// reject new QUERY/UPDATE frames with BUSY, serve the already-queued
  /// requests for up to `drain_ms`, BUSY-flush whatever is still queued at
  /// the deadline, wait briefly for in-flight responses to reach the wire,
  /// then RequestShutdown. Blocks until shutdown is initiated; call Wait()
  /// afterwards as usual. Safe from any thread except the accept thread.
  DrainResult Drain(std::uint64_t drain_ms);

  bool ShutdownRequested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

  /// Bound port (valid after Start; resolves ephemeral binds).
  std::uint16_t port() const { return listener_.port(); }

  /// Graph registry; pre-load graphs before Start or via LOAD frames after.
  GraphRegistry& registry() { return registry_; }

  /// Currently executing QUERY/UPDATE requests.
  std::uint32_t inflight() const { return queue_.active(); }

  /// The fair admission queue (tests wait on its depth).
  const FairRequestQueue& queue() const { return queue_; }

  /// Reads the server's counters, queue, graphs and rings (each under its
  /// own lock) into one value.
  DaemonSnapshot Snapshot() const;

 private:
  struct Connection {
    Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(Connection* connection);

  /// Dispatches one request frame; returns the response to send.
  /// `client_fd` powers the disconnect watcher; `*close_after` is set by
  /// SHUTDOWN.
  Message Dispatch(const Message& request, int client_fd, bool* close_after);

  Message HandleQuery(const Message& request, const QuerySpec& spec,
                      int client_fd, RequestContext& ctx);
  Message HandleUpdate(const Message& request, int client_fd,
                       RequestContext& ctx);
  Message HandleStatus(const Message& request, RequestContext& ctx);
  Message HandleMetrics(const Message& request, RequestContext& ctx);
  Message HandleLoad(const Message& request, RequestContext& ctx);
  Message HandleUnload(const Message& request, RequestContext& ctx);

  /// End-of-request bookkeeping, one call per dispatched frame: the STATUS
  /// ring entry, request-scoped metrics, the wide log event, and (past the
  /// threshold) the slow-query capture.
  void FinishRequest(const RequestContext& ctx, const Message& request,
                     const Message& response, std::uint64_t latency_us);

  /// How long an overflowed/dead-on-arrival client should wait before
  /// retrying: queue pressure ahead of it times an EWMA of recent execute
  /// times, clamped to [25ms, 10s].
  std::uint64_t RetryAfterMsHint() const;

  // egolint: no-guard(immutable after construction, read lock-free)
  Options options_;
  /// Owned by the accept thread after Start (AcceptLoop closes it).
  // egolint: no-guard(accept-thread-owned after Start)
  Listener listener_;
  /// Internally synchronized (its own mutex_ capability).
  // egolint: no-guard(internally synchronized, see net/registry.h)
  GraphRegistry registry_;
  /// Internally synchronized (its own mu_ capability).
  // egolint: no-guard(internally synchronized, see net/queue.h)
  FairRequestQueue queue_;
  /// Written once in Start before any worker thread exists.
  // egolint: no-guard(written before threads start, read-only after)
  std::uint64_t started_micros_ = 0;

  /// Touched only by Start and the shutdown path, serialized by shutdown_.
  // egolint: no-guard(Start/Wait lifecycle only, never concurrent)
  std::thread accept_thread_;
  std::atomic<bool> shutdown_{false};

  Mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_
      EGO_GUARDED_BY(connections_mutex_);

  /// EWMA of QUERY/UPDATE execute time feeding retry_after_ms hints.
  std::atomic<std::uint64_t> exec_ewma_us_{0};
  std::atomic<std::uint64_t> connections_count_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnect_cancels_{0};

  /// Per-verb dispatch tallies, indexed by the request-type byte
  /// (0x01..0x07). Slot 0 is unused.
  std::array<std::atomic<std::uint64_t>, 8> verb_counts_{};

  /// Sequence for server-assigned request ids (net/request_context.h).
  std::atomic<std::uint64_t> request_seq_{0};

  mutable Mutex ring_mutex_;
  std::deque<RequestRecord> ring_ EGO_GUARDED_BY(ring_mutex_);

  mutable Mutex slow_mutex_;
  std::deque<SlowQueryRecord> slow_ring_ EGO_GUARDED_BY(slow_mutex_);
};

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_SERVER_H_
