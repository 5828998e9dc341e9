#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "dynamic/update_stream.h"
#include "exec/governor.h"
#include "lang/engine.h"
#include "lang/query_spec.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/prometheus.h"
#include "util/build_info.h"
#include "util/strings.h"
#include "util/timer.h"

namespace egocensus::net {

namespace {

/// Applies a server-wide cap to a per-request limit. 0 means "uncapped" on
/// both sides: no cap passes the request through, no request limit adopts
/// the cap (a server with caps never runs an unbounded request).
std::uint64_t ClampLimit(std::uint64_t requested, std::uint64_t cap) {
  if (cap == 0) return requested;
  if (requested == 0) return cap;
  return std::min(requested, cap);
}

/// Payload bytes a message encodes to (headers + separators + body), for
/// the ring buffer's bytes_in/bytes_out without re-encoding the frame.
std::uint64_t PayloadBytes(const Message& message) {
  std::uint64_t bytes = 1 + message.body.size();  // blank separator line
  for (const auto& [key, value] : message.headers) {
    bytes += key.size() + 2 + value.size() + 1;  // "key: value\n"
  }
  return bytes;
}

/// Watches a client socket while its request executes; a hangup cancels
/// the request's governor at the next cooperative checkpoint. Polls with
/// POLLRDHUP (half-close detection) plus a zero-byte MSG_PEEK probe on
/// POLLIN so pipelined request bytes are not mistaken for a disconnect.
class DisconnectWatcher {
 public:
  DisconnectWatcher(int fd, Governor* governor, int poll_ms,
                    std::atomic<std::uint64_t>* cancel_counter)
      : fd_(fd), governor_(governor), poll_ms_(poll_ms),
        cancel_counter_(cancel_counter) {
    thread_ = std::thread([this] { Loop(); });
  }

  ~DisconnectWatcher() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  DisconnectWatcher(const DisconnectWatcher&) = delete;
  DisconnectWatcher& operator=(const DisconnectWatcher&) = delete;

 private:
  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      pollfd pfd{fd_, POLLIN | POLLRDHUP, 0};
      int rc = ::poll(&pfd, 1, poll_ms_);
      if (rc < 0) continue;  // EINTR: retry
      if (rc == 0) continue;  // tick: re-check stop flag
      if ((pfd.revents & (POLLRDHUP | POLLHUP | POLLERR | POLLNVAL)) != 0) {
        Cancel();
        return;
      }
      if ((pfd.revents & POLLIN) != 0) {
        char probe;
        ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
        if (n == 0) {  // orderly EOF
          Cancel();
          return;
        }
        // n > 0: the client pipelined its next request; keep watching but
        // back off to plain hangup polling (POLLIN would spin otherwise).
        if (n > 0) {
          pollfd hup{fd_, POLLRDHUP, 0};
          ::poll(&hup, 1, poll_ms_);
        }
      }
    }
  }

  void Cancel() {
    governor_->RequestCancel();
    cancel_counter_->fetch_add(1, std::memory_order_relaxed);
  }

  int fd_;
  Governor* governor_;
  int poll_ms_;
  std::atomic<std::uint64_t>* cancel_counter_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// RAII release of a granted fair-queue slot: Dispatch holds it across the
/// handler, and release (not the response send) is what frees the slot for
/// the scheduler to grant on.
class QueueSlot {
 public:
  explicit QueueSlot(FairRequestQueue* queue) : queue_(queue) {}
  ~QueueSlot() { queue_->Release(); }
  QueueSlot(const QueueSlot&) = delete;
  QueueSlot& operator=(const QueueSlot&) = delete;

 private:
  FairRequestQueue* queue_;
};

std::uint64_t SecondsToMicros(double seconds) {
  return seconds <= 0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

/// The exec_status a response reduces to in telemetry (ring, log event):
/// BUSY beats everything, then the handler's exec_status, then the error
/// code, then OK.
std::string ResponseExecStatus(const Message& response) {
  if (response.type == FrameType::kBusy) return "BUSY";
  return response.Header(
      "exec_status",
      response.Header(
          "code", response.type == FrameType::kError ? "INTERNAL" : "OK"));
}

using DaemonSnapshot = CensusServer::DaemonSnapshot;

/// The STATUS JSON document (docs/SERVER.md, "STATUS JSON").
std::string RenderStatus(const DaemonSnapshot& s,
                         const CensusServer::Options& options) {
  BuildInfo build = GetBuildInfo();
  std::ostringstream os;
  os << "{\n";
  // Versioned STATUS schema (docs/SERVER.md): bump on any rename/removal;
  // additive fields keep the version. 2 added the fair-queue admission
  // fields, the tenants array, and tenant/queue_us on recent entries.
  os << "  \"schema\": 2,\n";
  os << "  \"server\": {\"build\": \"" << JsonEscape(BuildInfoString())
     << "\", \"git\": \"" << JsonEscape(build.git_describe)
     << "\", \"build_type\": \"" << JsonEscape(build.build_type)
     << "\", \"obs\": " << (build.obs_enabled ? "true" : "false")
     << ", \"failpoints\": " << (build.failpoints_enabled ? "true" : "false")
     << ", \"protocol\": " << kProtocolVersion
     << ", \"pid\": " << ::getpid()
     << ", \"uptime_us\": " << s.uptime_us << "},\n";
  os << "  \"admission\": {\"inflight\": " << s.queue.active
     << ", \"capacity\": " << options.max_inflight
     << ", \"peak_inflight\": " << s.queue.peak_active
     << ", \"queued\": " << s.queue.depth
     << ", \"queue_capacity\": " << options.queue_depth
     << ", \"queued_bytes\": " << s.queue.queued_bytes
     << ", \"queue_bytes_capacity\": " << options.queue_bytes
     << ", \"draining\": " << (s.queue.draining ? "true" : "false")
     << ", \"busy_rejected\": " << s.counters.busy_rejected << "},\n";
  os << "  \"tenants\": [";
  bool first = true;
  for (const TenantQueueStats& t : s.queue.tenants) {
    if (!first) os << ", ";
    first = false;
    os << "{\"tenant\": \"" << JsonEscape(t.tenant)
       << "\", \"queued\": " << t.depth << ", \"enqueued\": " << t.enqueued
       << ", \"granted\": " << t.granted
       << ", \"busy_overflow\": " << t.busy_overflow
       << ", \"evicted\": {\"deadline\": " << t.evicted_deadline
       << ", \"disconnect\": " << t.evicted_disconnect
       << ", \"drain\": " << t.evicted_drain
       << "}, \"wait\": {\"count\": " << t.wait.count
       << ", \"sum_us\": " << t.wait.sum << ", \"max_us\": " << t.wait.max
       << "}}";
  }
  os << "],\n";
  os << "  \"caps\": {\"max_deadline_ms\": " << options.max_deadline_ms
     << ", \"max_memory_budget_mb\": " << options.max_memory_budget_mb
     << ", \"max_threads\": " << options.max_threads << "},\n";
  os << "  \"counters\": {\"connections\": " << s.counters.connections
     << ", \"requests\": " << s.counters.requests
     << ", \"completed\": " << s.counters.completed
     << ", \"protocol_errors\": " << s.counters.protocol_errors
     << ", \"disconnect_cancels\": " << s.counters.disconnect_cancels
     << ", \"verbs\": {";
  first = true;
  for (const auto& [verb, count] : s.verbs) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << FrameTypeName(verb) << "\": " << count;
  }
  os << "}},\n";
  os << "  \"graphs\": [";
  first = true;
  for (const GraphSummary& graph : s.graphs) {
    if (!first) os << ", ";
    first = false;
    os << "{\"name\": \"" << JsonEscape(graph.name)
       << "\", \"nodes\": " << graph.nodes << ", \"edges\": " << graph.edges
       << ", \"version\": " << graph.version
       << ", \"updates_applied\": " << graph.updates_applied
       << ", \"fastpath\": {\"routed\": " << graph.fastpath_routed
       << ", \"generic\": " << graph.fastpath_generic << "}}";
  }
  os << "],\n";
  os << "  \"recent\": [";
  first = true;
  for (const CensusServer::RequestRecord& record : s.recent) {
    if (!first) os << ", ";
    first = false;
    os << "{\"request_id\": \"" << JsonEscape(record.request_id)
       << "\", \"type\": \"" << JsonEscape(record.type) << "\", \"graph\": \""
       << JsonEscape(record.graph) << "\", \"tenant\": \""
       << JsonEscape(record.tenant) << "\", \"exec_status\": \""
       << JsonEscape(record.exec_status) << "\", \"stop_reason\": \""
       << JsonEscape(record.stop_reason)
       << "\", \"latency_us\": " << record.latency_us
       << ", \"queue_us\": " << record.queue_us
       << ", \"bytes_in\": " << record.bytes_in
       << ", \"bytes_out\": " << record.bytes_out << "}";
  }
  os << "],\n";
  os << "  \"slow_queries\": [";
  first = true;
  for (const CensusServer::SlowQueryRecord& record : s.slow_queries) {
    if (!first) os << ", ";
    first = false;
    os << "{\"request_id\": \"" << JsonEscape(record.request_id)
       << "\", \"type\": \"" << JsonEscape(record.type) << "\", \"graph\": \""
       << JsonEscape(record.graph) << "\", \"exec_status\": \""
       << JsonEscape(record.exec_status) << "\", \"stop_reason\": \""
       << JsonEscape(record.stop_reason)
       << "\", \"latency_us\": " << record.latency_us
       << ", \"spans\": " << record.spans.size() << "}";
  }
  os << "]";
#if EGO_OBS_ENABLED
  if (obs::Enabled()) {
    os << ",\n  \"metrics\": ";
    obs::Registry::Global().Snapshot().WriteJson(os);
  }
#endif
  os << "\n}\n";
  return os.str();
}

/// The slow-query capture `request_id` (empty or "latest" = the newest)
/// rendered as a Chrome trace: one complete event per phase span plus a
/// request-spanning root. Empty string when no capture matches.
std::string RenderSlowQueryTrace(
    const std::deque<CensusServer::SlowQueryRecord>& captures,
    const std::string& request_id) {
  const bool newest = request_id.empty() || request_id == "latest";
  auto it = std::find_if(
      captures.begin(), captures.end(),
      [&](const CensusServer::SlowQueryRecord& candidate) {
        return newest || candidate.request_id == request_id;
      });
  if (it == captures.end()) return "";
  const CensusServer::SlowQueryRecord& record = *it;
  // Chrome trace-event JSON (chrome://tracing, Perfetto): all events on one
  // logical track, timestamps absolute on the server's steady clock.
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "  {\"name\": \"" << JsonEscape(record.type) << " "
     << JsonEscape(record.request_id) << "\", \"ph\": \"X\", \"ts\": "
     << record.received_us << ", \"dur\": " << record.latency_us
     << ", \"pid\": 1, \"tid\": 1, \"args\": {\"graph\": \""
     << JsonEscape(record.graph) << "\", \"exec_status\": \""
     << JsonEscape(record.exec_status) << "\", \"stop_reason\": \""
     << JsonEscape(record.stop_reason) << "\"}}";
  for (const PhaseSpan& span : record.spans) {
    os << ",\n  {\"name\": \"" << JsonEscape(span.name)
       << "\", \"ph\": \"X\", \"ts\": " << (record.received_us + span.begin_us)
       << ", \"dur\": " << span.dur_us << ", \"pid\": 1, \"tid\": 1}";
  }
  os << "\n]}\n";
  return os.str();
}

/// The always-compiled daemon families of METRICS, named as registry
/// metrics so the obs exporter renders them like every other family
/// (`daemon/requests{verb="QUERY"}` becomes a `_total` counter family
/// under the exporter's `egocensus_` prefix).
// egolint: allow-obs(MetricsSnapshot compiles in both obs builds)
obs::MetricsSnapshot DaemonMetrics(const DaemonSnapshot& s) {
  // egolint: allow-obs(MetricsSnapshot compiles in both obs builds)
  obs::MetricsSnapshot m;
  // egolint: allow-obs(LabeledName compiles in both obs builds)
  const auto label = &obs::LabeledName;
  m.gauges["daemon/uptime_seconds"] = s.uptime_us / 1'000'000;
  m.gauges["daemon/inflight"] = s.queue.active;
  m.gauges["daemon/draining"] = s.queue.draining ? 1 : 0;
  m.gauges["daemon/slow_queries"] = s.slow_queries.size();
  m.counters["daemon/connections"] = s.counters.connections;
  m.counters["daemon/busy_rejected"] = s.counters.busy_rejected;
  m.counters["daemon/protocol_errors"] = s.counters.protocol_errors;
  m.counters["daemon/disconnect_cancels"] = s.counters.disconnect_cancels;
  for (const auto& [verb, count] : s.verbs) {
    m.counters[label("daemon/requests", {{"verb", FrameTypeName(verb)}})] =
        count;
  }
  for (const TenantQueueStats& t : s.queue.tenants) {
    m.gauges[label("daemon/queue_depth", {{"tenant", t.tenant}})] = t.depth;
    m.counters[label("daemon/queue_granted", {{"tenant", t.tenant}})] =
        t.granted;
    m.histograms[label("daemon/queue_wait_us", {{"tenant", t.tenant}})] =
        t.wait;
    const std::pair<const char*, std::uint64_t> reasons[] = {
        {"overflow", t.busy_overflow},
        {"deadline", t.evicted_deadline},
        {"disconnect", t.evicted_disconnect},
        {"drain", t.evicted_drain}};
    for (const auto& [reason, count] : reasons) {
      m.counters[label("daemon/queue_rejected",
                       {{"tenant", t.tenant}, {"reason", reason}})] = count;
    }
  }
  for (const GraphSummary& graph : s.graphs) {
    m.counters[label("daemon/fastpath",
                     {{"graph", graph.name}, {"route", "routed"}})] =
        graph.fastpath_routed;
    m.counters[label("daemon/fastpath",
                     {{"graph", graph.name}, {"route", "generic"}})] =
        graph.fastpath_generic;
  }
  return m;
}

}  // namespace

namespace {
QueueOptions QueueOptionsFrom(const CensusServer::Options& options) {
  QueueOptions queue;
  queue.slots = options.max_inflight;
  queue.max_depth = options.queue_depth;
  queue.max_bytes = options.queue_bytes;
  queue.quantum = options.queue_quantum;
  queue.poll_ms = options.queue_poll_ms;
  return queue;
}
}  // namespace

CensusServer::CensusServer(Options options)
    : options_(std::move(options)), queue_(QueueOptionsFrom(options_)) {}

CensusServer::~CensusServer() {
  RequestShutdown();
  Wait();
}

Status CensusServer::Start() {
  Status listening = listener_.Listen(options_.listen);
  if (!listening.ok()) return listening;
  started_micros_ = Timer::NowMicros();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void CensusServer::Wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
}

void CensusServer::RequestShutdown() {
  shutdown_.store(true, std::memory_order_relaxed);
}

CensusServer::DrainResult CensusServer::Drain(std::uint64_t drain_ms) {
  queue_.BeginDrain();
  DrainResult result;
  const std::uint64_t deadline_us = Timer::NowMicros() + drain_ms * 1000;
  // Phase 1: serve. Queued requests keep being granted as slots free; new
  // arrivals already bounce with BUSY (draining).
  while (!queue_.Idle() && Timer::NowMicros() < deadline_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  result.completed = queue_.Idle();
  // Phase 2: flush. Whatever is still queued at the deadline gets BUSY;
  // still-executing requests wind down on their own governors.
  result.flushed = queue_.FlushForDrain();
  // Phase 3: settle. Releasing a slot precedes the response send, so give
  // connection threads a bounded window to put the final RESULT/BUSY bytes
  // on the wire before shutdown hangs up the sockets: wait until the
  // completed counter stops moving (two quiet ticks), capped by a grace
  // budget on top of the drain deadline.
  const std::uint64_t grace_us =
      Timer::NowMicros() + std::max<std::uint64_t>(drain_ms * 250, 500'000);
  std::uint64_t last = completed_.load(std::memory_order_relaxed);
  int quiet = 0;
  while (quiet < 2 && Timer::NowMicros() < grace_us) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    std::uint64_t now = completed_.load(std::memory_order_relaxed);
    if (now == last && queue_.Idle()) {
      ++quiet;
    } else {
      quiet = 0;
      last = now;
    }
  }
  RequestShutdown();
  return result;
}

CensusServer::DaemonSnapshot CensusServer::Snapshot() const {
  DaemonSnapshot s;
  s.uptime_us = Timer::NowMicros() - started_micros_;
  s.counters.connections = connections_count_.load(std::memory_order_relaxed);
  s.counters.requests = requests_.load(std::memory_order_relaxed);
  s.counters.completed = completed_.load(std::memory_order_relaxed);
  s.counters.busy_rejected = busy_rejected_.load(std::memory_order_relaxed);
  s.counters.protocol_errors =
      protocol_errors_.load(std::memory_order_relaxed);
  s.counters.disconnect_cancels =
      disconnect_cancels_.load(std::memory_order_relaxed);
  for (std::uint8_t b = 1; b < verb_counts_.size(); ++b) {
    s.verbs[static_cast<FrameType>(b)] =
        verb_counts_[b].load(std::memory_order_relaxed);
  }
  s.queue = queue_.Snapshot();
  s.graphs = registry_.Summaries();
  {
    MutexLock lock(ring_mutex_);
    s.recent = ring_;
  }
  {
    MutexLock lock(slow_mutex_);
    s.slow_queries = slow_ring_;
  }
  return s;
}

void CensusServer::AcceptLoop() {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    // Draining: stop accepting. Closing the listener here is safe — the
    // accept thread owns it — and turns new connection attempts into
    // ECONNREFUSED instead of a socket that would only ever see BUSY.
    if (queue_.draining() && listener_.valid()) {
      listener_.Close();
    }
    Result<Socket> accepted = Status::NotFound("listener closed for drain");
    if (listener_.valid()) {
      accepted = listener_.AcceptOnce(/*timeout_ms=*/100);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    // Reap finished connections so a long-lived daemon's list stays small.
    {
      MutexLock lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          (*it)->thread.join();
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (!accepted.ok()) continue;  // timeout tick or transient error
    connections_count_.fetch_add(1, std::memory_order_relaxed);
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(*accepted);
    Connection* raw = connection.get();
    {
      MutexLock lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
  // Shutdown: hang up every live connection so blocked RecvFrames return,
  // then join the workers.
  std::list<std::unique_ptr<Connection>> connections;
  {
    MutexLock lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    ::shutdown(connection->socket.fd(), SHUT_RDWR);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
  listener_.Close();
}

void CensusServer::ServeConnection(Connection* connection) {
  while (!shutdown_.load(std::memory_order_relaxed)) {
    auto request = connection->socket.RecvFrame();
    if (!request.ok()) {
      if (request.status().code() == StatusCode::kParseError) {
        // Corrupt framing: report once (best effort), then drop the
        // connection — a byte stream cannot resynchronize mid-garbage.
        // The error never reached Dispatch, so stamp a fresh server id.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        RequestContext ctx;
        ctx.id = FormatRequestId(
            started_micros_,
            request_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
        Status sent = connection->socket.SendFrame(
            ErrorResponse(ctx, request.status()));
        (void)sent;  // the peer may already be gone
      }
      break;  // clean EOF, corrupt stream, or socket error
    }
    if (!IsRequestType(request->type)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      RequestContext ctx;
      ctx.id = FormatRequestId(
          started_micros_,
          request_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
      Status sent = connection->socket.SendFrame(ErrorResponse(
          ctx, Status::InvalidArgument(std::string("frame type ") +
                                       FrameTypeName(request->type) +
                                       " is a response type")));
      (void)sent;
      break;
    }
    requests_.fetch_add(1, std::memory_order_relaxed);
    bool close_after = false;
    Message response =
        Dispatch(*request, connection->socket.fd(), &close_after);
    Status sent = connection->socket.SendFrame(response);
    if (sent.ok()) completed_.fetch_add(1, std::memory_order_relaxed);
    if (close_after || !sent.ok()) break;
  }
  // Leave the socket open: the accept loop joins this thread and destroys
  // the connection (closing the fd) when it reaps. Closing here would race
  // with the shutdown path, which hangs up every fd still in the list — and
  // a concurrently recycled fd number could hijack an unrelated descriptor.
  connection->done.store(true, std::memory_order_release);
}

Message CensusServer::Dispatch(const Message& request, int client_fd,
                               bool* close_after) {
  Timer timer;
  RequestContext ctx;
  ctx.received_us = Timer::NowMicros();
  ctx.verb = FrameTypeName(request.type);
  ctx.graph = request.Header("graph", request.Header("name", ""));
  ctx.bytes_in = PayloadBytes(request);
  ctx.id = request.Header("request_id", "");
  if (!ValidRequestId(ctx.id)) {
    ctx.id = FormatRequestId(
        started_micros_,
        request_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
  }
  std::uint8_t verb_byte = static_cast<std::uint8_t>(request.type);
  if (verb_byte < verb_counts_.size()) {
    verb_counts_[verb_byte].fetch_add(1, std::memory_order_relaxed);
  }

  Message response;
  switch (request.type) {
    case FrameType::kQuery:
    case FrameType::kUpdate: {
      ctx.tenant = request.Header("tenant", "");
      if (!ValidTenant(ctx.tenant)) ctx.tenant = kDefaultTenant;
      // A malformed option is refused before it can take a queue slot.
      auto spec = ParseQuerySpec(request.headers, OptionSurface::kWire);
      if (!spec.ok()) {
        response = ErrorResponse(ctx, spec.status());
        break;
      }
      // Absolute deadline anchored at frame receipt, computed before
      // admission: time spent queued is charged against the same budget
      // the Governor enforces, and a request whose deadline dies in the
      // queue is evicted without ever executing.
      std::uint64_t deadline_ms =
          ClampLimit(spec->deadline_ms, options_.max_deadline_ms);
      if (deadline_ms > 0) {
        ctx.deadline_us = ctx.received_us + deadline_ms * 1000;
      }
      AdmitOutcome admitted =
          queue_.Acquire(ctx.tenant, ctx.bytes_in, ctx.deadline_us, client_fd,
                         &ctx.queue_wait_us);
      switch (admitted) {
        case AdmitOutcome::kGranted: {
          QueueSlot slot(&queue_);
          response = request.type == FrameType::kQuery
                         ? HandleQuery(request, *spec, client_fd, ctx)
                         : HandleUpdate(request, client_fd, ctx);
          break;
        }
        case AdmitOutcome::kOverflow:
          busy_rejected_.fetch_add(1, std::memory_order_relaxed);
          response = BusyResponse(
              ctx, inflight(), options_.max_inflight, queue_.depth(),
              RetryAfterMsHint(), /*draining=*/false,
              "queue full: " + std::to_string(queue_.depth()) +
                  " requests queued behind " +
                  std::to_string(options_.max_inflight) +
                  " in flight; retry later");
          break;
        case AdmitOutcome::kDraining:
          busy_rejected_.fetch_add(1, std::memory_order_relaxed);
          response = BusyResponse(
              ctx, inflight(), options_.max_inflight, queue_.depth(),
              RetryAfterMsHint(), /*draining=*/true,
              "server draining: retry against another instance");
          break;
        case AdmitOutcome::kDeadlineExpired:
          response = ErrorResponse(
              ctx,
              Status::DeadlineExceeded(
                  "request " + ctx.id + ": deadline expired after " +
                      std::to_string(ctx.queue_wait_us / 1000) +
                      " ms queued, before execution began"),
              RetryAfterMsHint());
          response.headers["stop_reason"] =
              StopReasonName(StopReason::kDeadlineExceeded);
          break;
        case AdmitOutcome::kDisconnected:
          // The client is gone; compose the ERROR anyway so telemetry
          // records a terminal outcome (the send fails and the connection
          // closes).
          disconnect_cancels_.fetch_add(1, std::memory_order_relaxed);
          response = ErrorResponse(
              ctx, Status::Cancelled(
                       "request " + ctx.id +
                       ": client disconnected while queued"));
          response.headers["stop_reason"] =
              StopReasonName(StopReason::kCancelled);
          break;
      }
      break;
    }
    case FrameType::kStatus:
      response = HandleStatus(request, ctx);
      break;
    case FrameType::kMetrics:
      response = HandleMetrics(request, ctx);
      break;
    case FrameType::kLoad:
      response = HandleLoad(request, ctx);
      break;
    case FrameType::kUnload:
      response = HandleUnload(request, ctx);
      break;
    case FrameType::kShutdown:
      response.type = FrameType::kResult;
      response.body = "shutting down\n";
      RequestShutdown();
      *close_after = true;
      break;
    default:
      response = ErrorResponse(ctx, Status::InvalidArgument(
          std::string("unhandled frame type ") +
          FrameTypeName(request.type)));
      break;
  }
  response.headers["server"] = BuildInfoString();
  // Every response — RESULT, ERROR, BUSY — echoes the request id, so a
  // client can correlate any outcome with the server's log and metrics.
  response.headers["request_id"] = ctx.id;
  FinishRequest(ctx, request, response,
                static_cast<std::uint64_t>(timer.ElapsedMicros()));
  return response;
}

Message CensusServer::HandleQuery(const Message& request,
                                  const QuerySpec& spec, int client_fd,
                                  RequestContext& ctx) {
  std::string graph_name = request.Header("graph", "");
  if (graph_name.empty()) {
    return ErrorResponse(ctx, 
        Status::InvalidArgument("QUERY requires a 'graph' header"));
  }
  if (request.body.empty()) {
    return ErrorResponse(ctx, Status::InvalidArgument(
        "QUERY requires the query text as the frame body"));
  }
  auto entry = registry_.Get(graph_name);
  if (!entry.ok()) return ErrorResponse(ctx, entry.status());

  QueryEngine::Options options = spec.options;
  options.census.num_threads = static_cast<std::uint32_t>(ClampLimit(
      options.census.num_threads, options_.max_threads));

  // Every remote query is governed: even without explicit limits the
  // governor carries the cancel-on-disconnect token, and the server caps
  // apply regardless of what the client asked for. The deadline is the
  // absolute one computed at dispatch — queue wait already spent part of
  // the budget.
  Governor governor;
  governor.SetAnnotation("request " + ctx.id);
  governor.SetQueueWaitMicros(ctx.queue_wait_us);
  if (ctx.deadline_us > 0) {
    governor.SetDeadline(Deadline::AtMicros(ctx.deadline_us));
  }
  std::uint64_t budget_mb =
      ClampLimit(spec.memory_budget_mb, options_.max_memory_budget_mb);
  if (budget_mb > 0) {
    governor.SetMemoryLimitBytes(budget_mb * 1024ull * 1024ull);
  }
  options.census.governor = &governor;

  // Shared lock: concurrent QUERYs run together; UPDATE waits for all of
  // them and vice versa.
  GraphEntry& graph = **entry;
  SharedMutexLock lock(graph.mutex);
  ctx.exec_begin_us = Timer::NowMicros();
#if EGO_OBS_ENABLED
  obs::MetricsSnapshot before;
  if (obs::Enabled()) before = obs::Registry::Global().Snapshot();
#endif
  Message response;
  {
    DisconnectWatcher watcher(client_fd, &governor,
                              options_.disconnect_poll_ms,
                              &disconnect_cancels_);
    QueryEngine engine(graph.snapshot, &graph.indexes);
    auto table = engine.Execute(request.body, options);
    if (!table.ok()) return ErrorResponse(ctx, table.status());

    Status exec_status = engine.last_exec_status();
    std::uint64_t complete = 0, approx = 0, pending = 0;
    for (const QueryEngine::AggregateExec& exec : engine.last_exec()) {
      complete += exec.complete;
      approx += exec.approx;
      pending += exec.pending;
    }
    // Per-graph routing tallies (surfaced in STATUS): one count per census
    // aggregate, attributed to the engine that actually ran it.
    std::uint64_t routed = 0, generic = 0;
    std::uint64_t phase_offset_us = ctx.QueueMicros();
    std::size_t aggregate = 0;
    for (const CensusStats& stats : engine.last_stats()) {
      if (stats.fastpath_routed != 0) {
        ++routed;
      } else {
        ++generic;
      }
      if (stats.threads_used > ctx.threads) ctx.threads = stats.threads_used;
      if (stats.pattern_nodes > ctx.pattern_nodes) {
        ctx.pattern_nodes = stats.pattern_nodes;
      }
      if (stats.k > ctx.k) ctx.k = stats.k;
      // Per-aggregate phase spans, laid out sequentially from the measured
      // phase durations (aggregates of one query do run in sequence; the
      // offsets are therefore approximate only across parse/format gaps).
      const std::string prefix = "agg" + std::to_string(aggregate++) + "/";
      const std::pair<const char*, double> phases[] = {
          {"match", stats.match_seconds},
          {"index", stats.index_seconds},
          {"census", stats.census_seconds}};
      for (const auto& [phase, seconds] : phases) {
        std::uint64_t dur = SecondsToMicros(seconds);
        if (dur == 0) continue;
        ctx.AddSpan(prefix + phase, phase_offset_us, dur);
        phase_offset_us += dur;
      }
    }
    ctx.fastpath_routed = routed;
    ctx.fastpath_generic = generic;
    graph.fastpath_routed.fetch_add(routed, std::memory_order_relaxed);
    graph.fastpath_generic.fetch_add(generic,
                                         std::memory_order_relaxed);
    ctx.rows = table->NumRows();
    response.type = FrameType::kResult;
    response.headers["exec_status"] = StatusCodeName(exec_status.code());
    if (!exec_status.ok()) {
      response.headers["exec_message"] = exec_status.message();
    }
    response.headers["stop_reason"] = StopReasonName(governor.reason());
    response.headers["rows"] = std::to_string(table->NumRows());
    response.headers["focal_complete"] = std::to_string(complete);
    response.headers["focal_approx"] = std::to_string(approx);
    response.headers["focal_pending"] = std::to_string(pending);
    response.headers["fastpath_routed"] = std::to_string(routed);
    response.headers["graph_version"] =
        std::to_string(graph.dynamic.version());
    std::ostringstream body;
    WriteQueryResult(*table, spec, body);
    response.body = body.str();
  }
#if EGO_OBS_ENABLED
  // Counter deltas across the execution window: what this request added to
  // the registry, attributable because the graph lock and admission gate
  // do not serialize concurrent queries — the delta is exact only for the
  // metrics this request touched alone, so treat overlapping-traffic
  // deltas as attribution hints, not invariants.
  if (obs::Enabled()) {
    obs::MetricsSnapshot after = obs::Registry::Global().Snapshot();
    for (const auto& [name, value] : after.counters) {
      auto it = before.counters.find(name);
      std::uint64_t prior = it == before.counters.end() ? 0 : it->second;
      if (value > prior) ctx.obs_delta[name] = value - prior;
    }
  }
#endif
  return response;
}

Message CensusServer::HandleUpdate(const Message& request, int client_fd,
                                   RequestContext& ctx) {
  std::string graph_name = request.Header("graph", "");
  if (graph_name.empty()) {
    return ErrorResponse(ctx, 
        Status::InvalidArgument("UPDATE requires a 'graph' header"));
  }
  auto entry = registry_.Get(graph_name);
  if (!entry.ok()) return ErrorResponse(ctx, entry.status());

  std::istringstream body(request.body);
  auto updates = ParseUpdateStream(body);
  if (!updates.ok()) return ErrorResponse(ctx, updates.status());

  Governor governor;
  governor.SetAnnotation("request " + ctx.id);
  governor.SetQueueWaitMicros(ctx.queue_wait_us);
  if (ctx.deadline_us > 0) {
    governor.SetDeadline(Deadline::AtMicros(ctx.deadline_us));
  }

  // Exclusive lock: the batch is atomic with respect to queries — they see
  // the graph before it or after it, never between two of its updates.
  GraphEntry& graph = **entry;
  SharedMutexExclusiveLock lock(graph.mutex);
  ctx.exec_begin_us = Timer::NowMicros();
  ctx.threads = 1;
  std::uint64_t applied = 0, noop = 0;
  Status exec_status = Status::Ok();
  {
    DisconnectWatcher watcher(client_fd, &governor,
                              options_.disconnect_poll_ms,
                              &disconnect_cancels_);
    for (const GraphUpdate& update : *updates) {
      if (governor.Checkpoint() != StopReason::kNone) {
        exec_status = governor.ToStatus("update batch");
        break;
      }
      auto result = graph.dynamic.Apply(update);
      if (!result.ok()) {
        exec_status = result.status();
        break;
      }
      if (*result) {
        ++applied;
      } else {
        ++noop;
      }
    }
  }
  if (applied > 0) {
    if (graph.dynamic.DeltaFraction() > 0.25) graph.dynamic.Compact();
    graph.RefreshSnapshot();
    ++graph.updates_applied;
  }

  Message response;
  response.type = FrameType::kResult;
  response.headers["exec_status"] = StatusCodeName(exec_status.code());
  if (!exec_status.ok()) {
    response.headers["exec_message"] = exec_status.message();
  }
  response.headers["stop_reason"] = StopReasonName(governor.reason());
  response.headers["applied"] = std::to_string(applied);
  response.headers["noop"] = std::to_string(noop);
  response.headers["nodes"] = std::to_string(graph.dynamic.NumNodes());
  response.headers["edges"] = std::to_string(graph.dynamic.NumEdges());
  response.headers["graph_version"] =
      std::to_string(graph.dynamic.version());
  response.body = "applied " + std::to_string(applied) + " updates (" +
                  std::to_string(noop) + " no-ops)\n";
  return response;
}

Message CensusServer::HandleStatus(const Message& request,
                                   RequestContext& ctx) {
  ctx.exec_begin_us = Timer::NowMicros();
  const DaemonSnapshot snapshot = Snapshot();
  Message response;
  response.type = FrameType::kResult;
  response.headers["content"] = "application/json";
  // `slow_trace: <request_id>` (empty value = newest capture) swaps the
  // body for that slow query's Chrome trace (docs/OBSERVABILITY.md).
  if (request.HasHeader("slow_trace")) {
    const std::string id = request.Header("slow_trace", "");
    std::string trace = RenderSlowQueryTrace(snapshot.slow_queries, id);
    if (trace.empty()) {
      return ErrorResponse(ctx, Status::NotFound(
          "no slow-query capture for request id '" + id + "'"));
    }
    response.body = std::move(trace);
    return response;
  }
  response.body = RenderStatus(snapshot, options_);
  return response;
}

Message CensusServer::HandleMetrics(const Message& request,
                                    RequestContext& ctx) {
  ctx.exec_begin_us = Timer::NowMicros();
  Message response;
  response.type = FrameType::kResult;
  response.headers["content"] = "text/plain; version=0.0.4";
  std::ostringstream os;
  // egolint: allow-obs(WritePrometheus compiles in both obs builds)
  obs::WritePrometheus(DaemonMetrics(Snapshot()), os);
#if EGO_OBS_ENABLED
  // The engine-level registry families render from a point-in-time shard
  // merge — recording threads never block on exposition.
  if (obs::Enabled()) {
    obs::WritePrometheus(obs::Registry::Global().Snapshot(), os);
  }
#endif
  response.body = os.str();
  return response;
}

Message CensusServer::HandleLoad(const Message& request, RequestContext& ctx) {
  ctx.exec_begin_us = Timer::NowMicros();
  std::string name = request.Header("name", "");
  std::string path = request.Header("path", "");
  if (name.empty() || path.empty()) {
    return ErrorResponse(ctx, Status::InvalidArgument(
        "LOAD requires 'name' and 'path' headers"));
  }
  Status loaded = registry_.LoadFromFile(name, path);
  if (!loaded.ok()) return ErrorResponse(ctx, loaded);
  Message response;
  response.type = FrameType::kResult;
  response.body = "loaded '" + name + "' from " + path + "\n";
  return response;
}

Message CensusServer::HandleUnload(const Message& request,
                                   RequestContext& ctx) {
  ctx.exec_begin_us = Timer::NowMicros();
  std::string name = request.Header("name", "");
  if (name.empty()) {
    return ErrorResponse(ctx, 
        Status::InvalidArgument("UNLOAD requires a 'name' header"));
  }
  Status unloaded = registry_.Unload(name);
  if (!unloaded.ok()) return ErrorResponse(ctx, unloaded);
  Message response;
  response.type = FrameType::kResult;
  response.body = "unloaded '" + name + "'\n";
  return response;
}

std::uint64_t CensusServer::RetryAfterMsHint() const {
  std::uint64_t ewma_us = exec_ewma_us_.load(std::memory_order_relaxed);
  if (ewma_us == 0) ewma_us = 50'000;  // no history yet: assume 50 ms
  // Rough time until a new arrival would reach a slot: the backlog spread
  // across the slots, plus one residual execution.
  const std::uint64_t pending = queue_.depth() + queue_.active();
  const std::uint64_t slots = std::max<std::uint32_t>(options_.max_inflight, 1);
  const std::uint64_t hint_ms = ewma_us * (pending / slots + 1) / 1000;
  return std::clamp<std::uint64_t>(hint_ms, 25, 10'000);
}

void CensusServer::FinishRequest(const RequestContext& ctx,
                                 const Message& request,
                                 const Message& response,
                                 std::uint64_t latency_us) {
  const std::string exec_status = ResponseExecStatus(response);
  const std::string stop_reason = response.Header("stop_reason", "none");
  const std::uint64_t bytes_out = PayloadBytes(response);
  // QueueMicros spans dispatch -> exec begin, so it includes both the
  // fair-queue wait and the graph-lock wait; for requests evicted before
  // execution it is zero and the measured queue wait is the whole story.
  const std::uint64_t queue_us =
      std::min(std::max(ctx.QueueMicros(), ctx.queue_wait_us), latency_us);
  const std::uint64_t execute_us =
      ctx.exec_begin_us == 0 ? 0 : latency_us - queue_us;

  // Feed the retry_after_ms estimator: an EWMA (7/8 old, 1/8 new) of
  // execute time for requests that actually ran. Racy read-modify-write is
  // fine — this is a hint, not an invariant.
  if (execute_us > 0 && (request.type == FrameType::kQuery ||
                         request.type == FrameType::kUpdate)) {
    std::uint64_t prev = exec_ewma_us_.load(std::memory_order_relaxed);
    std::uint64_t next = prev == 0 ? execute_us : (prev * 7 + execute_us) / 8;
    exec_ewma_us_.store(next, std::memory_order_relaxed);
  }

  RequestRecord record;
  record.request_id = ctx.id;
  record.type = ctx.verb;
  record.graph = ctx.graph;
  record.tenant = ctx.tenant;
  record.exec_status = exec_status;
  record.stop_reason = stop_reason;
  record.latency_us = latency_us;
  record.queue_us = queue_us;
  record.bytes_in = ctx.bytes_in;
  record.bytes_out = bytes_out;
  {
    MutexLock lock(ring_mutex_);
    ring_.push_front(std::move(record));
    while (ring_.size() > options_.ring_capacity) ring_.pop_back();
  }

#if EGO_OBS_ENABLED
  // Request-scoped registry families, labeled by verb/graph so the METRICS
  // exposition can slice traffic (docs/OBSERVABILITY.md).
  if (obs::Enabled()) {
    const std::vector<std::pair<std::string_view, std::string_view>> labels =
        {{"verb", ctx.verb}, {"graph", ctx.graph}};
    obs::CounterAdd(obs::LabeledName("server/requests", labels), 1);
    obs::HistogramRecord(obs::LabeledName("server/latency_us", labels),
                         latency_us);
    obs::CounterAdd(obs::LabeledName("server/bytes_out", labels), bytes_out);
    if (exec_status != "OK") {
      obs::CounterAdd(obs::LabeledName("server/request_errors", labels), 1);
    }
  }
#endif

  // The canonical wide event: one line per request (docs/OBSERVABILITY.md,
  // "Request telemetry"). No-op unless a sink is configured.
  obs::Logger& logger = obs::Logger::Global();
  if (logger.enabled()) {
    obs::LogLevel level = obs::LogLevel::kInfo;
    if (response.type == FrameType::kBusy) level = obs::LogLevel::kWarn;
    if (response.type == FrameType::kError) level = obs::LogLevel::kError;
    if (logger.ShouldLog(level)) {
      obs::LogEvent event("request");
      event.Str("request_id", ctx.id)
          .Str("verb", ctx.verb)
          .Str("graph", ctx.graph)
          .Str("status", exec_status);
      if (!ctx.tenant.empty()) event.Str("tenant", ctx.tenant);
      event.Str("stop_reason", stop_reason)
          .Int("queue_us", queue_us)
          .Int("execute_us", execute_us)
          .Int("latency_us", latency_us)
          .Int("bytes_in", ctx.bytes_in)
          .Int("bytes_out", bytes_out);
      if (response.HasHeader("exec_message")) {
        event.Str("exec_message", response.Header("exec_message", ""));
      }
      if (request.type == FrameType::kQuery) {
        event.Int("rows", ctx.rows)
            .Int("threads", ctx.threads)
            .Int("pattern_nodes", ctx.pattern_nodes)
            .Int("k", ctx.k)
            .Int("fastpath_routed", ctx.fastpath_routed)
            .Int("fastpath_generic", ctx.fastpath_generic);
      }
      if (!ctx.obs_delta.empty()) {
        std::string deltas = "{";
        bool first = true;
        for (const auto& [name, value] : ctx.obs_delta) {
          if (!first) deltas += ",";
          first = false;
          deltas += "\"" + JsonEscape(name) + "\":" + std::to_string(value);
        }
        deltas += "}";
        event.Raw("obs", deltas);
      }
      logger.Write(level, event);
    }
  }

  // Slow-query capture: the request's span tree, bounded ring, retrievable
  // via STATUS (headers slow_trace / the slow_queries summary array).
  if (options_.slow_query_threshold_ms > 0 &&
      latency_us >= options_.slow_query_threshold_ms * 1000) {
    SlowQueryRecord slow;
    slow.request_id = ctx.id;
    slow.type = ctx.verb;
    slow.graph = ctx.graph;
    slow.exec_status = exec_status;
    slow.stop_reason = stop_reason;
    slow.received_us = ctx.received_us;
    slow.latency_us = latency_us;
    slow.spans = ctx.spans;
    if (queue_us > 0) {
      slow.spans.insert(slow.spans.begin(), PhaseSpan{"queue", 0, queue_us});
    }
    if (execute_us > 0) {
      slow.spans.insert(slow.spans.begin() + (queue_us > 0 ? 1 : 0),
                        PhaseSpan{"execute", queue_us, execute_us});
    }
    MutexLock lock(slow_mutex_);
    slow_ring_.push_front(std::move(slow));
    while (slow_ring_.size() > options_.slow_ring_capacity) {
      slow_ring_.pop_back();
    }
  }
}

}  // namespace egocensus::net
