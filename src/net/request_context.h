#ifndef EGOCENSUS_NET_REQUEST_CONTEXT_H_
#define EGOCENSUS_NET_REQUEST_CONTEXT_H_

// Per-request attribution state (docs/SERVER.md, "Request telemetry").
//
// Every dispatched frame gets a RequestContext carrying its request id —
// client-propagated via the `request_id` header when valid, otherwise
// server-assigned — plus the timing, sizing, and execution facts the
// handlers accumulate. The server threads the context through dispatch →
// handler → governor (Governor::SetAnnotation), echoes the id on every
// response, and renders the context into the one canonical wide log event
// and, past the latency threshold, into the slow-query ring.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame.h"
#include "util/status.h"

namespace egocensus::net {

/// One phase of a request's server-side span tree, relative to the moment
/// the frame was dispatched (begin_us = 0). Built from request-local data
/// (queue wait, execute window, per-aggregate census phase timings), never
/// from the global tracer, so capture is race-free against concurrent
/// requests.
struct PhaseSpan {
  std::string name;
  std::uint64_t begin_us = 0;
  std::uint64_t dur_us = 0;
};

struct RequestContext {
  std::string id;          // echoed in the response's request_id header
  const char* verb = "?";  // FrameTypeName of the request frame
  std::string graph;       // graph/name header ("" for STATUS/SHUTDOWN)
  std::string tenant;      // validated `tenant` header or the default
                           // tenant; "" for verbs that bypass the queue

  std::uint64_t received_us = 0;    // dispatch time (steady clock)
  std::uint64_t deadline_us = 0;    // absolute clamped deadline (0 = none),
                                    // anchored at received_us so queue wait
                                    // is charged against the budget
  std::uint64_t queue_wait_us = 0;  // measured fair-queue wait
  std::uint64_t exec_begin_us = 0;  // handler past admission + graph lock
  std::uint64_t bytes_in = 0;

  // Filled by QUERY/UPDATE handlers for the wide event.
  std::uint32_t threads = 0;
  std::uint32_t pattern_nodes = 0;  // largest pattern across aggregates
  std::uint32_t k = 0;              // largest neighborhood radius
  std::uint64_t rows = 0;
  std::uint64_t fastpath_routed = 0;
  std::uint64_t fastpath_generic = 0;
  std::string engines;  // each aggregate's planned engine, comma-joined

  std::vector<PhaseSpan> spans;

  /// Counter deltas of the obs registry across this request's execution
  /// (empty when obs is off) — the "per-phase snapshot
  /// delta" section of the wide event and the slow-query capture.
  std::map<std::string, std::uint64_t> obs_delta;

  /// Microseconds spent before execution began (admission + registry +
  /// graph-lock wait); 0 for handlers that never mark exec_begin_us.
  std::uint64_t QueueMicros() const {
    return exec_begin_us > received_us ? exec_begin_us - received_us : 0;
  }

  void AddSpan(std::string name, std::uint64_t begin_us,
               std::uint64_t dur_us) {
    spans.push_back(PhaseSpan{std::move(name), begin_us, dur_us});
  }
};

/// A client-supplied request id is taken verbatim only when it is sane to
/// echo through headers, logs, and exposition labels: non-empty, at most 64
/// bytes, characters from [A-Za-z0-9._:-].
inline bool ValidRequestId(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' ||
              c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Tenant names travel the same paths as request ids (headers, STATUS
/// JSON, exposition labels), so the same sanity rule applies. The fair
/// queue keys sub-queues on this value; an invalid or missing header falls
/// back to kDefaultTenant rather than erroring, so untagged traffic shares
/// one sub-queue instead of being rejected.
inline constexpr const char* kDefaultTenant = "default";

inline bool ValidTenant(std::string_view tenant) {
  return ValidRequestId(tenant);
}

/// Server-assigned id: `r<start-hex>-<seq>`. The prefix (the daemon's start
/// time in micros, hex) distinguishes restarts; the sequence number makes
/// ids unique across concurrent connections within one process.
inline std::string FormatRequestId(std::uint64_t server_start_us,
                                   std::uint64_t sequence) {
  static const char* kHex = "0123456789abcdef";
  std::string prefix;
  for (std::uint64_t v = server_start_us; v != 0; v >>= 4) {
    prefix.insert(prefix.begin(), kHex[v & 0xF]);
  }
  if (prefix.empty()) prefix = "0";
  return "r" + prefix + "-" + std::to_string(sequence);
}

// Canonical response composition. Every ERROR/BUSY the server emits is
// built here so the request id lands on every response unconditionally —
// egolint's request-discipline check rejects bare FrameType::kError /
// kBusy assignments outside this header, which keeps future handlers and
// queue paths honest (docs/STATIC_ANALYSIS.md).

/// ERROR carrying the status code, message, and request id. A non-zero
/// `retry_after_ms` marks the failure as load-induced (e.g. a deadline
/// that expired in the queue): clients may retry after the hint.
inline Message ErrorResponse(const RequestContext& ctx, const Status& status,
                             std::uint64_t retry_after_ms = 0) {
  Message response;
  response.type = FrameType::kError;
  response.headers["code"] = StatusCodeName(status.code());
  response.headers["request_id"] = ctx.id;
  if (retry_after_ms > 0) {
    response.headers["retry_after_ms"] = std::to_string(retry_after_ms);
  }
  response.body = status.message();
  return response;
}

/// Structured BUSY: the admission/queueing state a client needs to back
/// off intelligently (docs/SERVER.md, "Retry guidance").
inline Message BusyResponse(const RequestContext& ctx, std::uint64_t inflight,
                            std::uint64_t capacity, std::uint64_t queued,
                            std::uint64_t retry_after_ms, bool draining,
                            const std::string& reason) {
  Message response;
  response.type = FrameType::kBusy;
  response.headers["request_id"] = ctx.id;
  response.headers["inflight"] = std::to_string(inflight);
  response.headers["capacity"] = std::to_string(capacity);
  response.headers["queued"] = std::to_string(queued);
  response.headers["retry_after_ms"] = std::to_string(retry_after_ms);
  if (draining) response.headers["draining"] = "1";
  response.body = reason;
  return response;
}

}  // namespace egocensus::net

#endif  // EGOCENSUS_NET_REQUEST_CONTEXT_H_
