#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "util/rng.h"

namespace egocensus::net {

Result<Client> Client::Connect(const Endpoint& endpoint) {
  return Connect(endpoint, Options{});
}

Result<Client> Client::Connect(const Endpoint& endpoint,
                               const Options& options) {
  auto socket = Socket::ConnectTcp(endpoint, options.connect_timeout_ms);
  if (!socket.ok()) return socket.status();
  if (options.io_timeout_ms > 0) {
    Status set = socket->SetIoTimeout(options.io_timeout_ms);
    if (!set.ok()) return set;
  }
  return Client(std::move(*socket));
}

Result<Message> Client::Call(const Message& request) {
  Status sent = socket_.SendFrame(request);
  if (!sent.ok()) return sent;
  return socket_.RecvFrame();
}

Message Client::QueryRequest(const std::string& graph,
                             const std::string& query_text) {
  Message request;
  request.type = FrameType::kQuery;
  request.headers["graph"] = graph;
  request.body = query_text;
  return request;
}

Message Client::UpdateRequest(const std::string& graph,
                              const std::string& updates_text) {
  Message request;
  request.type = FrameType::kUpdate;
  request.headers["graph"] = graph;
  request.body = updates_text;
  return request;
}

Message Client::StatusRequest() {
  Message request;
  request.type = FrameType::kStatus;
  return request;
}

Message Client::MetricsRequest() {
  Message request;
  request.type = FrameType::kMetrics;
  return request;
}

Message Client::LoadRequest(const std::string& name, const std::string& path) {
  Message request;
  request.type = FrameType::kLoad;
  request.headers["name"] = name;
  request.headers["path"] = path;
  return request;
}

Message Client::UnloadRequest(const std::string& name) {
  Message request;
  request.type = FrameType::kUnload;
  request.headers["name"] = name;
  return request;
}

Message Client::ShutdownRequest() {
  Message request;
  request.type = FrameType::kShutdown;
  return request;
}

StatusCode StatusCodeFromName(const std::string& name) {
  static const struct {
    const char* name;
    StatusCode code;
  } kCodes[] = {
      {"OK", StatusCode::kOk},
      {"INVALID_ARGUMENT", StatusCode::kInvalidArgument},
      {"NOT_FOUND", StatusCode::kNotFound},
      {"PARSE_ERROR", StatusCode::kParseError},
      {"OUT_OF_RANGE", StatusCode::kOutOfRange},
      {"INTERNAL", StatusCode::kInternal},
      {"UNIMPLEMENTED", StatusCode::kUnimplemented},
      {"DEADLINE_EXCEEDED", StatusCode::kDeadlineExceeded},
      {"RESOURCE_EXHAUSTED", StatusCode::kResourceExhausted},
      {"CANCELLED", StatusCode::kCancelled},
      {"INTERRUPTED", StatusCode::kInterrupted},
  };
  for (const auto& entry : kCodes) {
    if (name == entry.name) return entry.code;
  }
  return StatusCode::kInternal;
}

[[nodiscard]] Status ResponseToStatus(const Message& response) {
  switch (response.type) {
    case FrameType::kResult: {
      std::string exec = response.Header("exec_status", "OK");
      if (exec == "OK") return Status::Ok();
      return Status(StatusCodeFromName(exec),
                    response.Header("exec_message",
                                    "census stopped early (" + exec + ")"));
    }
    case FrameType::kBusy:
      return Status::ResourceExhausted(
          response.body.empty() ? "server busy (admission control)"
                                : response.body);
    case FrameType::kError:
      return Status(StatusCodeFromName(response.Header("code", "INTERNAL")),
                    response.body);
    default:
      return Status::Internal(std::string("unexpected response frame ") +
                              FrameTypeName(response.type));
  }
}

BusyInfo BusyInfoFromResponse(const Message& response) {
  BusyInfo info;
  info.retry_after_ms = response.HeaderInt("retry_after_ms", 0);
  info.inflight = response.HeaderInt("inflight", 0);
  info.capacity = response.HeaderInt("capacity", 0);
  info.queued = response.HeaderInt("queued", 0);
  info.draining = response.Header("draining", "") == "1";
  info.request_id = response.Header("request_id", "");
  return info;
}

[[nodiscard]] Result<Message> CallWithRetry(const Endpoint& endpoint,
                                            const Message& request,
                                            const Client::Options& options,
                                            const RetryPolicy& policy,
                                            RetryStats* stats) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto elapsed_ms = [&start]() -> std::uint64_t {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                              start)
            .count());
  };
  std::uint64_t seed = policy.jitter_seed;
  if (seed == 0) {
    seed = static_cast<std::uint64_t>(Clock::now().time_since_epoch().count());
  }
  Rng rng(seed);
  RetryStats local;
  RetryStats& tally = stats != nullptr ? *stats : local;
  tally = RetryStats{};

  Status last_transport = Status::Ok();
  Result<Message> last_response = Status::Internal("no attempt made");
  for (int attempt = 0;; ++attempt) {
    bool transport_failed = false;
    auto client = Client::Connect(endpoint, options);
    if (!client.ok()) {
      transport_failed = true;
      last_transport = client.status();
    } else {
      ++tally.attempts;
      last_response = client->Call(request);
      if (!last_response.ok()) {
        transport_failed = true;
        last_transport = last_response.status();
      } else if (last_response->type != FrameType::kBusy) {
        return last_response;  // RESULT or ERROR: terminal either way
      }
    }
    if (transport_failed && !policy.retry_transport) return last_transport;
    if (attempt >= policy.max_retries) break;

    // Backoff: exponential from base, capped, floored at the server's own
    // hint when we have one, then jittered to [0.5, 1.5]x.
    std::uint64_t backoff = policy.base_backoff_ms;
    for (int i = 0; i < attempt && backoff < policy.max_backoff_ms; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, policy.max_backoff_ms);
    if (!transport_failed) {
      backoff = std::max(backoff,
                         BusyInfoFromResponse(*last_response).retry_after_ms);
    }
    backoff = backoff / 2 + rng.NextBounded(backoff + 1);  // [0.5, 1.5]x
    if (elapsed_ms() + backoff > policy.budget_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    tally.slept_ms += backoff;
  }
  if (!last_response.ok() && !last_transport.ok()) return last_transport;
  return last_response;
}

}  // namespace egocensus::net
