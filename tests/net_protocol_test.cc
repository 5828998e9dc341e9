// Wire-protocol robustness: frame encode/decode against truncation and
// corruption (pure byte-buffer tests, no sockets), then a live server fed
// deliberately broken streams — truncated frames, oversized length
// prefixes, garbage bytes — and a mid-request disconnect that must cancel
// the running census via its governor (observed through StopReason and the
// server's disconnect_cancels counter, failpoint-synchronized so nothing
// races).

#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "exec/failpoints.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"

namespace egocensus::net {
namespace {

Message MakeMessage() {
  Message m;
  m.type = FrameType::kQuery;
  m.headers["graph"] = "g";
  m.headers["deadline_ms"] = "250";
  m.body = "SELECT ID FROM nodes";
  return m;
}

/// Polls `predicate` until true or ~10 s pass.
bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

TEST(FrameTest, RoundTrip) {
  Message in = MakeMessage();
  in.body = std::string("line1\n\nline2\n\x01\x02\xff", 16);  // binary-safe
  std::vector<std::uint8_t> bytes = EncodeFrame(in);

  Message out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &out, &consumed,
                           &error),
            DecodeResult::kFrame)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(out.type, FrameType::kQuery);
  EXPECT_EQ(out.Header("graph", ""), "g");
  EXPECT_EQ(out.HeaderInt("deadline_ms", 0), 250u);
  EXPECT_EQ(out.body, in.body);
}

TEST(FrameTest, EveryTruncationNeedsMore) {
  std::vector<std::uint8_t> bytes = EncodeFrame(MakeMessage());
  for (std::size_t prefix = 0; prefix < bytes.size(); ++prefix) {
    Message out;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(TryDecodeFrame(bytes.data(), prefix, &out, &consumed, &error),
              DecodeResult::kNeedMore)
        << "prefix of " << prefix << " bytes decoded unexpectedly";
  }
}

TEST(FrameTest, BadMagicIsCorrupt) {
  std::vector<std::uint8_t> bytes = EncodeFrame(MakeMessage());
  bytes[0] = 0x00;
  Message out;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &out, &consumed,
                           &error),
            DecodeResult::kCorrupt);
  EXPECT_FALSE(error.empty());
}

TEST(FrameTest, UnknownTypeIsCorrupt) {
  std::vector<std::uint8_t> bytes = EncodeFrame(MakeMessage());
  bytes[1] = 0x7A;  // not a defined FrameType
  Message out;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &out, &consumed,
                           &error),
            DecodeResult::kCorrupt);
}

TEST(FrameTest, OversizedLengthIsCorruptBeforeBuffering) {
  // A hostile length prefix must be rejected from the 6-byte header alone —
  // no waiting for (or allocating) 4 GiB of payload.
  std::uint8_t header[kFrameHeaderBytes] = {
      kFrameMagic, 0x01, 0xFF, 0xFF, 0xFF, 0xFF};
  Message out;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(header, sizeof(header), &out, &consumed, &error),
            DecodeResult::kCorrupt);
  EXPECT_NE(error.find("payload"), std::string::npos) << error;
}

TEST(FrameTest, GarbageBytesAreCorrupt) {
  std::vector<std::uint8_t> garbage(64);
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<std::uint8_t>(0x37 + i * 11);
  }
  Message out;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(TryDecodeFrame(garbage.data(), garbage.size(), &out, &consumed,
                           &error),
            DecodeResult::kCorrupt);
}

TEST(FrameTest, TwoFramesDecodeSequentially) {
  Message a = MakeMessage();
  Message b = Client::StatusRequest();
  std::vector<std::uint8_t> bytes = EncodeFrame(a);
  std::vector<std::uint8_t> second = EncodeFrame(b);
  bytes.insert(bytes.end(), second.begin(), second.end());

  Message out;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(TryDecodeFrame(bytes.data(), bytes.size(), &out, &consumed,
                           &error),
            DecodeResult::kFrame);
  EXPECT_EQ(out.type, FrameType::kQuery);
  ASSERT_EQ(TryDecodeFrame(bytes.data() + consumed, bytes.size() - consumed,
                           &out, &consumed, &error),
            DecodeResult::kFrame);
  EXPECT_EQ(out.type, FrameType::kStatus);
}

TEST(FrameTest, MalformedHeaderLineFails) {
  Message out;
  Status status = ParsePayload("no colon here\n\nbody", &out);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

TEST(FrameTest, HeaderIntFallsBackOnGarbage) {
  Message m;
  m.headers["deadline_ms"] = "12x4";
  m.headers["threads"] = "";
  m.headers["top"] = "99999999999999999999";  // past 2^64 - 1: no wrap
  EXPECT_EQ(m.HeaderInt("deadline_ms", 7), 7u);
  EXPECT_EQ(m.HeaderInt("threads", 7), 7u);
  EXPECT_EQ(m.HeaderInt("top", 7), 7u);
  EXPECT_EQ(m.HeaderInt("absent", 7), 7u);
}

TEST(EndpointTest, ParseAcceptsAndRejects) {
  auto ok = ParseEndpoint("127.0.0.1:7471");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->host, "127.0.0.1");
  EXPECT_EQ(ok->port, 7471);

  for (const char* bad : {"noport", "host:", "host:notanumber", ":",
                          "host:99999", "host:+80", ""}) {
    auto parsed = ParseEndpoint(bad);
    EXPECT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

// ---------------------------------------------------------------------------
// Live-server robustness.

class ProtocolServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoints::DisarmAll();
    GeneratorOptions gen;
    gen.num_nodes = 3000;
    gen.edges_per_node = 5;
    gen.num_labels = 3;
    gen.seed = 11;
    CensusServer::Options options;
    options.listen.port = 0;  // ephemeral: tests never race on a port
    server_ = std::make_unique<CensusServer>(options);
    ASSERT_TRUE(server_->registry()
                    .Add("g", GeneratePreferentialAttachment(gen))
                    .ok());
    ASSERT_TRUE(server_->Start().ok());
    endpoint_.host = "127.0.0.1";
    endpoint_.port = server_->port();
  }

  void TearDown() override {
    server_->RequestShutdown();
    server_->Wait();
    failpoints::DisarmAll();
  }

  Endpoint endpoint_;
  std::unique_ptr<CensusServer> server_;
};

TEST_F(ProtocolServerTest, TruncatedFrameCountsAsProtocolError) {
  auto socket = Socket::ConnectTcp(endpoint_);
  ASSERT_TRUE(socket.ok());
  // A header promising 100 payload bytes, then only 10, then FIN.
  std::uint8_t header[kFrameHeaderBytes] = {kFrameMagic, 0x01, 100, 0, 0, 0};
  ASSERT_TRUE(socket->SendRaw(header, sizeof(header)).ok());
  std::uint8_t partial[10] = {};
  ASSERT_TRUE(socket->SendRaw(partial, sizeof(partial)).ok());
  socket->ShutdownWrite();
  EXPECT_TRUE(WaitFor(
      [this] { return server_->Snapshot().counters.protocol_errors >= 1; }));
}

TEST_F(ProtocolServerTest, GarbageBytesGetErrorResponse) {
  auto socket = Socket::ConnectTcp(endpoint_);
  ASSERT_TRUE(socket.ok());
  std::vector<std::uint8_t> garbage(32, 0x5A);  // wrong magic
  ASSERT_TRUE(socket->SendRaw(garbage.data(), garbage.size()).ok());
  // Best-effort ERROR frame before the server hangs up.
  auto response = socket->RecvFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, FrameType::kError);
  EXPECT_EQ(response->Header("code", ""), "PARSE_ERROR");
  EXPECT_TRUE(WaitFor(
      [this] { return server_->Snapshot().counters.protocol_errors >= 1; }));
}

TEST_F(ProtocolServerTest, OversizedLengthPrefixTearsDownConnection) {
  auto socket = Socket::ConnectTcp(endpoint_);
  ASSERT_TRUE(socket.ok());
  std::uint8_t header[kFrameHeaderBytes] = {
      kFrameMagic, 0x01, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(socket->SendRaw(header, sizeof(header)).ok());
  auto response = socket->RecvFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->type, FrameType::kError);
  // After the error the server closes; the next read hits EOF.
  auto after = socket->RecvFrame();
  EXPECT_FALSE(after.ok());
  EXPECT_TRUE(WaitFor(
      [this] { return server_->Snapshot().counters.protocol_errors >= 1; }));
}

TEST_F(ProtocolServerTest, ResponseTypedRequestIsRejected) {
  auto socket = Socket::ConnectTcp(endpoint_);
  ASSERT_TRUE(socket.ok());
  Message bogus;
  bogus.type = FrameType::kResult;  // response type from a client
  ASSERT_TRUE(socket->SendFrame(bogus).ok());
  auto response = socket->RecvFrame();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kError);
  EXPECT_TRUE(WaitFor(
      [this] { return server_->Snapshot().counters.protocol_errors >= 1; }));
}

TEST_F(ProtocolServerTest, MidRequestDisconnectCancelsCensus) {
  auto client = Client::Connect(endpoint_);
  ASSERT_TRUE(client.ok());
  int fd = client->fd();

  // Deterministic mid-census disconnect: at the 100th governed checkpoint
  // the failpoint handler hangs up the client's socket and then parks the
  // census long enough for the server's disconnect watcher (5 ms poll) to
  // observe the FIN and cancel the governor. The checkpoint right after
  // the handler returns must observe the cancellation.
  failpoints::Arm("exec/checkpoint", 100, [fd] {
    ::shutdown(fd, SHUT_RDWR);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });

  Message request = Client::QueryRequest(
      "g",
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes");
  auto response = client->Call(request);
  // The client hung itself up, so its own read fails; the assertion of
  // interest is server-side.
  (void)response;

  EXPECT_TRUE(WaitFor(
      [this] { return server_->Snapshot().counters.disconnect_cancels >= 1; }));
  EXPECT_TRUE(WaitFor([this] {
    for (const auto& record : server_->Snapshot().recent) {
      if (record.type == std::string("QUERY") &&
          record.stop_reason == "cancelled") {
        return true;
      }
    }
    return false;
  }));
}

// ---------------------------------------------------------------------------
// Socket timeouts (client-side robustness against a stalled server).

TEST(SocketTimeoutTest, IoTimeoutTurnsStalledPeerIntoDeadline) {
  // A listener that accepts and then never responds: exactly the hang an
  // I/O timeout exists for.
  Listener listener;
  Endpoint bind;
  bind.host = "127.0.0.1";
  ASSERT_TRUE(listener.Listen(bind).ok());
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = listener.port();

  auto socket = Socket::ConnectTcp(endpoint, /*connect_timeout_ms=*/2000);
  ASSERT_TRUE(socket.ok()) << socket.status().ToString();
  ASSERT_TRUE(socket->SetIoTimeout(150).ok());

  auto accepted = listener.AcceptOnce(2000);
  ASSERT_TRUE(accepted.ok());

  ASSERT_TRUE(socket->SendFrame(MakeMessage()).ok());
  auto started = std::chrono::steady_clock::now();
  auto response = socket->RecvFrame();  // the peer stays silent
  auto waited = std::chrono::steady_clock::now() - started;
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(waited)
                .count(),
            5000)
      << "a 150 ms io timeout must not block for seconds";
}

TEST(SocketTimeoutTest, ConnectTimeoutFailsFastWhenAcceptQueueIsFull) {
  // Saturate a backlog-1 listener that never accepts: once the kernel's
  // accept queue fills, further SYNs are dropped and connect() hangs —
  // the blackholed-server case the connect timeout bounds.
  Listener listener;
  Endpoint bind;
  bind.host = "127.0.0.1";
  ASSERT_TRUE(listener.Listen(bind, /*backlog=*/1).ok());
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = listener.port();

  std::vector<Socket> held;
  bool timed_out = false;
  for (int i = 0; i < 64 && !timed_out; ++i) {
    auto socket = Socket::ConnectTcp(endpoint, /*connect_timeout_ms=*/250);
    if (socket.ok()) {
      held.push_back(std::move(*socket));
      continue;
    }
    EXPECT_EQ(socket.status().code(), StatusCode::kDeadlineExceeded)
        << socket.status().ToString();
    timed_out = true;
  }
  EXPECT_TRUE(timed_out)
      << "64 connects against a backlog-1 listener that never accepts "
         "should saturate the accept queue and hit the connect timeout";
}

// ---------------------------------------------------------------------------
// AcceptOnce must tell a signal (EINTR) apart from a poll timeout: with an
// infinite timeout a kNotFound "timeout" cannot happen, and callers use the
// distinction to re-check stop flags.

namespace {
void IgnoreSignal(int) {}
}  // namespace

TEST(ListenerTest, AcceptInterruptedBySignalIsNotATimeout) {
  Listener listener;
  Endpoint bind;
  bind.host = "127.0.0.1";
  ASSERT_TRUE(listener.Listen(bind).ok());

  // sigaction without SA_RESTART: poll() returns EINTR (on Linux poll is
  // never auto-restarted, but be explicit for portability).
  struct sigaction action {};
  action.sa_handler = IgnoreSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);

  pthread_t accept_thread = pthread_self();
  std::thread interrupter([accept_thread] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pthread_kill(accept_thread, SIGUSR1);
  });
  auto accepted = listener.AcceptOnce(/*timeout_ms=*/10000);
  interrupter.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  ASSERT_FALSE(accepted.ok());
  EXPECT_EQ(accepted.status().code(), StatusCode::kInterrupted)
      << accepted.status().ToString();
  EXPECT_NE(accepted.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace egocensus::net
