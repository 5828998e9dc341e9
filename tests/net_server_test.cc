// CensusServer behavior over real sockets: concurrent clients sharing one
// resident graph (bit-identical to serial execution), QUERY/UPDATE
// atomicity through the per-graph shared/exclusive lock, per-request
// governor enforcement with server-side clamping, admission-control BUSY,
// and the LOAD/UNLOAD lifecycle. Everything binds ephemeral ports and
// synchronizes on failpoints/counters — no fixed ports, no sleeps as
// synchronization.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/dynamic_graph.h"
#include "dynamic/update_stream.h"
#include "exec/failpoints.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "lang/engine.h"
#include "net/client.h"
#include "net/server.h"

namespace egocensus::net {
namespace {

constexpr const char* kTriangleQuery =
    "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
    "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes";

Graph TestGraph(std::uint32_t nodes, std::uint32_t edges_per_node,
                std::uint64_t seed) {
  GeneratorOptions gen;
  gen.num_nodes = nodes;
  gen.edges_per_node = edges_per_node;
  gen.num_labels = 3;
  gen.seed = seed;
  return GeneratePreferentialAttachment(gen);
}

/// The serial ground truth: the same engine defaults the server uses.
std::string LocalCsv(const Graph& graph, const std::string& query) {
  QueryEngine engine(graph);
  auto table = engine.Execute(query);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  std::ostringstream os;
  if (table.ok()) table->WriteCsv(os);
  return os.str();
}

bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

std::unique_ptr<CensusServer> StartServer(Graph graph,
                                          CensusServer::Options options) {
  options.listen.port = 0;
  auto server = std::make_unique<CensusServer>(options);
  EXPECT_TRUE(server->registry().Add("g", std::move(graph)).ok());
  EXPECT_TRUE(server->Start().ok());
  return server;
}

Endpoint EndpointOf(const CensusServer& server) {
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = server.port();
  return endpoint;
}

TEST(NetServerTest, EightConcurrentClientsBitIdenticalToSerial) {
  Graph graph = TestGraph(1500, 5, 13);
  std::string expected = LocalCsv(graph, kTriangleQuery);
  auto server = StartServer(std::move(graph), {});
  Endpoint endpoint = EndpointOf(*server);

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 2;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(endpoint);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (int q = 0; q < kQueriesEach; ++q) {
        auto response =
            client->Call(Client::QueryRequest("g", kTriangleQuery));
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (response->type != FrameType::kResult ||
            response->Header("exec_status", "") != "OK") {
          failures[c] = "unexpected response " +
                        std::string(FrameTypeName(response->type));
          return;
        }
        if (response->body != expected) {
          failures[c] = "client " + std::to_string(c) +
                        " got counts differing from serial execution";
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(server->Snapshot().counters.busy_rejected, 0u);
  // `completed` bumps after the response hit the wire, so the last client
  // can observe its reply before the server's counter increment lands.
  EXPECT_TRUE(WaitFor([&server] {
    return server->Snapshot().counters.completed == kClients * kQueriesEach;
  }));
}

TEST(NetServerTest, UpdateIsAtomicAgainstConcurrentQueries) {
  Graph graph = TestGraph(1200, 5, 17);

  // Serial references: counts before the batch and after it. The batch adds
  // fresh edges between mid-degree nodes (some may no-op if present; the
  // server applies the identical stream, so the reference stays exact).
  std::string updates_text;
  for (NodeId u = 100; u < 130; ++u) {
    updates_text += "ae " + std::to_string(u) + " " +
                    std::to_string(u + 523) + "\n";
  }
  std::string before = LocalCsv(graph, kTriangleQuery);
  DynamicGraph reference(graph);
  {
    std::istringstream stream(updates_text);
    auto updates = ParseUpdateStream(stream);
    ASSERT_TRUE(updates.ok());
    for (const GraphUpdate& update : *updates) {
      ASSERT_TRUE(reference.Apply(update).ok());
    }
  }
  std::string after = LocalCsv(reference.Materialize(), kTriangleQuery);
  ASSERT_NE(before, after) << "update batch must change some count for "
                              "the atomicity assertion to bite";

  auto server = StartServer(std::move(graph), {});
  Endpoint endpoint = EndpointOf(*server);

  // 6 query threads race one UPDATE. The per-graph shared/exclusive lock
  // makes the batch atomic: every query must see exactly the before-counts
  // or exactly the after-counts, never a half-applied batch.
  constexpr int kClients = 6;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kClients);
  std::atomic<int> torn{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(endpoint);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      for (int q = 0; q < 5; ++q) {
        auto response =
            client->Call(Client::QueryRequest("g", kTriangleQuery));
        if (!response.ok()) {
          failures[c] = response.status().ToString();
          return;
        }
        if (response->body != before && response->body != after) {
          torn.fetch_add(1);
        }
      }
    });
  }
  std::thread updater([&] {
    auto client = Client::Connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto response =
        client->Call(Client::UpdateRequest("g", updates_text));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->type, FrameType::kResult);
    EXPECT_EQ(response->Header("exec_status", ""), "OK");
  });
  for (auto& thread : threads) thread.join();
  updater.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
  EXPECT_EQ(torn.load(), 0) << "a query observed a half-applied batch";

  // Settled state == serial application.
  auto client = Client::Connect(endpoint);
  ASSERT_TRUE(client.ok());
  auto final_response =
      client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(final_response.ok());
  EXPECT_EQ(final_response->body, after);
}

TEST(NetServerTest, DeadlinedQueryIsPartialWhileOthersComplete) {
  // Heavy enough that a 1 ms deadline cannot finish it (radius-2 triangle
  // census, ~hundreds of ms serial) while ungoverned peers still complete
  // with counts identical to serial execution.
  constexpr const char* kHeavyQuery =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";
  Graph graph = TestGraph(8000, 8, 19);
  std::string expected = LocalCsv(graph, kHeavyQuery);
  auto server = StartServer(std::move(graph), {});
  Endpoint endpoint = EndpointOf(*server);

  constexpr int kPeers = 3;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kPeers);
  for (int c = 0; c < kPeers; ++c) {
    threads.emplace_back([&, c] {
      auto client = Client::Connect(endpoint);
      if (!client.ok()) {
        failures[c] = client.status().ToString();
        return;
      }
      auto response = client->Call(Client::QueryRequest("g", kHeavyQuery));
      if (!response.ok()) {
        failures[c] = response.status().ToString();
        return;
      }
      if (response->Header("exec_status", "") != "OK" ||
          response->body != expected) {
        failures[c] = "ungoverned peer did not complete bit-identically";
      }
    });
  }

  auto client = Client::Connect(endpoint);
  ASSERT_TRUE(client.ok());
  Message request = Client::QueryRequest("g", kHeavyQuery);
  request.headers["deadline_ms"] = "1";
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Still a RESULT — a governed stop returns the partial table plus the
  // stop metadata, exactly like the local CLI.
  EXPECT_EQ(response->type, FrameType::kResult);
  EXPECT_EQ(response->Header("exec_status", ""), "DEADLINE_EXCEEDED");
  EXPECT_EQ(response->Header("stop_reason", ""), "deadline_exceeded");
  EXPECT_GT(response->HeaderInt("focal_pending", 0) +
                response->HeaderInt("focal_approx", 0),
            0u);

  // The same stop with degrade_approx re-covers every unfinished focal
  // node with a sampled estimate: approx, never pending.
  request.headers["degrade_approx"] = "0.5";
  auto degraded = client->Call(request);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->type, FrameType::kResult);
  EXPECT_EQ(degraded->Header("stop_reason", ""), "deadline_exceeded");
  EXPECT_GT(degraded->HeaderInt("focal_approx", 0), 0u);
  EXPECT_EQ(degraded->HeaderInt("focal_pending", ~0ull), 0u);

  for (auto& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST(NetServerTest, ServerCapClampsRequestedDeadline) {
  constexpr const char* kHeavyQuery =
      "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
      "SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes";
  CensusServer::Options options;
  options.max_deadline_ms = 1;  // server-wide cap
  auto server = StartServer(TestGraph(8000, 8, 19), options);

  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  Message request = Client::QueryRequest("g", kHeavyQuery);
  request.headers["deadline_ms"] = "600000";  // ask for 10 minutes
  auto response = client->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Header("stop_reason", ""), "deadline_exceeded")
      << "the 1 ms server cap must clamp the requested 10-minute deadline";

  // An uncapped header field still applies: no deadline requested -> the
  // cap itself governs (a capped server never runs unbounded work).
  auto uncapped = client->Call(Client::QueryRequest("g", kHeavyQuery));
  ASSERT_TRUE(uncapped.ok());
  EXPECT_EQ(uncapped->Header("stop_reason", ""), "deadline_exceeded");
}

TEST(NetServerTest, MalformedOptionHeadersAreInvalidArgument) {
  // A default server: no caps stand between a bad value and the engine.
  auto server = StartServer(TestGraph(300, 4, 23), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  const std::pair<const char*, const char*> kBad[] = {
      {"threads", "4000000000"},
      {"threads", "99999999999999999999999"},
      {"deadline_ms", "10x"},
      {"top", "x"},
      {"format", "xml"},
      {"degrade_approx", "5"},
  };
  for (const auto& [header, value] : kBad) {
    Message request = Client::QueryRequest("g", kTriangleQuery);
    request.headers[header] = value;
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok()) << header << ": " << value;
    EXPECT_EQ(response->type, FrameType::kError) << header << ": " << value;
    EXPECT_EQ(response->Header("code", ""), "INVALID_ARGUMENT") << header;
    EXPECT_EQ(response->body.rfind(std::string(header) + ": ", 0), 0u)
        << "the error must name the header: " << response->body;
  }
  // The daemon is still serving.
  auto plain = client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->type, FrameType::kResult);
  EXPECT_EQ(plain->Header("exec_status", ""), "OK");
}

TEST(NetServerTest, AdmissionQueuesBurstsAndRejectsBeyondDepth) {
  if (!failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  failpoints::DisarmAll();
  CensusServer::Options options;
  options.max_inflight = 1;
  options.queue_depth = 1;
  auto server = StartServer(TestGraph(1500, 5, 13), options);
  Endpoint endpoint = EndpointOf(*server);

  // Park the first query inside its census at a governed checkpoint until
  // released, so "in flight" is a held state, not a race.
  std::atomic<bool> release{false};
  failpoints::Arm("exec/checkpoint", 1, [&release] {
    for (int i = 0; i < 2000 && !release.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::thread holder([&] {
    auto client = Client::Connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto response = client->Call(Client::QueryRequest("g", kTriangleQuery));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->type, FrameType::kResult);
    EXPECT_EQ(response->Header("exec_status", ""), "OK");
  });
  ASSERT_TRUE(WaitFor([] { return failpoints::Hits("exec/checkpoint") >= 1; }));
  ASSERT_TRUE(WaitFor([&server] { return server->inflight() == 1; }));

  // Second QUERY: the slot is held, so it waits in the fair queue instead
  // of failing — the burst-absorption the queue exists for.
  std::thread queued([&] {
    auto client = Client::Connect(endpoint);
    ASSERT_TRUE(client.ok());
    auto response = client->Call(Client::QueryRequest("g", kTriangleQuery));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->type, FrameType::kResult);
    EXPECT_EQ(response->Header("exec_status", ""), "OK");
  });
  ASSERT_TRUE(WaitFor([&server] { return server->queue().depth() == 1; }));

  // Third QUERY: depth bound hit -> structured BUSY. Every advertised
  // field must survive the round trip through the client parser
  // (docs/SERVER.md, "Retry guidance").
  auto rejected_client = Client::Connect(endpoint);
  ASSERT_TRUE(rejected_client.ok());
  Message overflow = Client::QueryRequest("g", kTriangleQuery);
  overflow.headers["request_id"] = "busy-roundtrip-1";
  auto busy = rejected_client->Call(overflow);
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->type, FrameType::kBusy);
  BusyInfo info = BusyInfoFromResponse(*busy);
  EXPECT_EQ(info.request_id, "busy-roundtrip-1");
  EXPECT_EQ(info.inflight, 1u);
  EXPECT_EQ(info.capacity, 1u);
  EXPECT_EQ(info.queued, 1u);
  EXPECT_GE(info.retry_after_ms, 25u);
  EXPECT_LE(info.retry_after_ms, 10000u);
  EXPECT_FALSE(info.draining);
  EXPECT_EQ(ResponseToStatus(*busy).code(), StatusCode::kResourceExhausted);

  // STATUS bypasses the queue entirely: the daemon stays observable while
  // saturated, and it reports the saturation — including queue state.
  auto status_client = Client::Connect(endpoint);
  ASSERT_TRUE(status_client.ok());
  auto status = status_client->Call(Client::StatusRequest());
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status->type, FrameType::kResult);
  EXPECT_NE(status->body.find("\"inflight\": 1"), std::string::npos);
  EXPECT_NE(status->body.find("\"queued\": 1"), std::string::npos);
  EXPECT_NE(status->body.find("\"busy_rejected\": 1"), std::string::npos);

  release.store(true);
  holder.join();
  queued.join();
  failpoints::DisarmAll();
  EXPECT_EQ(server->Snapshot().counters.busy_rejected, 1u);
}

TEST(NetServerTest, LoadUnloadLifecycle) {
  std::string path = ::testing::TempDir() + "/net_server_lifecycle.graph";
  ASSERT_TRUE(SaveGraph(TestGraph(300, 4, 23), path).ok());

  auto server = StartServer(TestGraph(1500, 5, 13), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());

  auto loaded = client->Call(Client::LoadRequest("g2", path));
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->type, FrameType::kResult);

  // Duplicate name: rejected, not silently replaced.
  auto duplicate = client->Call(Client::LoadRequest("g2", path));
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate->type, FrameType::kError);
  EXPECT_EQ(duplicate->Header("code", ""), "INVALID_ARGUMENT");

  auto queried = client->Call(Client::QueryRequest("g2", kTriangleQuery));
  ASSERT_TRUE(queried.ok());
  EXPECT_EQ(queried->type, FrameType::kResult);

  auto unloaded = client->Call(Client::UnloadRequest("g2"));
  ASSERT_TRUE(unloaded.ok());
  EXPECT_EQ(unloaded->type, FrameType::kResult);

  auto missing = client->Call(Client::QueryRequest("g2", kTriangleQuery));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->type, FrameType::kError);
  EXPECT_EQ(missing->Header("code", ""), "NOT_FOUND");
  // The error names what IS loaded, so a typo is self-diagnosing.
  EXPECT_NE(missing->body.find("loaded: g"), std::string::npos);

  std::remove(path.c_str());
}

TEST(NetServerTest, StatusCarriesBuildInfoAndRing) {
  auto server = StartServer(TestGraph(300, 4, 23), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  auto queried = client->Call(Client::QueryRequest("g", kTriangleQuery));
  ASSERT_TRUE(queried.ok());
  EXPECT_FALSE(queried->Header("server", "").empty());

  auto status = client->Call(Client::StatusRequest());
  ASSERT_TRUE(status.ok());
  const std::string& json = status->body;
  for (const char* key :
       {"\"server\"", "\"build\"", "egocensus", "\"admission\"",
        "\"counters\"", "\"graphs\"", "\"recent\"", "\"QUERY\"",
        "\"protocol\": 2"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }

  // The ring records the query with its latency and byte sizes.
  auto recent = server->Snapshot().recent;
  bool found = false;
  for (const auto& record : recent) {
    if (record.type == "QUERY" && record.exec_status == "OK" &&
        record.bytes_out > 0) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(NetServerTest, ShutdownFrameStopsTheServer) {
  auto server = StartServer(TestGraph(300, 4, 23), {});
  auto client = Client::Connect(EndpointOf(*server));
  ASSERT_TRUE(client.ok());
  auto response = client->Call(Client::ShutdownRequest());
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->type, FrameType::kResult);
  server->Wait();  // returns: the frame initiated a full shutdown
  EXPECT_TRUE(server->ShutdownRequested());
}

}  // namespace
}  // namespace egocensus::net
