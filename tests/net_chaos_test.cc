// Fault-injected end-to-end churn for the fair request queue (run under
// TSan in CI's daemon-chaos job): tenant bursts that overflow the bounds,
// clients that hang up while queued, and a graceful drain with work still
// in flight. The invariant under all of it is conservation — every request
// that entered the queue leaves it exactly once (enqueue hits = dequeue +
// evict hits), every served client gets exactly one terminal response
// carrying its request id, and nothing executes twice.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/failpoints.h"
#include "graph/generators.h"
#include "net/client.h"
#include "net/server.h"

namespace egocensus::net {
namespace {

constexpr const char* kTriangleQuery =
    "PATTERN t {?A-?B; ?B-?C; ?C-?A;} "
    "SELECT ID, COUNTP(t, SUBGRAPH(ID, 1)) FROM nodes";

/// The same triangle at k=2: ~15 ms of census on TestGraph(), long enough
/// that every tenant keeps a request waiting while another executes.
constexpr const char* kK2Cycle4Query =
    "PATTERN c {?A-?B; ?B-?C; ?C-?D; ?D-?A;} "
    "SELECT ID, COUNTP(c, SUBGRAPH(ID, 2)) FROM nodes";

Graph TestGraph() {
  GeneratorOptions gen;
  gen.num_nodes = 300;
  gen.edges_per_node = 4;
  gen.num_labels = 3;
  gen.seed = 7;
  return GeneratePreferentialAttachment(gen);
}

bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

struct Observed {
  std::string sent_id;
  std::string echoed_id;
  FrameType type = FrameType::kError;
  bool transport_ok = false;
  bool draining = false;
};

Observed CallOnce(const Endpoint& endpoint, const std::string& tenant,
                  const std::string& request_id,
                  const char* query = kTriangleQuery) {
  Observed seen;
  seen.sent_id = request_id;
  auto client = Client::Connect(endpoint);
  if (!client.ok()) return seen;
  Message request = Client::QueryRequest("g", query);
  request.headers["tenant"] = tenant;
  request.headers["request_id"] = request_id;
  auto response = client->Call(request);
  if (!response.ok()) return seen;
  seen.transport_ok = true;
  seen.echoed_id = response->Header("request_id", "");
  seen.type = response->type;
  seen.draining = response->Header("draining", "") == "1";
  return seen;
}

TEST(NetChaosTest, ConservationAcrossBurstsDisconnectsAndDrain) {
  failpoints::DisarmAll();
  // Observe-only counters: the conservation law's three terms.
  failpoints::Arm("net/queue/enqueue", 0, nullptr);
  failpoints::Arm("net/queue/dequeue", 0, nullptr);
  failpoints::Arm("net/queue/evict", 0, nullptr);

  CensusServer::Options options;
  options.listen.port = 0;
  options.max_inflight = 1;  // one slot: bursts genuinely queue
  options.queue_depth = 4;
  auto server = std::make_unique<CensusServer>(options);
  ASSERT_TRUE(server->registry().Add("g", TestGraph()).ok());
  ASSERT_TRUE(server->Start().ok());
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = server->port();

  // ---- Phase A: tenant bursts, some beyond the depth bound ------------
  std::mutex seen_mu;
  std::vector<Observed> seen;
  const char* kTenants[] = {"alpha", "beta", "gamma", "delta"};
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> burst;
    for (const char* tenant : kTenants) {
      for (int c = 0; c < 2; ++c) {
        std::string id = std::string(tenant) + "-r" +
                         std::to_string(round) + "-c" + std::to_string(c);
        burst.emplace_back([&endpoint, &seen_mu, &seen, tenant, id] {
          Observed observed = CallOnce(endpoint, tenant, id);
          std::lock_guard<std::mutex> lock(seen_mu);
          seen.push_back(observed);
        });
      }
    }
    for (auto& thread : burst) thread.join();
  }
  for (const Observed& observed : seen) {
    ASSERT_TRUE(observed.transport_ok)
        << observed.sent_id << ": the server must answer every request";
    EXPECT_EQ(observed.echoed_id, observed.sent_id);
    EXPECT_TRUE(observed.type == FrameType::kResult ||
                observed.type == FrameType::kBusy)
        << observed.sent_id << " got " << FrameTypeName(observed.type);
  }

  // ---- Phase B: clients that hang up while queued ---------------------
  std::atomic<bool> release{false};
  failpoints::Arm("exec/checkpoint", 1, [&release] {
    for (int i = 0; i < 2000 && !release.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread holder([&endpoint] {
    Observed observed = CallOnce(endpoint, "alpha", "holder-1");
    EXPECT_TRUE(observed.transport_ok);
    EXPECT_EQ(observed.type, FrameType::kResult);
  });
  ASSERT_TRUE(
      WaitFor([] { return failpoints::Hits("exec/checkpoint") >= 1; }));

  // Ghost clients: send a QUERY, confirm it queued, then vanish without
  // ever reading the response. Each send rides its own thread because
  // Call() blocks for a response that never comes; closing the socket
  // makes that Call fail, which is the thread's exit.
  std::uint64_t evicted_before = failpoints::Hits("net/queue/evict");
  std::vector<std::unique_ptr<Client>> ghosts;
  std::vector<std::thread> ghost_threads;
  for (int i = 0; i < 3; ++i) {
    auto client = Client::Connect(endpoint);
    ASSERT_TRUE(client.ok());
    ghosts.push_back(std::make_unique<Client>(std::move(*client)));
  }
  for (int i = 0; i < 3; ++i) {
    Message request = Client::QueryRequest("g", kTriangleQuery);
    request.headers["tenant"] = "beta";
    request.headers["request_id"] = "ghost-" + std::to_string(i);
    Client* ghost = ghosts[static_cast<std::size_t>(i)].get();
    ghost_threads.emplace_back(
        [ghost, request] { (void)ghost->Call(request); });
  }
  ASSERT_TRUE(WaitFor([&server] { return server->queue().depth() == 3; }));
  // shutdown(), not close(): it sends the FIN the server's hangup watcher
  // waits for AND wakes each ghost thread's blocked recv, so the threads
  // join without racing a reused fd.
  for (auto& ghost : ghosts) ::shutdown(ghost->fd(), SHUT_RDWR);
  for (auto& thread : ghost_threads) thread.join();
  for (auto& ghost : ghosts) ghost->Close();
  ASSERT_TRUE(WaitFor([evicted_before] {
    return failpoints::Hits("net/queue/evict") >= evicted_before + 3;
  }));
  ASSERT_TRUE(WaitFor([&server] { return server->queue().depth() == 0; }));
  release.store(true);
  holder.join();
  ASSERT_TRUE(WaitFor([&server] { return server->queue().Idle(); }));

  // ---- Phase C: graceful drain with queued work -----------------------
  std::atomic<bool> release2{false};
  failpoints::Arm("exec/checkpoint", 1, [&release2] {
    for (int i = 0; i < 2000 && !release2.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::thread holder2([&endpoint] {
    // Released mid-settle: served or hung up by the final shutdown —
    // either way it must not execute twice (conservation checks that).
    (void)CallOnce(endpoint, "alpha", "drain-holder");
  });
  ASSERT_TRUE(
      WaitFor([] { return failpoints::Hits("exec/checkpoint") >= 1; }));

  std::mutex drain_mu;
  std::vector<Observed> drained_seen;
  std::vector<std::thread> queued;
  for (int i = 0; i < 2; ++i) {
    std::string id = "drain-q" + std::to_string(i);
    queued.emplace_back([&endpoint, &drain_mu, &drained_seen, id] {
      Observed observed = CallOnce(endpoint, "gamma", id);
      std::lock_guard<std::mutex> lock(drain_mu);
      drained_seen.push_back(observed);
    });
  }
  ASSERT_TRUE(WaitFor([&server] { return server->queue().depth() == 2; }));

  std::thread drainer([&server] {
    CensusServer::DrainResult result = server->Drain(/*drain_ms=*/800);
    // The slot holder is parked past the budget, so the queued requests
    // must have been flushed rather than served.
    EXPECT_EQ(result.flushed, 2u);
    EXPECT_FALSE(result.completed);
  });
  // Both queued clients get a terminal BUSY carrying the draining flag.
  ASSERT_TRUE(WaitFor([&drain_mu, &drained_seen] {
    std::lock_guard<std::mutex> lock(drain_mu);
    return drained_seen.size() == 2;
  }));
  release2.store(true);  // let the holder finish inside the settle window
  for (auto& thread : queued) thread.join();
  drainer.join();
  holder2.join();
  server->Wait();

  for (const Observed& observed : drained_seen) {
    ASSERT_TRUE(observed.transport_ok) << observed.sent_id;
    EXPECT_EQ(observed.type, FrameType::kBusy) << observed.sent_id;
    EXPECT_TRUE(observed.draining) << observed.sent_id;
    EXPECT_EQ(observed.echoed_id, observed.sent_id);
  }

  // ---- The conservation law -------------------------------------------
  std::uint64_t enqueued = failpoints::Hits("net/queue/enqueue");
  std::uint64_t dequeued = failpoints::Hits("net/queue/dequeue");
  std::uint64_t evicted = failpoints::Hits("net/queue/evict");
  EXPECT_GT(enqueued, 0u);
  EXPECT_EQ(enqueued, dequeued + evicted)
      << "every request that entered the queue must leave exactly once";

  // No double execution: grants recorded by the queue match the dequeue
  // failpoint exactly, and concurrency never exceeded the slot count.
  const QueueSnapshot queue = server->Snapshot().queue;
  std::uint64_t granted = 0;
  for (const TenantQueueStats& stats : queue.tenants) {
    granted += stats.granted;
  }
  EXPECT_EQ(granted, dequeued);
  EXPECT_LE(queue.peak_active, options.max_inflight);
  failpoints::DisarmAll();
}

TEST(NetChaosTest, DrrKeepsLightTenantShareUnderHeavyLoad) {
  failpoints::DisarmAll();
  CensusServer::Options options;
  options.listen.port = 0;
  options.max_inflight = 1;
  options.queue_depth = 32;
  auto server = std::make_unique<CensusServer>(options);
  ASSERT_TRUE(server->registry().Add("g", TestGraph()).ok());
  ASSERT_TRUE(server->Start().ok());
  Endpoint endpoint;
  endpoint.host = "127.0.0.1";
  endpoint.port = server->port();

  // Closed-loop offered load 10:1 — ten heavy connections vs one light.
  // With per-tenant round-robin the light tenant's completed share should
  // approach 1/2; the acceptance bar is within 2x of its weight (>= 1/4).
  // DRR is fair only among tenants with requests waiting, so each request
  // runs the k=2 4-cycle census: its ~50 ms service time (a local CSR per
  // 2-ball) lets the light client's next request arrive while another one
  // still executes. (The k=2 triangle census took ~15 ms here until the
  // fast path listed triangles once per census; now it takes under 1 ms.)
  constexpr int kTotalTarget = 60;
  std::atomic<int> total{0};
  std::atomic<int> heavy_done{0};
  std::atomic<int> light_done{0};
  auto worker = [&](const std::string& tenant, std::atomic<int>* done) {
    while (total.load(std::memory_order_relaxed) < kTotalTarget) {
      Observed observed =
          CallOnce(endpoint, tenant, tenant + std::to_string(total.load()),
                   kK2Cycle4Query);
      if (observed.transport_ok && observed.type == FrameType::kResult) {
        done->fetch_add(1, std::memory_order_relaxed);
        total.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int i = 0; i < 10; ++i) {
    threads.emplace_back(worker, "heavy", &heavy_done);
  }
  threads.emplace_back(worker, "light", &light_done);
  for (auto& thread : threads) thread.join();

  int light = light_done.load();
  int completed = heavy_done.load() + light;
  ASSERT_GE(completed, kTotalTarget);
  double share = static_cast<double>(light) / completed;
  EXPECT_GE(share, 0.25) << "light tenant completed " << light << " of "
                         << completed
                         << " — DRR should keep its share near 1/2 despite "
                            "a 10:1 offered-load imbalance";
  server->RequestShutdown();
  server->Wait();
  failpoints::DisarmAll();
}

}  // namespace
}  // namespace egocensus::net
