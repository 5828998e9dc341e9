// FairRequestQueue unit tests: grant/overflow/eviction outcomes, DRR
// fairness order, the legacy reject-on-full mode, drain semantics, and the
// enqueue = dequeue + evict conservation law via the net/queue failpoints;
// then the HangupWatcher that evicts a queued request whose peer hung up.
// Waiters are real threads (Acquire blocks its caller), synchronized
// through the queue's own observable state — no sleeps as synchronization.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "exec/failpoints.h"
#include "exec/governor.h"
#include "net/queue.h"
#include "net/server.h"
#include "util/timer.h"

namespace egocensus::net {
namespace {

bool WaitFor(const std::function<bool()>& predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return predicate();
}

QueueOptions FastOptions(std::uint32_t slots, std::size_t depth) {
  QueueOptions options;
  options.slots = slots;
  options.max_depth = depth;
  return options;
}

TEST(FairRequestQueueTest, GrantsImmediatelyWhenSlotsFree) {
  FairRequestQueue queue(FastOptions(2, 8));
  std::uint64_t wait_us = 1;
  EXPECT_EQ(queue.Acquire("a", 10, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);
  EXPECT_EQ(queue.active(), 1u);
  EXPECT_EQ(queue.depth(), 0u);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
  auto stats = queue.Snapshot().tenants;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].tenant, "a");
  EXPECT_EQ(stats[0].granted, 1u);
}

TEST(FairRequestQueueTest, OverflowBeyondDepthBound) {
  FairRequestQueue queue(FastOptions(1, 1));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  std::thread waiter([&queue] {
    std::uint64_t w = 0;
    EXPECT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &w),
              AdmitOutcome::kGranted);
    queue.Release();
  });
  ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 1; }));

  // Depth bound hit: immediate overflow, no blocking.
  EXPECT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kOverflow);
  queue.Release();
  waiter.join();
  EXPECT_TRUE(queue.Idle());
  auto stats = queue.Snapshot().tenants;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].busy_overflow, 1u);
  EXPECT_EQ(stats[0].granted, 2u);
}

TEST(FairRequestQueueTest, OverflowBeyondByteBound) {
  QueueOptions options = FastOptions(1, 8);
  options.max_bytes = 100;
  FairRequestQueue queue(options);
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 10, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  std::thread waiter([&queue] {
    std::uint64_t w = 0;
    EXPECT_EQ(queue.Acquire("a", 90, 0, CancelToken(), &w),
              AdmitOutcome::kGranted);
    queue.Release();
  });
  ASSERT_TRUE(
      WaitFor([&queue] { return queue.Snapshot().queued_bytes == 90; }));

  // 90 queued + 20 would breach max_bytes = 100.
  EXPECT_EQ(queue.Acquire("a", 20, 0, CancelToken(), &wait_us),
            AdmitOutcome::kOverflow);
  queue.Release();
  waiter.join();
  EXPECT_TRUE(queue.Idle());
  EXPECT_EQ(queue.Snapshot().queued_bytes, 0u);
}

TEST(FairRequestQueueTest, RejectOnFullCompatWhenDepthZero) {
  // queue_depth = 0 restores the legacy behavior: no waiting at all.
  FairRequestQueue queue(FastOptions(1, 0));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);
  EXPECT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kOverflow);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
}

TEST(FairRequestQueueTest, DeadOnArrivalDeadlineNeverQueues) {
  FairRequestQueue queue(FastOptions(1, 8));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);
  // A deadline already in the past: evicted before ever waiting, even
  // though the queue has room.
  EXPECT_EQ(queue.Acquire("a", 1, Timer::NowMicros() - 1, CancelToken(),
                          &wait_us),
            AdmitOutcome::kDeadlineExpired);
  queue.Release();
  auto stats = queue.Snapshot().tenants;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].evicted_deadline, 1u);
}

TEST(FairRequestQueueTest, DeadlineExpiryEvictsWhileQueued) {
  FairRequestQueue queue(FastOptions(1, 8));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  // 50 ms deadline, but the slot is held much longer: the waiter must be
  // evicted from inside the queue, not wait for a grant that comes too
  // late.
  std::atomic<AdmitOutcome> outcome{AdmitOutcome::kGranted};
  std::thread waiter([&queue, &outcome] {
    std::uint64_t w = 0;
    outcome.store(
        queue.Acquire("a", 1, Timer::NowMicros() + 50'000, CancelToken(), &w));
  });
  waiter.join();
  EXPECT_EQ(outcome.load(), AdmitOutcome::kDeadlineExpired);
  EXPECT_EQ(queue.depth(), 0u);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
}

TEST(FairRequestQueueTest, ClientDisconnectEvictsWhileQueued) {
  FairRequestQueue queue(FastOptions(1, 8));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  CancelToken cancel;
  std::atomic<AdmitOutcome> outcome{AdmitOutcome::kGranted};
  std::thread waiter([&queue, &outcome, cancel] {
    std::uint64_t w = 0;
    outcome.store(queue.Acquire("a", 1, 0, cancel, &w));
  });
  ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 1; }));

  // The client hangs up while its request is queued: the hangup watcher
  // cancels the request's token and wakes the queue.
  cancel.Cancel();
  queue.Wake();
  waiter.join();
  EXPECT_EQ(outcome.load(), AdmitOutcome::kDisconnected);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
  auto stats = queue.Snapshot().tenants;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].evicted_disconnect, 1u);
}

TEST(FairRequestQueueTest, DrrInterleavesTenantsInsteadOfFifo) {
  // One slot, tenant A floods 6 requests, then tenant B adds 2. Plain
  // FIFO would serve B last; DRR must alternate A and B while both are
  // backlogged, so B's grants land early.
  FairRequestQueue queue(FastOptions(1, 16));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("hold", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  std::mutex order_mu;
  std::vector<std::string> order;
  std::vector<std::thread> waiters;
  auto spawn = [&](const std::string& tenant) {
    waiters.emplace_back([&, tenant] {
      std::uint64_t w = 0;
      ASSERT_EQ(queue.Acquire(tenant, 1, 0, CancelToken(), &w),
                AdmitOutcome::kGranted);
      {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tenant);
      }
      queue.Release();
    });
    // Serialize enqueue order so the FIFO-vs-DRR distinction is
    // deterministic: all A's queued before any B.
    std::size_t want = waiters.size();
    ASSERT_TRUE(WaitFor([&queue, want] { return queue.depth() == want; }));
  };
  for (int i = 0; i < 6; ++i) spawn("a");
  spawn("b");
  spawn("b");

  // One snapshot reads the global depth and every tenant's under one lock,
  // so the per-tenant depths of the parked waiters add up to it exactly.
  const QueueSnapshot parked = queue.Snapshot();
  EXPECT_EQ(parked.depth, 8u);
  std::size_t tenant_depths = 0;
  for (const TenantQueueStats& t : parked.tenants) tenant_depths += t.depth;
  EXPECT_EQ(tenant_depths, parked.depth);

  queue.Release();  // open the floodgates
  for (auto& waiter : waiters) waiter.join();

  ASSERT_EQ(order.size(), 8u);
  // Both B requests must complete within the first four grants (strict
  // alternation would put them 2nd and 4th; allow scheduling slack but
  // reject anything FIFO-like, where they would be 7th and 8th).
  int b_in_first_four = 0;
  for (int i = 0; i < 4; ++i) {
    if (order[static_cast<std::size_t>(i)] == "b") ++b_in_first_four;
  }
  EXPECT_EQ(b_in_first_four, 2)
      << "DRR should alternate backlogged tenants; got order: " <<
      [&order] {
        std::string joined;
        for (const auto& tenant : order) joined += tenant + " ";
        return joined;
      }();
  EXPECT_TRUE(queue.Idle());
}

TEST(FairRequestQueueTest, DrainRejectsNewAndFlushesQueued) {
  FairRequestQueue queue(FastOptions(1, 8));
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  std::atomic<AdmitOutcome> queued_outcome{AdmitOutcome::kGranted};
  std::thread waiter([&queue, &queued_outcome] {
    std::uint64_t w = 0;
    queued_outcome.store(queue.Acquire("a", 1, 0, CancelToken(), &w));
  });
  ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 1; }));

  queue.BeginDrain();
  EXPECT_TRUE(queue.draining());
  // New arrivals bounce immediately...
  EXPECT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kDraining);
  // ...and the flush evicts the queued waiter with the same outcome.
  EXPECT_EQ(queue.FlushForDrain(), 1u);
  waiter.join();
  EXPECT_EQ(queued_outcome.load(), AdmitOutcome::kDraining);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
}

TEST(FairRequestQueueTest, FailpointsObeyConservationLaw) {
  failpoints::DisarmAll();
  failpoints::Arm("net/queue/enqueue", 0, nullptr);  // observe-only
  failpoints::Arm("net/queue/dequeue", 0, nullptr);
  failpoints::Arm("net/queue/evict", 0, nullptr);

  FairRequestQueue queue(FastOptions(2, 2));
  std::uint64_t wait_us = 0;
  // Two grants, one queued-then-granted, one overflow, one DOA deadline.
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);
  ASSERT_EQ(queue.Acquire("b", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);
  std::thread waiter([&queue] {
    std::uint64_t w = 0;
    EXPECT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &w),
              AdmitOutcome::kGranted);
    queue.Release();
  });
  ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 1; }));
  EXPECT_EQ(queue.Acquire("c", 1, Timer::NowMicros() - 1, CancelToken(),
                          &wait_us),
            AdmitOutcome::kDeadlineExpired);
  std::thread overflow1([&queue] {
    std::uint64_t w = 0;
    EXPECT_EQ(queue.Acquire("b", 1, 0, CancelToken(), &w),
              AdmitOutcome::kGranted);
    queue.Release();
  });
  ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 2; }));
  EXPECT_EQ(queue.Acquire("c", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kOverflow);

  queue.Release();
  queue.Release();
  waiter.join();
  overflow1.join();
  ASSERT_TRUE(WaitFor([&queue] { return queue.Idle(); }));

  // Conservation: every Acquire ended exactly one way.
  std::uint64_t enqueued = failpoints::Hits("net/queue/enqueue");
  std::uint64_t dequeued = failpoints::Hits("net/queue/dequeue");
  std::uint64_t evicted = failpoints::Hits("net/queue/evict");
  EXPECT_EQ(enqueued, 6u);
  EXPECT_EQ(dequeued, 4u);
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(enqueued, dequeued + evicted);
  EXPECT_EQ(queue.Snapshot().peak_active, 2u);
  failpoints::DisarmAll();
}

TEST(HangupWatcherTest, PeerHangupEvictsTheQueuedRequest) {
  FairRequestQueue queue(FastOptions(1, 8));
  HangupWatcher watcher(&queue);
  std::uint64_t wait_us = 0;
  ASSERT_EQ(queue.Acquire("a", 1, 0, CancelToken(), &wait_us),
            AdmitOutcome::kGranted);

  int pair[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  Governor governor;
  std::atomic<AdmitOutcome> outcome{AdmitOutcome::kGranted};
  {
    HangupWatcher::Watch watch(&watcher, pair[0], governor.cancel_token());
    std::thread waiter([&queue, &outcome, &governor] {
      std::uint64_t w = 0;
      outcome.store(queue.Acquire("a", 1, 0, governor.cancel_token(), &w));
    });
    ASSERT_TRUE(WaitFor([&queue] { return queue.depth() == 1; }));
    ::close(pair[1]);  // the peer hangs up while its request is queued
    waiter.join();
  }
  EXPECT_EQ(outcome.load(), AdmitOutcome::kDisconnected);
  EXPECT_EQ(governor.Checkpoint(), StopReason::kCancelled);
  EXPECT_EQ(watcher.cancels(), 1u);
  ::close(pair[0]);
  queue.Release();
  EXPECT_TRUE(queue.Idle());
  auto stats = queue.Snapshot().tenants;
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].evicted_disconnect, 1u);
}

TEST(HangupWatcherTest, EndedWatchLeavesItsGovernorUncancelled) {
  FairRequestQueue queue(FastOptions(1, 8));
  HangupWatcher watcher(&queue);
  int ended[2];
  int live[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, ended), 0);
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, live), 0);
  Governor finished;
  Governor running;
  {
    HangupWatcher::Watch watch(&watcher, ended[0], finished.cancel_token());
  }
  {
    HangupWatcher::Watch watch(&watcher, live[0], running.cancel_token());
    // Both peers hang up; only the still-watched request is cancelled.
    ::close(ended[1]);
    ::close(live[1]);
    ASSERT_TRUE(WaitFor(
        [&running] { return running.cancel_token().Cancelled(); }));
  }
  EXPECT_FALSE(finished.cancel_token().Cancelled());
  EXPECT_EQ(finished.Checkpoint(), StopReason::kNone);
  EXPECT_EQ(watcher.cancels(), 1u);
  ::close(ended[0]);
  ::close(live[0]);
}

}  // namespace
}  // namespace egocensus::net
