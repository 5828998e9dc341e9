// Unit tests for the resource-governance primitives (exec/governor.h) and
// the deterministic fault-injection framework (exec/failpoints.h).

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/failpoints.h"
#include "exec/governor.h"
#include "util/timer.h"

namespace egocensus {
namespace {

TEST(DeadlineTest, DefaultIsUnlimited) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMicros(), 0);
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  Deadline d = Deadline::AtMicros(1);  // epoch start: long past
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.Expired());
  EXPECT_LT(d.RemainingMicros(), 0);
}

TEST(DeadlineTest, FarDeadlineIsNotExpired) {
  Deadline d = Deadline::AfterMillis(60'000);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMicros(), 0);
}

TEST(CancelTokenTest, CopiesShareTheFlag) {
  CancelToken a;
  CancelToken b = a;
  EXPECT_FALSE(a.Cancelled());
  b.Cancel();
  EXPECT_TRUE(a.Cancelled());
  EXPECT_TRUE(b.Cancelled());
}

TEST(MemoryBudgetTest, UnlimitedNeverFails) {
  MemoryBudget budget;
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.TryCharge(1ull << 40));
  EXPECT_EQ(budget.charged_bytes(), 1ull << 40);
}

TEST(MemoryBudgetTest, ChargeCrossingLimitFailsAndStaysRecorded) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryCharge(60));
  EXPECT_TRUE(budget.TryCharge(40));   // exactly at the limit: OK
  EXPECT_FALSE(budget.TryCharge(1));   // crossing: fails
  EXPECT_EQ(budget.charged_bytes(), 101);
}

TEST(GovernorTest, UngovernedRunNeverStops) {
  Governor gov;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(gov.Checkpoint(), StopReason::kNone);
  }
  EXPECT_FALSE(gov.stopped());
  EXPECT_EQ(gov.checkpoints(), 100u);
  EXPECT_TRUE(gov.ToStatus("test").ok());
}

TEST(GovernorTest, CancelStopsAtNextCheckpoint) {
  Governor gov;
  EXPECT_EQ(gov.Checkpoint(), StopReason::kNone);
  gov.RequestCancel();
  EXPECT_EQ(gov.Checkpoint(), StopReason::kCancelled);
  EXPECT_TRUE(gov.stopped());
  Status status = gov.ToStatus("unit");
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(GovernorTest, CancelTokenCopyCancelsFromAnotherThread) {
  Governor gov;
  CancelToken token = gov.cancel_token();
  std::thread canceller([token]() mutable { token.Cancel(); });
  canceller.join();
  EXPECT_EQ(gov.Checkpoint(), StopReason::kCancelled);
}

TEST(GovernorTest, ExpiredDeadlineStops) {
  Governor gov;
  gov.SetDeadline(Deadline::AtMicros(1));
  EXPECT_EQ(gov.Checkpoint(), StopReason::kDeadlineExceeded);
  EXPECT_EQ(gov.ToStatus("unit").code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, BudgetOverrunStops) {
  Governor gov;
  gov.SetMemoryLimitBytes(1000);
  EXPECT_TRUE(gov.ChargeMemory(900));
  EXPECT_FALSE(gov.ChargeMemory(200));
  EXPECT_EQ(gov.reason(), StopReason::kResourceExhausted);
  EXPECT_EQ(gov.Checkpoint(), StopReason::kResourceExhausted);
  EXPECT_EQ(gov.ToStatus("unit").code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(gov.memory_charged_bytes(), 1100u);
}

TEST(GovernorTest, FirstStopReasonWins) {
  Governor gov;
  gov.SetMemoryLimitBytes(10);
  EXPECT_FALSE(gov.ChargeMemory(100));  // kResourceExhausted recorded first
  gov.RequestCancel();
  // The sticky reason stays kResourceExhausted even though the cancel flag
  // is now also set: checkpoints report the first recorded stop.
  EXPECT_EQ(gov.Checkpoint(), StopReason::kResourceExhausted);
}

TEST(GovernorTest, StopIsSharedAcrossThreads) {
  Governor gov;
  std::atomic<int> stopped_workers{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&gov, &stopped_workers] {
      while (gov.Checkpoint() == StopReason::kNone) {
        std::this_thread::yield();
      }
      stopped_workers.fetch_add(1);
    });
  }
  gov.RequestCancel();
  for (auto& w : workers) w.join();
  EXPECT_EQ(stopped_workers.load(), 4);
}

TEST(ScratchChargeTest, ChargesOnlyGrowth) {
  Governor gov;
  ScratchCharge charge;
  EXPECT_TRUE(charge.Update(&gov, 100));
  EXPECT_EQ(gov.memory_charged_bytes(), 100u);
  EXPECT_TRUE(charge.Update(&gov, 50));  // shrink: no new charge
  EXPECT_EQ(gov.memory_charged_bytes(), 100u);
  EXPECT_TRUE(charge.Update(&gov, 250));  // beyond high water: +150
  EXPECT_EQ(gov.memory_charged_bytes(), 250u);
}

TEST(ScratchChargeTest, NullGovernorAlwaysContinues) {
  ScratchCharge charge;
  EXPECT_TRUE(charge.Update(nullptr, 1ull << 40));
}

TEST(StopReasonTest, Names) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kResourceExhausted),
               "resource_exhausted");
}

TEST(StatusCodeTest, GovernorCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "CANCELLED");
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

class FailpointsTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FailpointsTest, UnarmedHitsAreCounted) {
  // Arming any point turns counting on globally; an unarmed *named* point
  // still only counts when registered, so register as observe-only (nth=0).
  failpoints::Arm("test/a", 0, nullptr);
  EGO_FAILPOINT("test/a");
  EGO_FAILPOINT("test/a");
  EXPECT_EQ(failpoints::Hits("test/a"), 2u);
}

TEST_F(FailpointsTest, HandlerFiresOnNthHitExactlyOnce) {
  int fired = 0;
  failpoints::Arm("test/nth", 3, [&fired] { ++fired; });
  for (int i = 0; i < 10; ++i) EGO_FAILPOINT("test/nth");
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(failpoints::Hits("test/nth"), 10u);
}

TEST_F(FailpointsTest, DisarmKeepsHitsReadable) {
  failpoints::Arm("test/d", 1, nullptr);
  EGO_FAILPOINT("test/d");
  failpoints::Disarm("test/d");
  EXPECT_EQ(failpoints::Hits("test/d"), 1u);
}

TEST_F(FailpointsTest, RearmResetsHitCount) {
  failpoints::Arm("test/r", 0, nullptr);
  EGO_FAILPOINT("test/r");
  failpoints::Arm("test/r", 0, nullptr);
  EXPECT_EQ(failpoints::Hits("test/r"), 0u);
}

TEST_F(FailpointsTest, HandlerCanCancelAGovernor) {
  Governor gov;
  failpoints::Arm("test/cancel", 2, [&gov] { gov.RequestCancel(); });
  EXPECT_EQ(gov.Checkpoint(), StopReason::kNone);
  EGO_FAILPOINT("test/cancel");
  EXPECT_EQ(gov.Checkpoint(), StopReason::kNone);
  EGO_FAILPOINT("test/cancel");  // 2nd hit: fires
  EXPECT_EQ(gov.Checkpoint(), StopReason::kCancelled);
}

TEST_F(FailpointsTest, GovernorCheckpointIsAFailpointSite) {
  Governor gov;
  failpoints::Arm("exec/checkpoint", 5, [&gov] { gov.RequestCancel(); });
  int completed = 0;
  for (int i = 0; i < 10; ++i) {
    if (gov.Checkpoint() != StopReason::kNone) break;
    ++completed;
  }
  // The failpoint fires at the top of Checkpoint(), before the cancel poll,
  // so the 5th checkpoint itself observes the stop: 4 complete.
  EXPECT_EQ(completed, 4);
}

}  // namespace
}  // namespace egocensus
